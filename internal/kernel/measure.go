package kernel

import "synthesis/internal/m68k"

// Measurement helpers: the Quamachine's instrumentation (Section 6.1)
// reduced to what the benchmarks need — exact cycle intervals around
// specific kernel paths, read from the interval timer / cycle counter
// rather than wall clocks.

// switchDispatchCycles approximates the interrupt-dispatch cost paid
// before control reaches sw_out (exception sequencing plus the two
// frame pushes); MeasureSwitchMicros adds it so the reported figure
// covers the whole quantum-interrupt-to-resumed-thread path, which is
// what Table 4 calls a context switch.
const switchDispatchCycles = 34

// MeasureSwitchMicros lets the running kernel hit its next context
// switch and returns the cycle time from switch-out entry through the
// completed switch-in RTE (plus the dispatch cost), in microseconds.
// The machine keeps running; callers can invoke it repeatedly.
func MeasureSwitchMicros(k *Kernel) float64 {
	m := k.M
	cur := k.Cur()
	if cur == nil {
		return -1
	}
	swout := m.Peek(cur.TTE+TTESwoutPt, 4)
	if err := m.RunUntil(swout, 100_000_000); err != nil {
		return -1
	}
	start := m.Cycles
	// Execute through the first RTE: that is the target thread
	// resuming.
	for {
		if int(m.PC) < len(m.Code) && m.Code[m.PC].Op == m68k.RTE {
			if err := m.Step(); err != nil {
				return -1
			}
			break
		}
		if err := m.Step(); err != nil {
			return -1
		}
		if m.Cycles-start > 1_000_000 {
			return -1
		}
	}
	return m.Micros(m.Cycles - start + switchDispatchCycles)
}
