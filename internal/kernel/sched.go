package kernel

import (
	"math"

	"synthesis/internal/m68k"
	"synthesis/internal/synth"
)

// Fine-grain scheduling (Section 4.4): "round-robin with an adaptively
// adjusted CPU quantum per thread. Instead of priorities, Synthesis
// uses fine-grain scheduling, which assigns larger or smaller quanta
// to threads based on a 'need to execute' criterion ... determined by
// the rate at which I/O data flows into and out of its quaspace."
//
// The mechanism is split exactly as in the kernel: the data path is
// synthesized code bumping gauges (every queue operation counts
// itself — see internal/kio), the per-thread quantum is a TTE cell the
// thread's own sw_in re-arms the interval timer from, and the policy
// below reads the gauges and rewrites the quantum cells. Its only
// state, the smoothed rate, is a TTE cell too. The policy runs from
// the alarm channel (OnAlarm); because it only touches per-thread
// cells (Code Isolation: the running thread reads its own quantum, the
// policy writes it between that thread's runs), it needs no locks.

// Scheduler parameters, in the paper's regime: "a typical quantum is
// on the order of a few hundred microseconds", adjusted "as large as
// possible while maintaining the fine granularity".
const (
	MinQuantumUS  = 100  // floor
	MaxQuantumUS  = 2000 // ceiling
	BaseQuantumUS = 500  // quantum at zero I/O rate, and a new thread's
	// gainUS is the quantum boost per I/O event observed in the last
	// adaptation window.
	gainUS = 2
	// smoothing, in [0,1), is how much of the previous estimate
	// survives an adaptation step.
	smoothing = 0.5
)

// ioGauge reads and resets a thread's I/O gauge: the TTE cell plus
// the per-descriptor gauges the synthesized read/write routines bump.
func (k *Kernel) ioGauge(t *Thread) uint32 {
	m := k.M
	total := m.Peek(t.TTE+TTEIOGauge, 4)
	m.Poke(t.TTE+TTEIOGauge, 4, 0)
	for fd := 0; fd < MaxFD; fd++ {
		cell := FDCell(t.TTE, fd, FDGauge)
		total += m.Peek(cell, 4)
		m.Poke(cell, 4, 0)
	}
	return total
}

// Adapt runs one adaptation step: read every thread's gauges, smooth
// the rate estimate in its TTERate cell, and rewrite the quantum
// cells. The next time each thread is switched in, its sw_in arms the
// timer with the new value — no synchronization needed beyond the
// cell write. Creation clears the TTE, so a thread given a dead
// thread's TTE starts from the base quantum.
func (k *Kernel) Adapt() {
	m := k.M
	for t := range k.Threads() {
		if t == k.Idle {
			continue
		}
		tte := t.TTE
		old := math.Float64frombits(uint64(m.Peek(tte+TTERate, 4))<<32 | uint64(m.Peek(tte+TTERate+4, 4)))
		rate := smoothing*old + (1-smoothing)*float64(k.ioGauge(t))
		bits := math.Float64bits(rate)
		m.Poke(tte+TTERate, 4, uint32(bits>>32))
		m.Poke(tte+TTERate+4, 4, uint32(bits))
		q := min(max(BaseQuantumUS+gainUS*rate, MinQuantumUS), MaxQuantumUS)
		m.Poke(tte+TTEQuantum, 4, uint32(q*m.ClockMHz))
	}
}

// QuantumUS reads a thread's current quantum in microseconds.
func (k *Kernel) QuantumUS(t *Thread) float64 {
	return float64(k.M.Peek(t.TTE+TTEQuantum, 4)) / k.M.ClockMHz
}

// svcAlarm is the KCALL the alarm procedure makes into its host policy.
const svcAlarm = 110

// OnAlarm runs policy from the machine's alarm channel every windowUS
// microseconds: the alarm procedure is a KCALL stub that re-arms the
// alarm (a policy is host code by DESIGN.md Section 4; its trigger is
// real machine time). The alarm interrupt dispatches through the one
// GAlarmProc cell, so the channel has one owner: a second policy
// panics instead of taking the cell from the first (a configuration
// error, like a duplicate table registration).
func (k *Kernel) OnAlarm(windowUS float64, policy func()) {
	if k.alarmOwned {
		panic("kernel: the alarm channel already has a host policy")
	}
	k.alarmOwned = true
	cycles := int32(windowUS * k.M.ClockMHz)
	k.M.RegisterService(svcAlarm, func(*m68k.Machine) uint64 {
		policy()
		return 0
	})
	proc := k.C.Synthesize(nil, "alarm_policy", nil, func(e *synth.Emitter) {
		e.Kcall(svcAlarm)
		// Re-arm the alarm for the next window.
		e.MoveL(m68k.Imm(cycles), m68k.Abs(m68k.TimerBase+m68k.TimerRegAlarm))
		e.Rts()
	})
	k.M.Poke(GAlarmProc, 4, proc)
	k.Timer.Store(m68k.TimerRegAlarm, 4, uint32(cycles))
	k.M.Kick(k.Timer)
}
