package kernel

import (
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
// below reads the gauges and rewrites the quantum cells. The policy
// runs from the scheduler's adaptation interval; because it only
// touches per-thread cells (Code Isolation: the running thread reads
// its own quantum, the policy writes it between that thread's runs),
// it needs no locks.

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

// Scheduler is the adaptation policy state.
type Scheduler struct {
	K    *Kernel
	rate map[*Thread]float64 // smoothed I/O events per window, live threads only
}

// NewScheduler creates the policy.
func NewScheduler(k *Kernel) *Scheduler {
	return &Scheduler{K: k, rate: make(map[*Thread]float64)}
}

// ioGauge reads and resets a thread's I/O gauge: the TTE cell plus
// the per-descriptor gauges the synthesized read/write routines bump.
func (s *Scheduler) ioGauge(t *Thread) uint32 {
	m := s.K.M
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
// the rate estimate, and rewrite the quantum cells. The next time
// each thread is switched in, its sw_in arms the timer with the new
// value — no synchronization needed beyond the cell write. Only live
// threads keep an estimate, so one given a dead thread's TTE starts
// from the base quantum.
func (s *Scheduler) Adapt() {
	mhz := s.K.M.ClockMHz
	rate := make(map[*Thread]float64, len(s.rate))
	for tte, t := range s.K.Threads {
		if t.Dead || t == s.K.Idle {
			continue
		}
		events := float64(s.ioGauge(t))
		rate[t] = smoothing*s.rate[t] + (1-smoothing)*events
		q := min(max(BaseQuantumUS+gainUS*rate[t], MinQuantumUS), MaxQuantumUS)
		s.K.M.Poke(tte+TTEQuantum, 4, uint32(q*mhz))
	}
	s.rate = rate
}

// QuantumUS reads a thread's current quantum in microseconds.
func (s *Scheduler) QuantumUS(t *Thread) float64 {
	return float64(s.K.M.Peek(t.TTE+TTEQuantum, 4)) / s.K.M.ClockMHz
}

// InstallAlarmDriver arranges for Adapt to run from the machine's
// alarm channel every windowUS microseconds: the alarm procedure is a
// KCALL stub (the policy is host code by DESIGN.md Section 4; its
// trigger is real machine time). It returns the synthesized alarm
// procedure's address. Only one driver may be installed per kernel.
func (s *Scheduler) InstallAlarmDriver(windowUS float64) uint32 {
	k := s.K
	cycles := int32(windowUS * k.M.ClockMHz)
	const svcAdapt = 110
	k.M.RegisterService(svcAdapt, func(mm *m68k.Machine) uint64 {
		s.Adapt()
		return 0
	})
	proc := k.C.Synthesize(nil, "sched_adapt", nil, func(e *synth.Emitter) {
		e.Kcall(svcAdapt)
		// Re-arm the alarm for the next window.
		e.MoveL(m68k.Imm(cycles), m68k.Abs(m68k.TimerBase+m68k.TimerRegAlarm))
		e.Rts()
	})
	k.M.Poke(GAlarmProc, 4, proc)
	k.Timer.Store(m68k.TimerRegAlarm, 4, uint32(cycles))
	k.M.Kick(k.Timer)
	return proc
}
