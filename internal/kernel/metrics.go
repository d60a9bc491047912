package kernel

import (
	"synthesis/internal/metrics"
)

// The kernel's half of the observability plane: every health tally
// that used to live as an ad-hoc struct field or a bare VM cell is
// served through the metrics registry. VM cells that synthesized code
// bumps (GSpuriousIRQ, GLiveThreads) register as sampled metrics —
// the hot path keeps its single AddL and the registry reads the cell
// only at snapshot time. Host-side events (thread reaps, exits,
// panics) increment atomic handles from the KCALL services.

// wireMetrics registers the kernel-level metrics and attaches the
// synthesis counter plane. Called from Boot before any code is
// synthesized, so counted quajects exist from the first routine on.
func (k *Kernel) wireMetrics(reg *metrics.Registry) {
	k.Metrics = reg
	reg.SetClock(k.M.Clock, k.M.ClockMHz)

	// VM cells, sampled lazily.
	reg.Sample("kernel.spurious_irq", func() uint64 { return uint64(k.g(GSpuriousIRQ)) })
	reg.SampleGauge("kernel.live_threads", func() float64 { return float64(k.g(GLiveThreads)) })

	// Host-side event counters, bumped by the KCALL services.
	k.mFaults = reg.Counter("kernel.thread.faults")
	k.mExits = reg.Counter("kernel.thread.exits")
	k.mCreates = reg.Counter("kernel.thread.creates")
	k.mPanics = reg.Counter("kernel.panics")

	// What the optimization stage found to do, and the code space.
	reg.Sample("synth.optimize.removed", func() uint64 { return k.C.OptRemoved })
	reg.Sample("synth.optimize.routines_changed", func() uint64 { return k.C.OptChanged })
	reg.SampleGauge("m68k.code.slots", func() float64 { return float64(k.M.CodeTop) })

	// The dispatcher cache: over the run's instruction count, slow_instrs
	// is the share of traffic with no closure and slow_steps the share of
	// instruction boundaries that left Run's fast loop
	// (docs/PERFORMANCE.md). collapsed_passes counts the copy-loop passes
	// run as one host copy, collapse_fallbacks those whose head ran its
	// own MOVEM instead (an event due mid-pass, a block off plain RAM,
	// overlapping blocks, or a Step).
	reg.Sample("m68k.dispatch.translations", func() uint64 { return k.M.Translations })
	reg.Sample("m68k.dispatch.slow_instrs", func() uint64 { return k.M.SlowInstrs })
	reg.Sample("m68k.dispatch.slow_steps", func() uint64 { return k.M.SlowSteps })
	reg.Sample("m68k.dispatch.collapsed_passes", func() uint64 { return k.M.CollapsedPasses })
	reg.Sample("m68k.dispatch.collapse_fallbacks", func() uint64 { return k.M.CollapseFallbacks })

	k.C.Counters = &synthCounters{k: k}
}

// synthCounters implements synth.CounterPlane on top of the kernel
// heap and registry: each counted region gets one 4-byte VM cell
// (stable across resynthesis) served as synth.<region>.calls, and a
// host counter synth.<region>.resynth counting generations.
type synthCounters struct {
	k     *Kernel
	cells map[string]uint32
}

// InvocationCell implements synth.CounterPlane.
func (s *synthCounters) InvocationCell(region string) uint32 {
	if s.cells == nil {
		s.cells = make(map[string]uint32)
	}
	if cell, ok := s.cells[region]; ok {
		return cell
	}
	cell, err := s.k.Heap.Alloc(4)
	if err != nil {
		return 0 // heap exhausted: skip instrumentation, keep running
	}
	s.k.M.Poke(cell, 4, 0)
	s.cells[region] = cell
	k := s.k
	k.Metrics.Sample("synth."+region+".calls", func() uint64 {
		return uint64(k.M.Peek(cell, 4))
	})
	return cell
}

// Resynthesized implements synth.CounterPlane.
func (s *synthCounters) Resynthesized(region string) {
	s.k.Metrics.Counter("synth." + region + ".resynth").Inc()
}
