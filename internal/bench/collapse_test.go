package bench

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"testing"

	"synthesis/internal/asmkit"
	"synthesis/internal/kernel"
	"synthesis/internal/m68k"
)

// nopProbe is a Probe that records nothing: armed, it sends every
// instruction through Step, where no loop collapses.
type nopProbe struct{}

func (nopProbe) StepDone(uint32, uint64, uint64, bool)   {}
func (nopProbe) ExceptionTaken(int, uint32, uint64)      {}
func (nopProbe) InterruptTaken(int, int, uint64, uint64) {}
func (nopProbe) Charged(uint64, string)                  {}

// TestCollapsedRunMatchesSteps runs every benchmark program twice, each
// time on a fresh Synthesis rig: under plain Run, where the dispatcher
// collapses the copy, scan and compare loops it recognizes, and with a
// Probe armed, where every instruction is one Step. Both runs must leave
// the same clock, counters, marks, registers and memory. The golden
// tables compare only their µs rows; this pins the whole machine for
// every collapse. An open-close program must also collapse at least its
// name lookup's scan and compare on each open. The endless programs
// loop forever, so every program runs to the same cycle budget or its
// exit.
func TestCollapsedRunMatchesSteps(t *testing.T) {
	const iters, budget = 8, 5_000_000
	for _, p := range programs {
		name := p.name
		loops := min(p.loops, iters)
		var ms [2]*m68k.Machine
		var errs [2]string
		for i, probe := range []m68k.Probe{nil, nopProbe{}} {
			r := NewSynthRig(kernel.Config{})
			r.K.M.Probe = probe
			b := asmkit.New()
			p.build(b, loops)
			errs[i] = fmt.Sprint(r.Run(b.Link(r.K.M), budget))
			ms[i] = r.K.M
		}
		run, step := ms[0], ms[1]
		if errs[0] != errs[1] || !p.endless && (errs[0] != "<nil>" || len(run.Marks) == 0) {
			t.Fatalf("%s: Run ended with %s and Step with %s after %d marks; want both to exit after marking",
				name, errs[0], errs[1], len(run.Marks))
		}
		type state struct {
			Cycles, Instrs, MemRefs uint64
			D, A                    [8]uint32
			PC, USP, SSP            uint32
			SR                      uint16
		}
		of := func(m *m68k.Machine) state {
			return state{m.Cycles, m.Instrs, m.MemRefs, m.D, m.A, m.PC, m.USP, m.SSP, m.SR}
		}
		if got, want := of(run), of(step); got != want {
			t.Errorf("%s: Run differs from Step:\n got %+v\nwant %+v", name, got, want)
		}
		if !slices.Equal(run.Marks, step.Marks) {
			t.Errorf("%s: marks %v under Run, %v under Step", name, run.Marks, step.Marks)
		}
		if !bytes.Equal(run.Mem, step.Mem) {
			i := 0
			for run.Mem[i] == step.Mem[i] {
				i++
			}
			t.Errorf("%s: memory at %#x is %#02x under Run and %#02x under Step", name, i, run.Mem[i], step.Mem[i])
		}
		if step.CollapsedPasses != 0 {
			t.Errorf("%s: %d passes collapsed under Step", name, step.CollapsedPasses)
		}
		if strings.HasPrefix(name, "open-close") {
			if run.CollapsedPasses < 2*uint64(loops) {
				t.Errorf("%s: %d passes collapsed over %d opens, want at least 2 an open", name, run.CollapsedPasses, loops)
			}
		}
		t.Logf("%-16s %d passes collapsed, %d fell back, %d instructions", name, run.CollapsedPasses, run.CollapseFallbacks, run.Instrs)
	}
}
