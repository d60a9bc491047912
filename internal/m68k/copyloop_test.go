package m68k

import (
	"bytes"
	"testing"
	"unsafe"
)

// The copy-loop collapse (dispatch.go's copyLoop) is held to the step
// path here: a program moving 608 bytes through kio.block_copy's two
// loops, two passes of eight groups and three of one, runs under Run,
// where hot heads collapse, and under Step, where none does, and the two
// must leave the same registers, PC, SR, counters, memory (the copy and
// the handlers' cells) and device accesses.

const (
	clMem      = 0x4000 // RAM
	clVBR      = 0x0100
	clSSP      = 0x0800 // the supervisor stack's top; the cells lie above it
	clIRQCell  = 0x0800 // count, then the sums of D0 and A1, kept by the interrupt handler
	clBusCell  = 0x0810 // count, then the sum of the stacked PCs, kept by the bus-error handler
	clDevBase  = 0x3000 // the device window, where a case attaches it: devFloor
	clUBase    = 0x1000 // the quaspace of the user-state cases
	clULimit   = 0x2400
	clIRQLevel = 5
)

// clWindow is a device window inside RAM that records its accesses.
type clWindow struct{ n, sum uint32 }

func (*clWindow) Name() string                          { return "window" }
func (*clWindow) Base() uint32                          { return clDevBase }
func (*clWindow) Size() uint32                          { return 0x100 }
func (*clWindow) Tick(uint64) (int, uint64)             { return 0, 0 }
func (w *clWindow) Load(off uint32, _ uint8) uint32     { w.n++; return 0xd00d_0000 | off }
func (w *clWindow) Store(off uint32, _ uint8, v uint32) { w.n++; w.sum += off ^ v }

// clAlarm raises level (0: none, a bare device event) once, at cycle
// at, after arm.
type clAlarm struct {
	at    uint64
	level int
	armed bool
}

func (*clAlarm) Name() string                { return "alarm" }
func (*clAlarm) Base() uint32                { return 0xffff_0000 }
func (*clAlarm) Size() uint32                { return 0 }
func (*clAlarm) Load(uint32, uint8) uint32   { return 0 }
func (*clAlarm) Store(uint32, uint8, uint32) {}
func (a *clAlarm) Tick(t uint64) (int, uint64) {
	switch {
	case !a.armed:
		return 0, 0
	case t < a.at:
		return 0, a.at
	}
	a.armed = false
	return a.level, 0
}

// clCase is where the copy runs.
type clCase struct {
	name     string
	src, dst uint32
	window   bool // the device window is attached
	user     bool // user state, inside [clUBase, clULimit)
}

// clRig is one machine holding the program, and what it ran.
type clRig struct {
	m            *Machine
	alarm        *clAlarm
	window       *clWindow
	entry        uint32
	head8, head1 uint32 // the two loop heads
	start        uint64 // Cycles when the measured run began
}

// clOutcome is what a run must leave the same under Run and Step.
type clOutcome struct {
	D, A                    [8]uint32
	PC                      uint32
	SR                      uint16
	Cycles, Instrs, MemRefs uint64
	window                  clWindow
}

func newCopyRig(c clCase) *clRig {
	m := New(Config{MemSize: clMem})
	r := &clRig{m: m, alarm: &clAlarm{}, window: &clWindow{}}
	m.Attach(r.alarm)
	if c.window {
		m.Attach(r.window)
	}
	for a := uint32(0x1000); a < clMem; a += 4 {
		m.Poke(a, 4, a*0x9e37_79b1)
	}
	m.VBR = clVBR
	handler := func(vec int, cell uint32, extra ...Instr) {
		m.Poke(clVBR+uint32(vec)*4, 4, m.Emit(append(append([]Instr{
			{Op: ADD, Src: Imm(1), Dst: Abs(cell)}}, extra...), Instr{Op: RTE})))
	}
	handler(VecAutovector+clIRQLevel, clIRQCell,
		Instr{Op: ADD, Src: D(0), Dst: Abs(clIRQCell + 4)},
		Instr{Op: ADD, Src: A(1), Dst: Abs(clIRQCell + 8)})
	handler(VecBusError, clBusCell, Instr{Op: ADD, Src: Disp(4, 7), Dst: Abs(clBusCell + 4)})

	const regs = MovemCopyRegs
	load := Instr{Op: MOVEM, Mask: regs, Dir: 1, Src: PostInc(0)}
	r.entry = m.CodeTop
	prog := []Instr{
		{Op: MOVE, Src: Imm(int32(c.src)), Dst: A(0)},
		{Op: MOVE, Src: Imm(int32(c.dst)), Dst: A(1)},
		{Op: MOVE, Src: Imm(2 - 1), Dst: D(0)},
	}
	r.head8 = r.entry + uint32(len(prog))
	for i := int32(0); i < 8; i++ {
		st := Disp(32*i, 1)
		if i == 0 {
			st = Ind(1)
		}
		prog = append(prog, load, Instr{Op: MOVEM, Mask: regs, Dst: st})
	}
	prog = append(prog,
		Instr{Op: LEA, Src: Disp(256, 1), Dst: A(1)},
		Instr{Op: DBRA, Src: D(0), Dst: Abs(r.head8)},
		Instr{Op: MOVE, Src: Imm(3 - 1), Dst: D(0)})
	r.head1 = r.entry + uint32(len(prog))
	m.Emit(append(prog, load,
		Instr{Op: MOVEM, Mask: regs, Dst: Ind(1)},
		Instr{Op: LEA, Src: Disp(32, 1), Dst: A(1)},
		Instr{Op: DBRA, Src: D(0), Dst: Abs(r.head1)},
		Instr{Op: HALT}))

	m.SR, m.A[7], m.SSP = FlagS, clSSP, clSSP
	if c.user {
		m.SR, m.A[7], m.UBase, m.ULimit = 0, clUBase, clUBase, clULimit
	}
	return r
}

// run runs the program from its entry to HALT by drive, leaving the
// machine ready to run it again.
func (r *clRig) run(t *testing.T, drive func(*Machine) error) {
	t.Helper()
	r.m.ClearHalt()
	r.m.PC = r.entry
	if err := drive(r.m); err != ErrHalted {
		t.Fatalf("the copy program ended with %v, want ErrHalted", err)
	}
}

func (r *clRig) outcome() clOutcome {
	m := r.m
	return clOutcome{m.D, m.A, m.PC, m.SR, m.Cycles, m.Instrs, m.MemRefs, *r.window}
}

var clLoops = []struct {
	name  string
	drive func(*Machine) error
}{
	{"Run", func(m *Machine) error { return m.Run(1 << 30) }},
	{"Step", func(m *Machine) error {
		for {
			if err := m.Step(); err != nil {
				return err
			}
		}
	}},
}

// clRun runs case c under both step loops, twice each (the first run
// translates every slot, so only the second meets hot heads), the
// second time after prepare, and fails on any difference. It returns
// the rigs, Run's first.
func clRun(t *testing.T, c clCase, prepare func(r *clRig)) [2]*clRig {
	t.Helper()
	var rigs [2]*clRig
	for i, d := range clLoops {
		r := newCopyRig(c)
		r.run(t, d.drive)
		r.m.CollapsedPasses, r.m.CollapseFallbacks = 0, 0
		if prepare != nil {
			prepare(r)
		}
		r.start = r.m.Cycles
		r.run(t, d.drive)
		rigs[i] = r
	}
	run, step := rigs[0], rigs[1]
	if got, want := run.outcome(), step.outcome(); got != want {
		t.Fatalf("%s: Run differs from Step:\n got %+v\nwant %+v", c.name, got, want)
	}
	if !bytes.Equal(run.m.Mem, step.m.Mem) {
		for a := 0; ; a += 4 {
			if x, y := run.m.Peek(uint32(a), 4), step.m.Peek(uint32(a), 4); x != y {
				t.Fatalf("%s: memory at %#x is %08x under Run and %08x under Step", c.name, a, x, y)
			}
		}
	}
	if step.m.CollapsedPasses != 0 {
		t.Fatalf("%s: Step collapsed %d passes", c.name, step.m.CollapsedPasses)
	}
	return rigs
}

// TestCopyLoopMatchesSteps runs the copy program where a pass collapses
// (apart and adjacent blocks), where it must not because a block
// straddles devFloor, the end of Mem or the quaspace limit (and a group
// faults on the same instruction both ways) or the blocks overlap, and
// then with an interrupt posted at every cycle of the run up to its
// HALT, across both eight-group passes, and with a bare device event due
// there.
func TestCopyLoopMatchesSteps(t *testing.T) {
	for _, c := range []struct {
		clCase
		collapses, faults bool
	}{
		{clCase{name: "apart", src: 0x1000, dst: 0x2000}, true, false},
		{clCase{name: "adjacent", src: 0x1000, dst: 0x1100}, true, false},
		{clCase{name: "dst across devFloor", src: 0x1000, dst: clDevBase - 0x90, window: true}, false, false},
		{clCase{name: "src across devFloor", src: clDevBase - 0x90, dst: 0x1000, window: true}, false, false},
		{clCase{name: "dst across the end of Mem", src: 0x1000, dst: clMem - 0x90}, false, true},
		{clCase{name: "src across the end of Mem", src: clMem - 0x90, dst: 0x1000}, false, true},
		{clCase{name: "dst across the quaspace limit", src: 0x1000, dst: clULimit - 0x90, user: true}, false, true},
		{clCase{name: "src across the quaspace limit", src: clULimit - 0x90, dst: 0x1000, user: true}, false, true},
		{clCase{name: "overlapping, dst above", src: 0x1000, dst: 0x1040}, false, false},
		{clCase{name: "overlapping, dst below", src: 0x1040, dst: 0x1000}, false, false},
	} {
		run := clRun(t, c.clCase, nil)[0]
		m := run.m
		if c.collapses && (m.CollapsedPasses != 5 || m.CollapseFallbacks != 0) {
			t.Errorf("%s: %d passes collapsed and %d fell back, want 5 and 0", c.name, m.CollapsedPasses, m.CollapseFallbacks)
		}
		if !c.collapses && m.CollapseFallbacks == 0 {
			t.Errorf("%s: no pass fell back", c.name)
		}
		if faults := m.Peek(clBusCell, 4); c.faults != (faults != 0) {
			t.Errorf("%s: %d bus errors", c.name, faults)
		}
		if c.window != (run.window.n != 0) {
			t.Errorf("%s: %d device accesses", c.name, run.window.n)
		}
	}

	apart := clCase{name: "apart", src: 0x1000, dst: 0x2000}
	ref := clRun(t, apart, nil)[0]
	span := ref.m.Cycles - ref.start // the whole measured run
	var collapsed, fellBack, taken uint64
	for _, level := range []int{clIRQLevel, 0} {
		for at := uint64(0); at+2 <= span; at++ { // due before the HALT
			rigs := clRun(t, apart, func(r *clRig) {
				r.alarm.at, r.alarm.level, r.alarm.armed = r.m.Cycles+at, level, true
				r.m.Kick(r.alarm)
			})
			collapsed += rigs[0].m.CollapsedPasses
			fellBack += rigs[0].m.CollapseFallbacks
			taken += uint64(rigs[0].m.Peek(clIRQCell, 4))
		}
	}
	if collapsed == 0 || fellBack == 0 || taken != span-1 {
		t.Errorf("over the sweep %d passes collapsed, %d fell back and %d interrupts were taken; want some, some and %d",
			collapsed, fellBack, taken, span-1)
	}
}

// TestCopyLoopPatchInvalidatesHead patches each slot of the eight-group
// loop's span after its head is hot, runs the program again and wants
// what Step runs; then puts the slot back and wants the head to collapse
// again. A patch outside the span leaves the head's translation alone.
func TestCopyLoopPatchInvalidatesHead(t *testing.T) {
	apart := clCase{name: "apart", src: 0x1000, dst: 0x2000}
	probe := newCopyRig(apart)
	for slot := probe.head8; slot < probe.head8+18; slot++ {
		c := apart
		c.name = "patched " + probe.m.Code[slot].String()
		var orig Instr
		patch := func(r *clRig) {
			orig = r.m.Code[slot]
			alt := orig
			switch orig.Op {
			case MOVEM:
				alt.Mask &^= 1 << 3 // D3 left out
			case LEA:
				alt.Src.Imm += 32
			case DBRA:
				alt.Dst.Imm += 2 // back to the second group
			}
			r.m.PatchCode(slot, alt)
		}
		for _, r := range clRun(t, c, patch) {
			if r.m.CopyLoopAt(r.head8) != 0 {
				t.Fatalf("%s: the head still collapses", c.name)
			}
			r.m.PatchCode(slot, orig)
			r.run(t, clLoops[0].drive)
			r.m.CollapsedPasses = 0
			r.run(t, clLoops[0].drive)
			if r.m.CollapsedPasses != 5 {
				t.Errorf("%s, then put back: %d passes collapsed, want 5", c.name, r.m.CollapsedPasses)
			}
		}
	}
	// The slots just before and just after the span.
	r := newCopyRig(apart)
	r.run(t, clLoops[0].drive)
	tr := r.m.Translations
	r.m.PatchCode(r.head8-1, r.m.Code[r.head8-1])
	r.m.PatchCode(r.head8+18, r.m.Code[r.head8+18])
	if r.m.CopyLoopAt(r.head8) != 8 || r.m.CopyLoopAt(r.head1) != 1 || r.m.Translations != tr {
		t.Error("a patch outside the span retranslated its head")
	}
}

// TestStepRunsOneInstructionPastAHotHead: a Step after a Run, which
// leaves its horizon behind, runs a hot head as one instruction.
func TestStepRunsOneInstructionPastAHotHead(t *testing.T) {
	r := newCopyRig(clCase{name: "apart", src: 0x1000, dst: 0x2000})
	r.run(t, clLoops[0].drive)
	r.run(t, clLoops[0].drive)
	if r.m.CollapsedPasses == 0 {
		t.Fatal("nothing collapsed")
	}
	r.m.ClearHalt()
	r.m.PC = r.entry
	for r.m.PC != r.head8+1 {
		i0 := r.m.Instrs
		if err := r.m.Step(); err != nil {
			t.Fatal(err)
		}
		if r.m.Instrs != i0+1 {
			t.Fatalf("a Step at the copy program ran %d instructions", r.m.Instrs-i0)
		}
	}
}

// TestXentSize: a translation cache line stays 24 bytes, the collapsed
// span in what would be padding.
func TestXentSize(t *testing.T) {
	if n := unsafe.Sizeof(xent{}); n != 24 {
		t.Errorf("xent is %d bytes, want 24", n)
	}
}

// TestCopyLoopShapes: a head collapses only the loop copyLoopShape
// describes, with its three registers apart from each other and from
// the eight the groups load.
func TestCopyLoopShapes(t *testing.T) {
	for _, c := range []struct {
		name       string
		an, am, dn uint8
		groups     int
		first      Operand // the first store's destination; (Am) when none
		lea        int32   // the LEA's displacement; 32 × groups when 0
		back       uint32  // added to the DBRA's target
		want       int
	}{
		{name: "kio.block_copy's pass", an: 0, am: 1, dn: 0, groups: 8, want: 8},
		{name: "its leftover loop", an: 0, am: 1, dn: 0, groups: 1, want: 1},
		{name: "three groups, 0(Am) first", an: 2, am: 6, dn: 2, groups: 3, first: Disp(0, 6), want: 3},
		{name: "nine groups", an: 0, am: 1, dn: 0, groups: 9},
		{name: "An is Am", an: 1, am: 1, dn: 0, groups: 8},
		{name: "An loaded", an: 3, am: 1, dn: 0, groups: 8},
		{name: "Am loaded", an: 0, am: 5, dn: 0, groups: 8},
		{name: "Dn loaded", an: 0, am: 1, dn: 4, groups: 8},
		{name: "LEA short of the pass", an: 0, am: 1, dn: 0, groups: 8, lea: 224},
		{name: "DBRA past the head", an: 0, am: 1, dn: 0, groups: 8, back: 2},
	} {
		m := New(Config{MemSize: 0x1000})
		head := m.CodeTop
		var prog []Instr
		for i := int32(0); i < int32(c.groups); i++ {
			st := Disp(32*i, c.am)
			if i == 0 {
				st = Ind(c.am)
				if c.first.Mode != ModeNone {
					st = c.first
				}
			}
			prog = append(prog,
				Instr{Op: MOVEM, Mask: MovemCopyRegs, Dir: 1, Src: PostInc(c.an)},
				Instr{Op: MOVEM, Mask: MovemCopyRegs, Dst: st})
		}
		lea := c.lea
		if lea == 0 {
			lea = 32 * int32(c.groups)
		}
		m.Emit(append(prog,
			Instr{Op: LEA, Src: Disp(lea, c.am), Dst: A(c.am)},
			Instr{Op: DBRA, Src: D(c.dn), Dst: Abs(head + c.back)}))
		if got := m.CopyLoopAt(head); got != c.want {
			t.Errorf("%s: the head collapses %d groups, want %d", c.name, got, c.want)
		}
	}
}
