package m68k

import (
	"bytes"
	"slices"
	"testing"
	"unsafe"
)

// The copy-loop collapse (dispatch.go's copyLoop) is held to the step
// path here, in each of the three forms kio emits: a program moving 608
// bytes through kio.block_copy's two loops, two passes of eight groups
// and three of one, or 160 bytes in five passes of emitCopy's summing or
// long form, runs under Run, where hot heads collapse, and under Step,
// where none does, and the two must leave the same registers, PC, SR,
// counters, memory (the copy and the handlers' cells) and device
// accesses.

const (
	clMem      = 0x4000 // RAM
	clVBR      = 0x0100
	clSSP      = 0x0800 // the supervisor stack's top; the cells lie above it
	clIRQCell  = 0x0800 // count, then the sums of D0, A1, A0, D3, D4 and the stacked SR, kept by the interrupt handler
	clBusCell  = 0x0820 // count, then the sum of the stacked PCs, kept by the bus-error handler
	clDevBase  = IOBase // the device window, where a case attaches it
	clUBase    = 0x1000 // the quaspace of the user-state cases
	clULimit   = 0x2400
	clIRQLevel = 5
)

// clForm is one of the copy loops kio emits.
type clForm int

const (
	clMovem clForm = iota // kio.block_copy's: MOVEM groups, a LEA and a DBRA
	clSum                 // emitCopy's summing pass: one MOVEM group added into Ds, a LEA and a DBRA
	clLong                // emitCopy's long pass: eight MOVE.L (An)+,(Am)+ and a DBRA
	clScan                // fs_lookup's strlen: TST.B (A0)+ and a BNE back
	clCmpL                // fs_lookup's long compare: MOVE.L -(A0),D4, CMP.L (A1)+,D4, BNE and DBRA D3
)

var clForms = []struct {
	name string
	form clForm
}{{"movem", clMovem}, {"sum", clSum}, {"long", clLong}}

// clPass is a pass of form f headed at head, from (An)+ to (Am), counted
// in Dn; the summing form adds into Ds and a MOVEM pass moves groups.
func clPass(f clForm, head uint32, groups int32, an, am, dn, ds uint8) []Instr {
	if f == clLong {
		return append(slices.Repeat([]Instr{{Op: MOVE, Sz: 4, Src: PostInc(an), Dst: PostInc(am)}}, 8),
			Instr{Op: DBRA, Src: D(dn), Dst: Abs(head)})
	}
	var p []Instr
	for i := int32(0); i < groups; i++ {
		st := Disp(32*i, am)
		if i == 0 {
			st = Ind(am)
		}
		p = append(p,
			Instr{Op: MOVEM, Mask: MovemCopyRegs, Dir: 1, Src: PostInc(an)},
			Instr{Op: MOVEM, Mask: MovemCopyRegs, Dst: st})
	}
	if f == clSum {
		for _, r := range []Operand{D(3), D(4), D(5), D(6), D(7), A(3), A(4), A(5)} {
			p = append(p, Instr{Op: ADD, Sz: 4, Src: r, Dst: D(ds)})
		}
	}
	return append(p,
		Instr{Op: LEA, Src: Disp(32*groups, am), Dst: A(am)},
		Instr{Op: DBRA, Src: D(dn), Dst: Abs(head)})
}

// clWindow is a device window that records its accesses.
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

// clCase is what the copy runs and where.
type clCase struct {
	name     string
	form     clForm
	src, dst uint32
	window   bool // the device window is attached
	user     bool // user state, inside [clUBase, clULimit)
	// payload: the source's last long is last, and D2 holds old just
	// before the summing form adds it
	payload   bool
	last, old uint32
	// a search: a scan's nonzero bytes before the NUL, or a compare's
	// units from src down and dst up, of which the differ-1'th differs
	units, differ uint32
	low           bool // a scan's bytes are below 0x80
}

// clRig is one machine holding the program, and what it ran.
type clRig struct {
	m      *Machine
	alarm  *clAlarm
	window *clWindow
	entry  uint32
	heads  []uint32 // the loop heads, kio.block_copy's pass of eight groups first
	start  uint64   // Cycles when the measured run began
	user   bool     // each run starts in user state
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
	r := &clRig{m: m, alarm: &clAlarm{}, window: &clWindow{}, user: c.user}
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
	var irq []Instr
	for i, r := range []Operand{D(0), A(1), A(0), D(3), D(4), Ind(7)} {
		irq = append(irq, Instr{Op: ADD, Src: r, Dst: Abs(clIRQCell + 4 + 4*uint32(i))})
	}
	handler(VecAutovector+clIRQLevel, clIRQCell, irq...)
	bus := []Instr{{Op: ADD, Src: Disp(4, 7), Dst: Abs(clBusCell + 4)}}
	if c.form >= clScan { // a search that faults would fault again at each retry
		bus = append(bus, Instr{Op: HALT})
	}
	handler(VecBusError, clBusCell, bus...)

	n, sum := uint32(5*32), uint32(0) // the bytes copied; D2 before the summing form's first add
	if c.form == clMovem {
		n = 608
	}
	if c.payload {
		m.Poke(c.src+n-4, 4, c.last)
		sum = c.old
		for a := c.src; a < c.src+n-4; a += 4 {
			sum -= m.Peek(a, 4)
		}
	}
	if c.form >= clScan {
		pokeSearch(m, c)
	}
	r.entry = m.CodeTop
	prog := []Instr{
		{Op: MOVE, Src: Imm(int32(c.src)), Dst: A(0)},
		{Op: MOVE, Src: Imm(int32(c.dst)), Dst: A(1)},
		{Op: MOVE, Src: Imm(int32(sum)), Dst: D(2)},
		{Op: MOVE, Src: Imm(-1), Dst: D(1)},
		{Op: ADD, Src: Imm(1), Dst: D(1)}, // X set, for the long form to keep
	}
	if c.form >= clScan {
		head := r.entry + uint32(len(prog)) + 2
		r.heads = []uint32{head}
		prog = append(prog,
			Instr{Op: MOVE, Src: Imm(int32(c.units) - 1), Dst: D(3)},
			Instr{Op: MOVE, Src: Imm(0x1234_5678), Dst: D(4)})
		prog = append(prog, clSearch(c.form, head)...)
	}
	loop := func(passes, groups int32) {
		prog = append(prog, Instr{Op: MOVE, Src: Imm(passes - 1), Dst: D(0)})
		head := r.entry + uint32(len(prog))
		r.heads = append(r.heads, head)
		prog = append(prog, clPass(c.form, head, groups, 0, 1, 0, 2)...)
	}
	switch {
	case c.form == clMovem:
		loop(2, 8)
		loop(3, 1)
	case c.form < clScan:
		loop(5, 1)
	}
	m.Emit(append(prog, Instr{Op: HALT}))

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
	if r.user { // a search's bus error halted in supervisor state
		r.m.SR, r.m.A[7], r.m.SSP = 0, clUBase, clSSP
	}
	if err := drive(r.m); err != ErrHalted {
		t.Fatalf("the copy program ended with %v, want ErrHalted", err)
	}
}

// loopBytes is what LoopAt reports a collapsed head moves a pass.
func loopBytes(m *Machine, pc uint32) int {
	_, n := m.LoopAt(pc)
	return n
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

// TestCopyLoopMatchesSteps runs the copy program in each form where a
// pass collapses (apart and adjacent blocks), where it must not because
// a block straddles the end of Mem or the quaspace limit (and
// a pass faults on the same instruction both ways) or the blocks
// overlap, and with payloads that leave each of X and C, V, Z and N set
// and clear after the summing form's last add, and the long form's last
// long zero, negative and positive. Then it posts an interrupt at every
// cycle of the run up to its HALT, across every pass, and puts a bare
// device event due there.
func TestCopyLoopMatchesSteps(t *testing.T) {
	const xnzvc = FlagX | FlagN | FlagZ | FlagV | FlagC
	for _, f := range clForms {
		adjacent := uint32(0x20) // a pass's length
		if f.form == clMovem {
			adjacent = 0x100
		}
		cases := []struct {
			clCase
			collapses, faults bool
			flags             uint16 // X, N, Z, V and C at the HALT, with a payload
		}{
			{clCase{name: "apart", src: 0x1000, dst: 0x2000}, true, false, 0},
			{clCase{name: "adjacent", src: 0x1000, dst: 0x1000 + adjacent}, true, false, 0},
			{clCase{name: "dst across the end of Mem", src: 0x1000, dst: clMem - 0x90}, false, true, 0},
			{clCase{name: "src across the end of Mem", src: clMem - 0x90, dst: 0x1000}, false, true, 0},
			{clCase{name: "dst across the quaspace limit", src: 0x1000, dst: clULimit - 0x90, user: true}, false, true, 0},
			{clCase{name: "src across the quaspace limit", src: clULimit - 0x90, dst: 0x1000, user: true}, false, true, 0},
			{clCase{name: "overlapping, dst above", src: 0x1000, dst: 0x1010}, false, false, 0},
			{clCase{name: "overlapping, dst below", src: 0x1010, dst: 0x1000}, false, false, 0},
		}
		payload := func(name string, last, old uint32, flags uint16) {
			cases = append(cases, struct {
				clCase
				collapses, faults bool
				flags             uint16
			}{clCase{name: name, src: 0x1000, dst: 0x2000, payload: true, last: last, old: old}, true, false, flags})
		}
		switch f.form {
		case clSum:
			payload("no flag", 1, 1, 0)
			payload("N and V", 1, 0x7fff_ffff, FlagN|FlagV)
			payload("X and C", 2, 0xffff_ffff, FlagX|FlagC)
			payload("X, Z, V and C", 0x8000_0000, 0x8000_0000, FlagX|FlagZ|FlagV|FlagC)
			payload("N", 1, 0xffff_fff0, FlagN)
		case clLong: // the prologue's add leaves X set, and a MOVE keeps it
			payload("last long zero", 0, 0, FlagX|FlagZ)
			payload("last long negative", 0x8000_0000, 0, FlagX|FlagN)
			payload("last long positive", 5, 0, FlagX)
		}
		for _, c := range cases {
			c.form, c.name = f.form, f.name+": "+c.name
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
			if c.payload && m.SR&xnzvc != c.flags {
				t.Errorf("%s: the flags are %05b, want %05b", c.name, m.SR&xnzvc, c.flags)
			}
		}

		clSweep(t, clCase{name: f.name + ": apart", form: f.form, src: 0x1000, dst: 0x2000})
	}
}

// clSweep runs case c with an interrupt due at every cycle of its
// measured run up to its HALT, then with a bare device event due there,
// and wants some calls to collapse, some to fall back and every
// interrupt taken. It returns how many interrupts found N set in the
// SR they stacked.
func clSweep(t *testing.T, c clCase) (negative uint64) {
	t.Helper()
	ref := clRun(t, c, nil)[0]
	span := ref.m.Cycles - ref.start // the whole measured run
	var collapsed, fellBack, taken uint64
	for _, level := range []int{clIRQLevel, 0} {
		for at := uint64(0); at+2 <= span; at++ { // due before the HALT
			rigs := clRun(t, c, func(r *clRig) {
				r.alarm.at, r.alarm.level, r.alarm.armed = r.m.Cycles+at, level, true
				r.m.Kick(r.alarm)
			})
			collapsed += rigs[0].m.CollapsedPasses
			fellBack += rigs[0].m.CollapseFallbacks
			taken += uint64(rigs[0].m.Peek(clIRQCell, 4))
			negative += uint64(rigs[0].m.Peek(clIRQCell+24, 4) & uint32(FlagN) >> 3)
		}
	}
	if collapsed == 0 || fellBack == 0 || taken != span-1 {
		t.Errorf("%s: over the sweep %d calls collapsed, %d fell back and %d interrupts were taken; want some, some and %d",
			c.name, collapsed, fellBack, taken, span-1)
	}
	return negative
}

// TestCopyLoopPatchInvalidatesHead patches each slot of the first loop's
// span in each form after its head is hot, runs the program again and
// wants what Step runs; then puts the slot back and wants the head to
// collapse again. A patch outside the span leaves the head's translation
// alone.
func TestCopyLoopPatchInvalidatesHead(t *testing.T) {
	for _, f := range clForms {
		apart := clCase{name: f.name, form: f.form, src: 0x1000, dst: 0x2000}
		probe := newCopyRig(apart)
		head := probe.heads[0]
		groups, want := int32(1), []int{32} // the bytes a pass of each loop moves
		if f.form == clMovem {
			groups, want = 8, []int{256, 32}
		}
		span := uint32(len(clPass(f.form, head, groups, 0, 1, 0, 2)))
		for slot := head; slot < head+span; slot++ {
			c := apart
			c.name = f.name + ": patched " + probe.m.Code[slot].String()
			var orig Instr
			patch := func(r *clRig) {
				orig = r.m.Code[slot]
				alt := orig
				switch orig.Op {
				case MOVEM:
					alt.Mask &^= 1 << 3 // D3 left out
				case ADD, MOVE:
					alt.Sz = 2
				case LEA:
					alt.Src.Imm += 32
				case DBRA:
					alt.Dst.Imm += 2 // back to the second group or long
				}
				r.m.PatchCode(slot, alt)
			}
			for _, r := range clRun(t, c, patch) {
				if loopBytes(r.m, head) != 0 {
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
		var bytes []int
		for _, h := range r.heads {
			bytes = append(bytes, loopBytes(r.m, h))
		}
		tr := r.m.Translations
		r.m.PatchCode(head-1, r.m.Code[head-1])
		r.m.PatchCode(head+span, r.m.Code[head+span])
		for i, h := range r.heads {
			if loopBytes(r.m, h) != bytes[i] || r.m.Translations != tr {
				t.Errorf("%s: a patch outside the span retranslated its head", f.name)
			}
		}
		if !slices.Equal(bytes, want) {
			t.Errorf("%s: the heads move %v bytes a pass, want %v", f.name, bytes, want)
		}
	}
}

// TestStepRunsOneInstructionPastAHotHead: a Step after a Run, which
// leaves its horizon behind, runs a hot head as one instruction.
func TestStepRunsOneInstructionPastAHotHead(t *testing.T) {
	var cases []clCase
	for _, f := range clForms {
		cases = append(cases, clCase{name: f.name, form: f.form, src: 0x1000, dst: 0x2000})
	}
	for _, f := range slForms {
		c := slCases(f.form)[0].clCase
		c.name, c.form = f.name, f.form
		cases = append(cases, c)
	}
	for _, f := range cases {
		r := newCopyRig(f)
		r.run(t, clLoops[0].drive)
		r.run(t, clLoops[0].drive)
		if r.m.CollapsedPasses == 0 {
			t.Fatalf("%s: nothing collapsed", f.name)
		}
		r.m.ClearHalt()
		r.m.PC = r.entry
		for r.m.PC != r.heads[0]+1 {
			i0 := r.m.Instrs
			if err := r.m.Step(); err != nil {
				t.Fatal(err)
			}
			if r.m.Instrs != i0+1 {
				t.Fatalf("%s: a Step at the copy program ran %d instructions", f.name, r.m.Instrs-i0)
			}
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

// TestCopyLoopShapes: a head collapses only the loops loopAt
// describes, with a MOVEM pass's registers apart from each other and
// from the eight its groups load, the summing form's adds long and in
// memory order, a byte TST, and a long compare whose CMP matches its
// MOVE, with An apart from Am and Ds from Dn.
func TestCopyLoopShapes(t *testing.T) {
	swap := func(i, j int) func([]Instr) {
		return func(p []Instr) { p[i], p[j] = p[j], p[i] }
	}
	for _, c := range []struct {
		name           string
		form           clForm
		an, am, dn, ds uint8
		groups         int32
		edit           func([]Instr) // applied to the pass before it is emitted
		want           int           // bytes a pass
	}{
		{name: "kio.block_copy's pass", am: 1, groups: 8, want: 256},
		{name: "its leftover loop", am: 1, groups: 1, want: 32},
		{name: "three groups, 0(Am) first", an: 2, am: 6, dn: 2, groups: 3,
			edit: func(p []Instr) { p[1].Dst = Disp(0, 6) }, want: 96},
		{name: "emitCopy's summing pass", form: clSum, am: 1, ds: 2, groups: 1, want: 32},
		{name: "emitCopy's long pass", form: clLong, am: 1, want: 32},
		{name: "a long pass of size 0", form: clLong, am: 1,
			edit: func(p []Instr) { p[0].Sz = 0 }, want: 32},
		{name: "nine groups", am: 1, groups: 9},
		{name: "An is Am", an: 1, am: 1, groups: 8},
		{name: "An loaded", an: 3, am: 1, groups: 8},
		{name: "Am loaded", am: 5, groups: 8},
		{name: "Dn loaded", am: 1, dn: 4, groups: 8},
		{name: "LEA short of the pass", am: 1, groups: 8, edit: func(p []Instr) { p[16].Src.Imm = 224 }},
		{name: "DBRA past the head", am: 1, groups: 8, edit: func(p []Instr) { p[17].Dst.Imm += 2 }},
		{name: "summing: Ds loaded", form: clSum, am: 1, ds: 3, groups: 1},
		{name: "summing: Ds is Dn", form: clSum, am: 1, ds: 0, groups: 1},
		{name: "summing: An is Am", form: clSum, an: 1, am: 1, ds: 2, groups: 1},
		{name: "summing: an ADD.W", form: clSum, am: 1, ds: 2, groups: 1, edit: func(p []Instr) { p[5].Sz = 2 }},
		{name: "summing: A3 added before D7", form: clSum, am: 1, ds: 2, groups: 1, edit: swap(6, 7)},
		{name: "summing: two groups", form: clSum, am: 1, ds: 2, groups: 2},
		{name: "summing: DBRA past the head", form: clSum, am: 1, ds: 2, groups: 1, edit: func(p []Instr) { p[11].Dst.Imm += 2 }},
		{name: "long: An is Am", form: clLong, an: 1, am: 1},
		{name: "long: a MOVE.W", form: clLong, am: 1, edit: func(p []Instr) { p[3].Sz = 2 }},
		{name: "long: another register", form: clLong, am: 1, edit: func(p []Instr) { p[7].Dst.Reg = 2 }},
		{name: "long: DBRA past the head", form: clLong, am: 1, edit: func(p []Instr) { p[8].Dst.Imm += 2 }},
		{name: "fs_lookup's scan", form: clScan, want: 1},
		{name: "scan: a TST.W", form: clScan, edit: func(p []Instr) { p[0].Sz = 2 }},
		{name: "scan: a TST.L", form: clScan, edit: func(p []Instr) { p[0].Sz = 4 }},
		{name: "scan: a TST.B (A0)", form: clScan, edit: func(p []Instr) { p[0].Src = Ind(0) }},
		{name: "scan: a BEQ", form: clScan, edit: func(p []Instr) { p[1].Op = BEQ }},
		{name: "scan: BNE past the head", form: clScan, edit: func(p []Instr) { p[1].Dst.Imm++ }},
		{name: "fs_lookup's long compare", form: clCmpL, want: 4},
		{name: "a byte compare", form: clCmpL, edit: func(p []Instr) { p[0].Sz, p[1].Sz = 1, 1 }},
		{name: "a compare of size 0", form: clCmpL, edit: func(p []Instr) { p[0].Sz, p[1].Sz = 0, 0 }, want: 4},
		{name: "a word compare", form: clCmpL, edit: func(p []Instr) { p[0].Sz, p[1].Sz = 2, 2 }},
		{name: "compare: CMP.B after MOVE.L", form: clCmpL, edit: func(p []Instr) { p[1].Sz = 1 }},
		{name: "compare: An is Am", form: clCmpL, edit: func(p []Instr) { p[1].Src.Reg = 0 }},
		{name: "compare: Ds is Dn", form: clCmpL, edit: func(p []Instr) { p[3].Src = D(4) }},
		{name: "compare: CMP into another register", form: clCmpL, edit: func(p []Instr) { p[1].Dst = D(5) }},
		{name: "compare: MOVE from (A0)", form: clCmpL, edit: func(p []Instr) { p[0].Src = Ind(0) }},
		{name: "compare: a BEQ out", form: clCmpL, edit: func(p []Instr) { p[2].Op = BEQ }},
		{name: "compare: DBRA past the head", form: clCmpL, edit: func(p []Instr) { p[3].Dst.Imm += 2 }},
	} {
		m := New(Config{MemSize: 0x1000})
		head := m.CodeTop
		p := clPass(c.form, head, c.groups, c.an, c.am, c.dn, c.ds)
		if c.form >= clScan {
			p = clSearch(c.form, head)
		}
		if c.edit != nil {
			c.edit(p)
		}
		m.Emit(p)
		if got := loopBytes(m, head); got != c.want {
			t.Errorf("%s: the head collapses %d bytes a pass, want %d", c.name, got, c.want)
		}
	}
}
