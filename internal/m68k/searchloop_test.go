package m68k

import "testing"

// The scan and compare collapses (dispatch.go's scanLoop and cmpLoop)
// are held to the step path here with the copy loops' rig: a program
// runs one of fs_lookup's search loops over data poked for the case,
// under Run, where a hot head collapses, and under Step, where none
// does, and the two must leave the same registers, PC, SR, counters,
// memory and device accesses. A bus error halts the program.

var slForms = []struct {
	name, loop string // the form's name, and LoopAt's
	form       clForm
}{{"scan", "scan", clScan}, {"cmp.l", "compare", clCmpL}, {"cmp.b", "compare", clCmpB}}

// clSearch is the search loop of form f headed at head, then a HALT
// where it falls through and another where a compare's BNE leaves.
func clSearch(f clForm, head uint32) []Instr {
	if f == clScan {
		return []Instr{{Op: TST, Sz: 1, Src: PostInc(0)}, {Op: BNE, Dst: Abs(head)}, {Op: HALT}}
	}
	sz := uint8(4)
	if f == clCmpB {
		sz = 1
	}
	return []Instr{
		{Op: MOVE, Sz: sz, Src: PreDec(0), Dst: D(4)},
		{Op: CMP, Sz: sz, Src: PostInc(1), Dst: D(4)},
		{Op: BNE, Dst: Abs(head + 5)},
		{Op: DBRA, Src: D(3), Dst: Abs(head)},
		{Op: HALT}, {Op: HALT},
	}
}

// pokeSearch writes c's data: a scan's string at src, its bytes at or
// above 0x80 unless c.low, then its NUL; or a compare's units, the i-th
// just below src-i units and at dst+i units, equal but the differ-1'th.
func pokeSearch(m *Machine, c clCase) {
	if c.form == clScan {
		for i := range c.units {
			b := 0x81 + i%0x7e
			if c.low {
				b = 0x21 + i%0x5e
			}
			m.Poke(c.src+i, 1, b)
		}
		m.Poke(c.src+c.units, 1, 0)
		return
	}
	sz := uint32(4)
	if c.form == clCmpB {
		sz = 1
	}
	for i := range c.units {
		v := 0x80c0_e0f1 + i*0x0101_0101
		m.Poke(c.src-sz*(i+1), uint8(sz), v)
		if c.differ == i+1 {
			v ^= 1
		}
		m.Poke(c.dst+sz*i, uint8(sz), v)
	}
}

// slCases are the cases of form f: where every iteration collapses in
// one call, and where some must run singly because the data reaches a
// device window, the end of Mem or a quaspace limit (a fault halts).
func slCases(f clForm) []struct {
	clCase
	collapses, faults bool
} {
	type cs = struct {
		clCase
		collapses, faults bool
	}
	if f == clScan {
		return []cs{
			{clCase{name: "string", src: 0x1800, units: 24}, true, false},
			{clCase{name: "ASCII string", src: 0x1800, units: 24, low: true}, true, false},
			{clCase{name: "empty string", src: 0x1800}, true, false},
			{clCase{name: "across devFloor", src: clDevBase - 0x10, units: 0x40, window: true}, false, false},
			{clCase{name: "across the end of Mem", src: clMem - 0x10, units: 0x40}, false, true},
			{clCase{name: "across the quaspace limit", src: clULimit - 0x10, units: 0x40, user: true}, false, true},
			{clCase{name: "below the quaspace base", src: clUBase - 4, units: 8, user: true}, false, true},
		}
	}
	return []cs{
		{clCase{name: "equal", src: 0x1800, dst: 0x2000, units: 12}, true, false},
		{clCase{name: "one unit", src: 0x1800, dst: 0x2000, units: 1}, true, false},
		{clCase{name: "differ first", src: 0x1800, dst: 0x2000, units: 12, differ: 1}, true, false},
		{clCase{name: "differ middle", src: 0x1800, dst: 0x2000, units: 12, differ: 6}, true, false},
		{clCase{name: "differ last", src: 0x1800, dst: 0x2000, units: 12, differ: 12}, true, false},
		{clCase{name: "src down into the device window", src: clDevBase + 0x108, dst: 0x2000, units: 12, window: true}, false, false},
		{clCase{name: "dst across devFloor", src: 0x1800, dst: clDevBase - 8, units: 12, window: true}, false, false},
		{clCase{name: "dst across the end of Mem", src: 0x1800, dst: clMem - 8, units: 12}, false, true},
		{clCase{name: "src across the quaspace base", src: clUBase + 8, dst: 0x2000, units: 12, user: true}, false, true},
		{clCase{name: "dst across the quaspace limit", src: 0x1800, dst: clULimit - 8, units: 12, user: true}, false, true},
	}
}

// TestSearchLoopMatchesSteps runs each form's cases, then posts an
// interrupt at every cycle of the first case's run up to its HALT, and
// puts a bare device event due there: a horizon that cuts a scan of
// bytes at or above 0x80 leaves N set in the SR the interrupt stacks.
func TestSearchLoopMatchesSteps(t *testing.T) {
	for _, f := range slForms {
		cases := slCases(f.form)
		for _, c := range cases {
			c.form, c.name = f.form, f.name+": "+c.name
			run := clRun(t, c.clCase, nil)[0]
			m := run.m
			if c.collapses && (m.CollapsedPasses != 1 || m.CollapseFallbacks != 0) {
				t.Errorf("%s: %d calls collapsed and %d fell back, want 1 and 0", c.name, m.CollapsedPasses, m.CollapseFallbacks)
			}
			if !c.collapses && m.CollapseFallbacks == 0 {
				t.Errorf("%s: no call fell back", c.name)
			}
			if faults := m.Peek(clBusCell, 4); c.faults != (faults != 0) {
				t.Errorf("%s: %d bus errors", c.name, faults)
			}
			if c.window != (run.window.n != 0) {
				t.Errorf("%s: %d device accesses", c.name, run.window.n)
			}
		}

		c := cases[0].clCase
		c.form, c.name = f.form, f.name+": "+c.name
		if negative := clSweep(t, c); f.form == clScan && negative == 0 {
			t.Errorf("%s: no interrupt found N set", f.name)
		}
	}
}

// TestSearchLoopPatchInvalidatesHead patches each slot of a search loop
// after its head is hot so that the loop is no longer one, and wants
// what Step runs and a head that no longer collapses; then puts the
// slot back and wants it to collapse again. A compare's BNE retargeted
// keeps the loop, and the collapse must leave by the new target. A
// patch just outside the span leaves the head's translation alone.
func TestSearchLoopPatchInvalidatesHead(t *testing.T) {
	for _, f := range slForms {
		c := slCases(f.form)[0].clCase
		if f.form != clScan {
			c.differ = 6
		}
		c.form = f.form
		probe := newCopyRig(c)
		head := probe.heads[0]
		span := uint32(4)
		if f.form == clScan {
			span = 2
		}
		for slot := head; slot <= head+span; slot++ {
			var orig Instr
			retarget := slot == head+span
			if retarget && f.form == clScan {
				continue
			}
			at := slot
			if retarget {
				at = head + 2 // the BNE
			}
			c.name = f.name + ": patched " + probe.m.Code[at].String()
			if retarget {
				c.name = f.name + ": BNE retargeted"
			}
			patch := func(r *clRig) {
				orig = r.m.Code[at]
				alt := orig
				switch {
				case retarget:
					alt.Dst.Imm--
				case orig.Op == BNE:
					alt.Op = BEQ
				case orig.Op == DBRA:
					alt.Dst.Imm += 2
				default:
					alt.Sz = 2
				}
				r.m.PatchCode(at, alt)
			}
			for _, r := range clRun(t, c, patch) {
				if _, n := r.m.LoopAt(head); (n != 0) != retarget {
					t.Fatalf("%s: LoopAt reads %d bytes", c.name, n)
				}
				r.m.PatchCode(at, orig)
				r.run(t, clLoops[0].drive)
				r.m.CollapsedPasses = 0
				r.run(t, clLoops[0].drive)
				if r.m.CollapsedPasses != 1 {
					t.Errorf("%s, then put back: %d calls collapsed, want 1", c.name, r.m.CollapsedPasses)
				}
			}
		}
		r := newCopyRig(c)
		r.run(t, clLoops[0].drive)
		tr := r.m.Translations
		r.m.PatchCode(head-1, r.m.Code[head-1])
		r.m.PatchCode(head+span, r.m.Code[head+span])
		if form, n := r.m.LoopAt(head); r.m.Translations != tr || form != f.loop || n == 0 {
			t.Errorf("%s: after a patch outside the span LoopAt reads %q %d, %d retranslations", f.name, form, n, r.m.Translations-tr)
		}
	}
}
