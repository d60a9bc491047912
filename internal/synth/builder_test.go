package synth_test

import (
	"errors"
	"maps"
	"testing"

	"synthesis/internal/m68k"
	"synthesis/internal/synth"
)

// loop is a small template with a loop, a forward branch and a label
// nothing refers to.
func loop(e *synth.Emitter) {
	e.MoveL(m68k.Imm(1), m68k.D(0))
	e.Label("top").AddL(m68k.D(0), m68k.D(1))
	e.Beq("out")
	e.Label("mark").SubL(m68k.Imm(1), m68k.D(2))
	e.Bne("top")
	e.Label("out").Rts()
}

// An At build rewrites its region in place: a shorter routine over a
// longer one leaves NOPs, not the old tail, and a routine that does not
// fit panics before it writes anything. Code space does not grow.
func TestAtRebuildsInPlace(t *testing.T) {
	c := synth.NewCreator(newM())
	const size = 8
	base := c.M.AllocCode(size)
	top := c.M.CodeTop
	if got := c.Build(nil, "r").At(base, size).Emit(loop); got != base {
		t.Fatalf("At build installed at %d, want %d", got, base)
	}
	long := c.LastStats.InstrsAfter
	c.Build(nil, "r").At(base, size).Emit(func(e *synth.Emitter) { e.Rts() })
	if c.M.Code[base].Op != m68k.RTS {
		t.Fatalf("rebuilt region starts with %v", c.M.Code[base])
	}
	for i := uint32(1); i < size; i++ {
		if c.M.Code[base+i].Op != m68k.NOP {
			t.Errorf("slot %d of the region holds %v after a shorter rebuild (the first build was %d long)", i, c.M.Code[base+i], long)
		}
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("a routine longer than its region was installed")
			}
		}()
		c.Build(nil, "big").At(base, 2).Emit(loop)
	}()
	if c.M.Code[base].Op != m68k.RTS || c.M.CodeTop != top {
		t.Errorf("the refused build wrote %v at the base, code top %d -> %d", c.M.Code[base], top, c.M.CodeTop)
	}
}

// A Table build fills its cells with its labels' addresses as linked,
// after the cleanups have moved them: two builds fill two tables.
func TestTableFillsLinkedLabels(t *testing.T) {
	c := synth.NewCreator(newM())
	tmpl := func(e *synth.Emitter) {
		e.Nop() // the cleanups remove it, so every label moves up a slot
		e.Label("a")
		e.Rts()
		e.Label("b")
		e.Rts()
	}
	const t1, t2 = 0x3000, 0x3010
	r1 := c.Build(nil, "tab").Table(t1, []string{"b", "a"}).Emit(tmpl)
	r2 := c.Build(nil, "tab").Table(t2, []string{"a"}).Emit(tmpl)
	for i, want := range []uint32{r1 + 1, r1} {
		if got := c.M.Peek(t1+uint32(4*i), 4); got != want {
			t.Errorf("first table cell %d = %d, want %d", i, got, want)
		}
	}
	if got := c.M.Peek(t2, 4); r1 == r2 || got != r2 {
		t.Errorf("second build at %d (first at %d) filled its table with %d", r2, r1, got)
	}
}

// Patch rewrites one slot of installed code so the next run executes
// the new instruction, not a stale translation of the old, and with
// ChargeTime it charges the per-instruction part of the cost model and
// nothing else.
func TestPatchRewritesInstalledCode(t *testing.T) {
	c := synth.NewCreator(newM())
	entry := c.Synthesize(nil, "r", nil, func(e *synth.Emitter) {
		e.MoveL(m68k.Imm(111), m68k.D(0))
		e.Halt()
	})
	run := func() {
		t.Helper()
		c.M.ClearHalt()
		c.M.PC = entry
		if err := c.M.Run(1_000); !errors.Is(err, m68k.ErrHalted) {
			t.Fatal(err)
		}
	}
	run()
	c.ChargeTime = true
	before := c.M.Cycles
	c.Patch(entry, m68k.Instr{Op: m68k.MOVE, Sz: 4, Src: m68k.Imm(222), Dst: m68k.D(0)})
	if got := c.M.Cycles - before; got != synth.SynthPerInstrCycles {
		t.Errorf("a patch charged %d cycles, want %d", got, synth.SynthPerInstrCycles)
	}
	run()
	if c.M.D[0] != 222 {
		t.Errorf("after the patch D0 = %d, want 222 (stale translation)", c.M.D[0])
	}
}

// tally is a CounterPlane and RegionSink that counts its calls; each
// region name of a given length gets its own cell.
type tally struct {
	resynth, regions int
}

func (p *tally) InvocationCell(name string) uint32 { return 0x2000 + 4*uint32(len(name)) }
func (p *tally) Resynthesized(string)              { p.resynth++ }
func (p *tally) RegisterRegion(string, uint32, int) {
	p.regions++
}

// Account is a build without the template: the cycle clock, the
// quaject, the creator's totals and the counter plane see what the
// build made them see, and nothing is installed or registered.
func TestAccountMatchesBuild(t *testing.T) {
	c := synth.NewCreator(newM())
	c.ChargeTime = true
	var plane tally
	c.Counters, c.Regions = &plane, &plane
	q := c.NewQuaject("q")

	type account struct {
		cycles                 uint64
		stats                  synth.OptStats
		qInstrs, qBytes        int
		instrs, bytes, resynth int
		routines               int
	}
	measure := func(op func()) account {
		before := account{c.M.Cycles, synth.OptStats{}, q.Instrs, q.Bytes, c.TotalInstrs, c.TotalBytes, plane.resynth, c.Routines}
		c.LastStats = synth.OptStats{}
		op()
		return account{c.M.Cycles - before.cycles, c.LastStats,
			q.Instrs - before.qInstrs, q.Bytes - before.qBytes,
			c.TotalInstrs - before.instrs, c.TotalBytes - before.bytes, plane.resynth - before.resynth,
			c.Routines - before.routines}
	}
	var addr uint32
	built := measure(func() { addr = c.Build(q, "r").Counted().Emit(loop) })
	st := c.LastStats
	top := c.M.CodeTop
	q.Entries["r"] = 0
	again := measure(func() { c.Build(q, "r").Counted().Account(addr, st) })
	if again != built {
		t.Errorf("Account is accounted differently from the build:\n account %+v\n build   %+v", again, built)
	}
	if built.cycles == 0 || built.stats.InstrsBefore == 0 || built.qBytes == 0 || built.resynth != 1 || built.routines != 1 {
		t.Errorf("the build accounted nothing: %+v", built)
	}
	if q.Entry("r") != addr || c.M.CodeTop != top || plane.regions != 1 {
		t.Errorf("after Account: entry %d (want %d), code top %d -> %d, %d regions registered (want 1)",
			q.Entry("r"), addr, top, c.M.CodeTop, plane.regions)
	}
}

// A reopen's Account finds its quaject's entry already naming the
// routine and leaves the map alone, but is charged and counted as the
// build was each time: the creator's instructions, routines and the
// synthesis cycles on the clock.
func TestReopenLeavesEntries(t *testing.T) {
	c := synth.NewCreator(newM())
	c.ChargeTime = true
	q := c.NewQuaject("q")
	addr := c.Build(q, "r").Emit(loop)
	st := c.LastStats
	entries := maps.Clone(q.Entries)
	for range 2 {
		instrs, routines, cycles := c.TotalInstrs, c.Routines, c.M.Cycles
		c.Build(q, "r").Account(addr, st)
		if !maps.Equal(q.Entries, entries) || c.TotalInstrs-instrs != st.InstrsAfter || c.Routines-routines != 1 ||
			c.M.Cycles-cycles != synth.SynthesisCycles(st.InstrsBefore) {
			t.Errorf("a reopen: entries %v (want %v), %d instructions, %d routines and %d cycles added (want %d, 1, %d)",
				q.Entries, entries, c.TotalInstrs-instrs, c.Routines-routines, c.M.Cycles-cycles,
				st.InstrsAfter, synth.SynthesisCycles(st.InstrsBefore))
		}
	}
}

// A two-entry build (EmitEntries) is one routine with both entries,
// and a Counted routine's counter sits where the template calls Entry,
// so an entry that falls into another is counted once.
func TestTwoEntryBuilds(t *testing.T) {
	c := synth.NewCreator(newM())
	var plane tally
	c.Counters, c.Regions = &plane, &plane
	main, alt := c.Build(nil, "r").Counted().EmitEntries(func(e *synth.Emitter) {
		e.Label(synth.EntryAlt) // falls into the main entry
		e.MoveL(m68k.D(2), m68k.D(1))
		e.Entry(synth.EntryMain)
		e.MoveL(m68k.D(1), m68k.D(0))
		e.Rts()
	})
	cell := plane.InvocationCell("r")
	count := m68k.Instr{Op: m68k.ADD, Sz: 4, Src: m68k.Imm(1), Dst: m68k.Abs(cell)}
	if main != alt+1 || c.M.Code[alt].Op != m68k.MOVE || c.M.Code[main] != count {
		t.Fatalf("entries %d, %d: %v, %v; want the shuffle, then the counter at the main entry", alt, main, c.M.Code[alt], c.M.Code[main])
	}
	// Own paths: each entry counts its calls.
	m, a := c.Build(nil, "s").Counted().EmitEntries(func(e *synth.Emitter) {
		e.Entry(synth.EntryAlt)
		e.Rts()
		e.Entry(synth.EntryMain)
		e.Rts()
	})
	if c.M.Code[a].Op != m68k.ADD || c.M.Code[m].Op != m68k.ADD || m != a+2 {
		t.Errorf("own-path entries %d, %d: %v, %v; want a counter at each", a, m, c.M.Code[a], c.M.Code[m])
	}
}
