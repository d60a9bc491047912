package synth_test

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"synthesis/internal/m68k"
	"synthesis/internal/synth"
)

// The synthesis cache must be invisible except in code-space growth:
// equal programs share one address, programs that differ in anything
// the optimizer or the linker reads do not, and a hit is accounted
// like a miss. A build that declares a key (Builder.Key) is the same
// build found sooner: a keyed hit runs no template.

// shape is the template the soundness tests vary one property at a
// time: a loop with a forward branch and one label nothing refers to.
type shape struct {
	imm    int32  // an immediate
	mark   int    // the instruction the unreferenced label marks
	target string // where the forward branch goes
	swap   bool   // the add's operands exchanged
}

var base = shape{imm: 1, mark: 1, target: "out"}

func (s shape) emit(e *synth.Emitter) {
	src, dst := m68k.D(0), m68k.D(1)
	if s.swap {
		src, dst = dst, src
	}
	body := []func(){
		func() { e.MoveL(m68k.Imm(s.imm), m68k.D(0)) },
		func() { e.Label("top").AddL(src, dst) },
		func() { e.Beq(s.target) },
		func() { e.SubL(m68k.Imm(1), m68k.D(2)) },
		func() { e.Bne("top") },
		func() { e.Label("out").Rts() },
	}
	for i, step := range body {
		if i == s.mark {
			e.Label("mark")
		}
		step()
	}
}

func cacheBase(e *synth.Emitter) { base.emit(e) }

func TestCacheSharesEqualPrograms(t *testing.T) {
	c := synth.NewCreator(newM())
	a1 := c.Synthesize(nil, "a", nil, cacheBase)
	top := c.M.CodeTop
	a2 := c.Synthesize(c.NewQuaject("other"), "b", nil, cacheBase)
	// Label, entry and quaject names are not part of the program.
	a3 := c.Synthesize(nil, "c", nil, func(e *synth.Emitter) {
		e.MoveL(m68k.Imm(1), m68k.D(0))
		e.Label("again").Label("unused")
		e.AddL(m68k.D(0), m68k.D(1))
		e.Beq("done")
		e.SubL(m68k.Imm(1), m68k.D(2))
		e.Bne("again")
		e.Label("done")
		e.Rts()
	})
	if a2 != a1 || a3 != a1 {
		t.Errorf("equal programs installed at %d, %d, %d", a1, a2, a3)
	}
	if c.CacheHits != 2 || c.CacheMisses != 1 || c.CacheEntries() != 1 {
		t.Errorf("hits %d misses %d entries %d, want 2 1 1", c.CacheHits, c.CacheMisses, c.CacheEntries())
	}
	if c.M.CodeTop != top {
		t.Errorf("hits grew code space %d -> %d", top, c.M.CodeTop)
	}
}

func TestCacheKeyDistinguishes(t *testing.T) {
	variants := []struct {
		name string
		shape
	}{
		{"base", base},
		{"one immediate", shape{2, 1, "out", false}},
		{"one label position", shape{1, 3, "out", false}},
		{"one fixup target", shape{1, 1, "top", false}},
		{"one operand side", shape{1, 1, "out", true}},
	}
	c := synth.NewCreator(newM())
	seen := map[uint32]string{}
	for _, v := range variants {
		addr := c.Synthesize(nil, "r", nil, v.emit)
		if other, dup := seen[addr]; dup {
			t.Errorf("%q shares address %d with %q", v.name, addr, other)
		}
		seen[addr] = v.name
	}
	if c.CacheHits != 0 || c.CacheEntries() != len(variants) {
		t.Errorf("hits %d entries %d, want 0 %d", c.CacheHits, c.CacheEntries(), len(variants))
	}
}

// In-place builds bypass the cache, as Table builds do (below; the test
// keeps the name the test floor lists).
func TestCacheSkipsInPlaceAndInlineBuilds(t *testing.T) {
	c := synth.NewCreator(newM())
	base := c.M.AllocCode(16)
	for i := 0; i < 2; i++ {
		if got := c.Build(nil, "sw").At(base, 16).Emit(cacheBase); got != base {
			t.Fatalf("At build installed at %d, want %d", got, base)
		}
	}
	if c.CacheHits != 0 || c.CacheMisses != 0 || c.CacheEntries() != 0 {
		t.Errorf("uncacheable builds touched the cache: hits %d misses %d entries %d",
			c.CacheHits, c.CacheMisses, c.CacheEntries())
	}
	// They did not populate it: the same template built plainly is a
	// miss and lands outside the in-place region.
	if got := c.Synthesize(nil, "plain", nil, cacheBase); got == base {
		t.Errorf("plain build was served the in-place region %d", base)
	}
	if c.CacheHits != 0 || c.CacheMisses != 1 {
		t.Errorf("hits %d misses %d, want 0 1", c.CacheHits, c.CacheMisses)
	}
}

// A Table build fills its cells with its labels' addresses as linked,
// after the cleanups have moved them, and bypasses the cache: two
// builds fill two tables.
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
	if c.CacheHits != 0 || c.CacheEntries() != 0 {
		t.Errorf("table builds touched the cache: hits %d entries %d", c.CacheHits, c.CacheEntries())
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

func TestCacheHitAccountsLikeMiss(t *testing.T) {
	for _, keyed := range []bool{false, true} {
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
		}
		build := func() (uint32, account) {
			before := account{c.M.Cycles, synth.OptStats{}, q.Instrs, q.Bytes, c.TotalInstrs, c.TotalBytes, plane.resynth}
			routines := c.Routines
			b := c.Build(q, "r").Counted()
			if keyed {
				b.Key("test.base", 1)
			}
			addr := b.Emit(cacheBase)
			if c.Routines != routines+1 {
				t.Errorf("Routines %d -> %d", routines, c.Routines)
			}
			if q.Entry("r") != addr {
				t.Errorf("entry r = %d, want %d", q.Entry("r"), addr)
			}
			return addr, account{c.M.Cycles - before.cycles, c.LastStats,
				q.Instrs - before.qInstrs, q.Bytes - before.qBytes,
				c.TotalInstrs - before.instrs, c.TotalBytes - before.bytes, plane.resynth - before.resynth}
		}
		missAddr, miss := build()
		c.LastStats = synth.OptStats{}
		hitAddr, hit := build()
		if c.CacheMisses != 1 || c.CacheHits != 1 || hitAddr != missAddr {
			t.Fatalf("keyed %v: misses %d hits %d, addresses %d %d", keyed, c.CacheMisses, c.CacheHits, missAddr, hitAddr)
		}
		if (c.KeyedHits == 1) != keyed || c.KeyedHits > 1 {
			t.Errorf("keyed %v: %d keyed hits", keyed, c.KeyedHits)
		}
		if hit != miss {
			t.Errorf("keyed %v: a hit is accounted differently from a miss:\n hit  %+v\n miss %+v", keyed, hit, miss)
		}
		if miss.cycles == 0 || miss.stats.InstrsBefore == 0 || miss.qBytes == 0 || miss.resynth != 1 {
			t.Errorf("keyed %v: the miss accounted nothing: %+v", keyed, miss)
		}
		if plane.regions != 1 {
			t.Errorf("keyed %v: %d regions registered, want 1", keyed, plane.regions)
		}
	}
}

// fifty is a 50-instruction template with labels and fixups.
func fifty(e *synth.Emitter) {
	e.Label("loop")
	for i := int32(0); i < 16; i++ {
		e.MoveL(m68k.Imm(i), m68k.D(0))
		e.AddL(m68k.D(0), m68k.Abs(0x3000))
		e.Beq("done")
	}
	e.Bra("loop")
	e.Label("done")
	e.Rts()
}

func TestCacheHitDoesNotAllocate(t *testing.T) {
	c := synth.NewCreator(newM())
	var plane tally
	c.Regions = &plane
	q := c.NewQuaject("q")
	addr := c.Synthesize(q, "r", nil, fifty)
	if c.LastStats.InstrsBefore != 50 {
		t.Fatalf("template has %d instructions, want 50", c.LastStats.InstrsBefore)
	}
	// The Builder value is the one allocation a hit may make.
	allocs := testing.AllocsPerRun(100, func() {
		if c.Build(q, "r").Emit(fifty) != addr {
			t.Fatal("hit moved the routine")
		}
	})
	if allocs > 2 {
		t.Errorf("a steady-state hit allocates %.0f times, want at most 2", allocs)
	}
	// A keyed hit does not call the template, and so emits, serializes
	// and digests nothing: those all happen after the call.
	calls := 0
	template := func(e *synth.Emitter) { calls++; fifty(e) }
	keyed := func() uint32 { return c.Build(q, "r").Key("test.fifty", 7, 8).Emit(template) }
	if keyed() != addr || calls != 1 {
		t.Fatalf("the first keyed build ran the template %d times", calls)
	}
	allocs = testing.AllocsPerRun(100, func() {
		if keyed() != addr {
			t.Fatal("keyed hit moved the routine")
		}
	})
	if allocs > 1 || calls != 1 {
		t.Errorf("a keyed hit allocates %.0f times and ran the template %d times, want at most 1 and none", allocs, calls-1)
	}
	if plane.regions != 1 {
		t.Errorf("%d regions registered, want 1", plane.regions)
	}
}

// What a declared key must tell apart, it does: another argument,
// another template name, another Counted cell and an At build all run
// the template.
func TestKeyedBuildMisses(t *testing.T) {
	c := synth.NewCreator(newM())
	var plane tally
	c.Counters = &plane
	calls := 0
	template := func(e *synth.Emitter) { calls++; cacheBase(e) }
	at := c.M.AllocCode(16)
	builds := []struct {
		name string
		b    *synth.Builder
		hit  bool
	}{
		{"first", c.Build(nil, "r").Key("test.base", 1, 2), false},
		{"same key", c.Build(nil, "other").Key("test.base", 1, 2), true},
		{"one argument", c.Build(nil, "r").Key("test.base", 1, 3), false},
		{"template name", c.Build(nil, "r").Key("test.other", 1, 2), false},
		{"counted", c.Build(nil, "r").Key("test.base", 1, 2).Counted(), false},
		{"counted, same cell", c.Build(nil, "s").Key("test.base", 1, 2).Counted(), true},
		{"counted, another cell", c.Build(nil, "long").Key("test.base", 1, 2).Counted(), false},
		{"in place", c.Build(nil, "r").Key("test.base", 1, 2).At(at, 16), false},
		{"in place again", c.Build(nil, "r").Key("test.base", 1, 2).At(at, 16), false},
	}
	for _, b := range builds {
		before, hits, entries := calls, c.KeyedHits, c.KeyedEntries()
		b.b.Emit(template)
		if hit := calls == before; hit != b.hit || hit != (c.KeyedHits == hits+1) {
			t.Errorf("%s: template ran %d times, keyed hits %d -> %d, want hit %v", b.name, calls-before, hits, c.KeyedHits, b.hit)
		}
		inPlace := strings.HasPrefix(b.name, "in place")
		if grew := c.KeyedEntries() - entries; (grew == 1) != (!b.hit && !inPlace) {
			t.Errorf("%s: keyed entries grew by %d", b.name, grew)
		}
	}
}

// CheckKeys is the oracle for a key: a template that folds a value its
// key leaves out is caught the first time the value differs, and the
// panic names the template and its arguments. An honest key passes
// with the same counters as an unchecked run.
func TestCheckKeysCatchesAnUndeclaredValue(t *testing.T) {
	c := synth.NewCreator(newM())
	c.CheckKeys = true
	build := func(declared uint32, folded int32) uint32 {
		return c.Build(nil, "r").Key("test.shape", declared).Emit(shape{imm: folded, mark: 1, target: "out"}.emit)
	}
	a := build(1, 1)
	if build(1, 1) != a || build(2, 2) == a || build(2, 2) == a {
		t.Fatal("honest keys do not find their routines")
	}
	if c.KeyedHits != 2 || c.CacheHits != 2 || c.CacheMisses != 2 {
		t.Errorf("checked: keyed hits %d hits %d misses %d, want 2 2 2", c.KeyedHits, c.CacheHits, c.CacheMisses)
	}
	// Caught whether what the template now emits is a routine the
	// creator holds under another key or one it has never seen.
	for _, folded := range []int32{2, 3} {
		func() {
			defer func() {
				msg := fmt.Sprint(recover())
				if !strings.Contains(msg, "test.shape") || !strings.Contains(msg, "[1 0 0") {
					t.Errorf("folded %d: panic does not name the key: %s", folded, msg)
				}
			}()
			build(1, folded)
			t.Errorf("folded %d: a key that hides a folded value was not caught", folded)
		}()
	}
}

// A two-entry build (EmitEntries) is one routine: both entries come
// back from the build and from either cache, a Counted routine's
// counter sits where the template calls Entry, so an entry that falls
// into another is counted once, and a one-entry build of the same
// instructions is another routine.
func TestTwoEntryBuilds(t *testing.T) {
	c := synth.NewCreator(newM())
	var plane tally
	c.Counters, c.Regions = &plane, &plane
	template := func(e *synth.Emitter) {
		e.Label(synth.EntryAlt) // falls into the main entry
		e.MoveL(m68k.D(2), m68k.D(1))
		e.Entry(synth.EntryMain)
		e.MoveL(m68k.D(1), m68k.D(0))
		e.Rts()
	}
	main, alt := c.Build(nil, "r").Counted().Key("test.two").EmitEntries(template)
	cell := plane.InvocationCell("r")
	count := m68k.Instr{Op: m68k.ADD, Sz: 4, Src: m68k.Imm(1), Dst: m68k.Abs(cell)}
	if main != alt+1 || c.M.Code[alt].Op != m68k.MOVE || c.M.Code[main] != count {
		t.Fatalf("entries %d, %d: %v, %v; want the shuffle, then the counter at the main entry", alt, main, c.M.Code[alt], c.M.Code[main])
	}
	if m, a := c.Build(nil, "r").Counted().Key("test.two").EmitEntries(template); m != main || a != alt || c.KeyedHits != 1 {
		t.Errorf("keyed rebuild: %d, %d (keyed hits %d), want %d, %d", m, a, c.KeyedHits, main, alt)
	}
	if m, a := c.Build(nil, "r").Counted().EmitEntries(template); m != main || a != alt || c.CacheHits != 2 {
		t.Errorf("content rebuild: %d, %d (hits %d), want %d, %d", m, a, c.CacheHits, main, alt)
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
	// Uncounted, the template's instructions are a one-entry build's too.
	m, a = c.Build(nil, "u").EmitEntries(template)
	if one := c.Build(nil, "u").Emit(template); one == a || one == m {
		t.Errorf("a one-entry build of the same instructions was served the two-entry routine at %d", one)
	}
	if c.CacheMisses != 4 {
		t.Errorf("%d misses, want 4", c.CacheMisses)
	}
}

var sink uint32

// BenchmarkSynthHit is what a rebuild of a routine the creator already
// holds costs the host, by the index that finds it: with a declared
// key nothing runs; by content the template is emitted, serialized and
// digested first.
func BenchmarkSynthHit(b *testing.B) {
	for _, index := range []string{"keyed", "content"} {
		b.Run(index, func(b *testing.B) {
			c := synth.NewCreator(newM())
			q := c.NewQuaject("q")
			build := func() uint32 {
				bld := c.Build(q, "r")
				if index == "keyed" {
					bld.Key("bench.fifty", 1, 2, 3)
				}
				return bld.Emit(fifty)
			}
			build()
			for b.Loop() {
				sink = build()
			}
		})
	}
}
