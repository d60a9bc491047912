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
// builds that declare one key (Builder.Key) share one address and run
// the template once, builds under different keys or under none do not
// share, and a hit is accounted like a miss.

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
	a1 := c.Build(nil, "a").Key("test.base").Emit(cacheBase)
	top := c.M.CodeTop
	// Entry and quaject names are not part of the key.
	a2 := c.Build(c.NewQuaject("other"), "b").Key("test.base").Emit(cacheBase)
	if a2 != a1 || c.CacheHits != 1 || c.CacheMisses != 1 || c.KeyedEntries() != 1 {
		t.Errorf("equal keyed builds at %d, %d: hits %d misses %d entries %d, want one routine, 1 1 1",
			a1, a2, c.CacheHits, c.CacheMisses, c.KeyedEntries())
	}
	if c.M.CodeTop != top {
		t.Errorf("a hit grew code space %d -> %d", top, c.M.CodeTop)
	}
	// Without a key, every build is installed.
	u1 := c.Synthesize(nil, "c", nil, cacheBase)
	u2 := c.Synthesize(nil, "c", nil, cacheBase)
	if u1 == a1 || u2 == a1 || u1 == u2 || c.CacheHits != 1 || c.CacheMisses != 3 || c.KeyedEntries() != 1 {
		t.Errorf("unkeyed builds at %d, %d (keyed at %d): hits %d misses %d entries %d, want three routines, 1 3 1",
			u1, u2, a1, c.CacheHits, c.CacheMisses, c.KeyedEntries())
	}
}

// Each key names its own routine, whether the programs differ or not,
// and finds it again.
func TestCacheKeyDistinguishes(t *testing.T) {
	variants := []struct {
		name string
		shape
	}{
		{"base", base},
		{"base again", base},
		{"one immediate", shape{2, 1, "out", false}},
		{"one label position", shape{1, 3, "out", false}},
		{"one fixup target", shape{1, 1, "top", false}},
		{"one operand side", shape{1, 1, "out", true}},
	}
	c := synth.NewCreator(newM())
	build := func(i int) uint32 {
		return c.Build(nil, "r").Key("test.shape", uint32(i)).Emit(variants[i].emit)
	}
	seen := map[uint32]string{}
	addrs := make([]uint32, len(variants))
	for i, v := range variants {
		addrs[i] = build(i)
		if other, dup := seen[addrs[i]]; dup {
			t.Errorf("%q shares address %d with %q", v.name, addrs[i], other)
		}
		seen[addrs[i]] = v.name
	}
	for i, v := range variants {
		if got := build(i); got != addrs[i] {
			t.Errorf("%q rebuilt at %d, first at %d", v.name, got, addrs[i])
		}
	}
	if n := uint64(len(variants)); c.CacheHits != n || c.CacheMisses != n || c.KeyedEntries() != len(variants) {
		t.Errorf("hits %d misses %d entries %d, want %d of each", c.CacheHits, c.CacheMisses, c.KeyedEntries(), n)
	}
}

// In-place builds bypass the cache even when keyed, as Table builds do
// (below; the test keeps the name the test floor lists).
func TestCacheSkipsInPlaceAndInlineBuilds(t *testing.T) {
	c := synth.NewCreator(newM())
	base := c.M.AllocCode(16)
	for i := 0; i < 2; i++ {
		if got := c.Build(nil, "sw").Key("test.base").At(base, 16).Emit(cacheBase); got != base {
			t.Fatalf("At build installed at %d, want %d", got, base)
		}
	}
	if c.CacheHits != 0 || c.CacheMisses != 0 || c.KeyedEntries() != 0 {
		t.Errorf("uncacheable builds touched the cache: hits %d misses %d entries %d",
			c.CacheHits, c.CacheMisses, c.KeyedEntries())
	}
	// They did not populate it: the same keyed build made plainly is a
	// miss and lands outside the in-place region.
	if got := c.Build(nil, "plain").Key("test.base").Emit(cacheBase); got == base {
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
	if c.CacheHits != 0 || c.KeyedEntries() != 0 {
		t.Errorf("table builds touched the cache: hits %d entries %d", c.CacheHits, c.KeyedEntries())
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
		addr := c.Build(q, "r").Counted().Key("test.base", 1).Emit(cacheBase)
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
		t.Fatalf("misses %d hits %d, addresses %d %d", c.CacheMisses, c.CacheHits, missAddr, hitAddr)
	}
	if hit != miss {
		t.Errorf("a hit is accounted differently from a miss:\n hit  %+v\n miss %+v", hit, miss)
	}
	if miss.cycles == 0 || miss.stats.InstrsBefore == 0 || miss.qBytes == 0 || miss.resynth != 1 {
		t.Errorf("the miss accounted nothing: %+v", miss)
	}
	if plane.regions != 1 {
		t.Errorf("%d regions registered, want 1", plane.regions)
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
	// A hit does not call the template, and so emits nothing: the
	// Builder value is the one allocation it may make.
	calls := 0
	template := func(e *synth.Emitter) { calls++; fifty(e) }
	keyed := func() uint32 { return c.Build(q, "r").Key("test.fifty", 7, 8).Emit(template) }
	addr := keyed()
	if c.LastStats.InstrsBefore != 50 || calls != 1 {
		t.Fatalf("template has %d instructions and ran %d times, want 50 and once", c.LastStats.InstrsBefore, calls)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if keyed() != addr {
			t.Fatal("a hit moved the routine")
		}
	})
	if allocs > 1 || calls != 1 {
		t.Errorf("a hit allocates %.0f times and ran the template %d times, want at most 1 and none", allocs, calls-1)
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
		before, hits, entries := calls, c.CacheHits, c.KeyedEntries()
		b.b.Emit(template)
		if hit := calls == before; hit != b.hit || hit != (c.CacheHits == hits+1) {
			t.Errorf("%s: template ran %d times, hits %d -> %d, want hit %v", b.name, calls-before, hits, c.CacheHits, b.hit)
		}
		inPlace := strings.HasPrefix(b.name, "in place")
		if grew := c.KeyedEntries() - entries; (grew == 1) != (!b.hit && !inPlace) {
			t.Errorf("%s: keyed entries grew by %d", b.name, grew)
		}
	}
}

// CheckKeys is the oracle for a key: a hit runs its template again and
// compares what it emits with the code installed at the routine the key
// names, so a template that folds a value its key leaves out is caught
// the first time the value differs, and the panic names the template
// and its arguments. An honest key passes with the same counters as an
// unchecked run.
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
	if c.CacheHits != 2 || c.CacheMisses != 2 {
		t.Errorf("checked: hits %d misses %d, want 2 2", c.CacheHits, c.CacheMisses)
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
// back from the build and from the cache, CheckKeys finds the hit's
// entries where they were, and a Counted routine's counter sits where
// the template calls Entry, so an entry that falls into another is
// counted once.
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
	c.CheckKeys = true
	if m, a := c.Build(nil, "r").Counted().Key("test.two").EmitEntries(template); m != main || a != alt || c.CacheHits != 1 {
		t.Errorf("keyed rebuild: %d, %d (hits %d), want %d, %d", m, a, c.CacheHits, main, alt)
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
	if c.CacheMisses != 2 {
		t.Errorf("%d misses, want 2", c.CacheMisses)
	}
	// The same instructions entered elsewhere are another routine.
	defer func() {
		if recover() == nil {
			t.Error("CheckKeys missed a moved entry")
		}
	}()
	c.Build(nil, "r").Counted().Key("test.two").EmitEntries(func(e *synth.Emitter) {
		e.MoveL(m68k.D(2), m68k.D(1))
		e.Entry(synth.EntryMain)
		e.Label(synth.EntryAlt)
		e.MoveL(m68k.D(1), m68k.D(0))
		e.Rts()
	})
}

var sink uint32

// BenchmarkSynthHit is what a rebuild of a routine the creator already
// holds costs the host: the declared key is looked up and nothing runs.
func BenchmarkSynthHit(b *testing.B) {
	c := synth.NewCreator(newM())
	q := c.NewQuaject("q")
	build := func() uint32 { return c.Build(q, "r").Key("bench.fifty", 1, 2, 3).Emit(fifty) }
	build()
	for b.Loop() {
		sink = build()
	}
}
