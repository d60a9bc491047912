package synth_test

import (
	"testing"

	"synthesis/internal/m68k"
	"synthesis/internal/synth"
)

// The synthesis cache must be invisible except in code-space growth:
// equal programs share one address, programs that differ in anything
// the optimizer or the linker reads do not, and a hit is accounted
// like a miss.

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

// In-place builds are the only kind that bypasses the cache (the test
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

// tally is a CounterPlane and RegionSink that counts its calls.
type tally struct {
	resynth, regions int
}

func (p *tally) InvocationCell(string) uint32 { return 0x2000 }
func (p *tally) Resynthesized(string)         { p.resynth++ }
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
		addr := c.Build(q, "r").Counted().Emit(cacheBase)
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
	if plane.regions != 1 {
		t.Errorf("%d regions registered, want 1", plane.regions)
	}
}
