// Package synth is the Synthesis kernel's code synthesizer: the
// run-time code generation machinery of Section 2.2 of the paper.
//
// The paper's quaject creator runs allocation, factorization and
// optimization. Here factorization happens while a template is
// emitted, so every routine — boot-time shared kernel code,
// per-thread switch procedures, per-open device paths — goes through
// one pipeline (Builder.Emit, this file):
//
//	declared key -> template -> cleanups -> charge -> install
//
// Stage by stage:
//
//   - declared key: a build that names its template and the values it
//     folds (Builder.Key) is looked up first; a hit goes to the charge.
//     A build without a key is always installed.
//   - template: the closure runs against its Env. This is where the
//     paper's methods are applied. Factoring Invariants: a hole bound
//     to a constant becomes an immediate, one bound to a cell a memory
//     reference, and IsConst lets a template pick a different code
//     shape for a known value (env.go). Collapsing Layers: a layer is
//     composed by calling its emit helper instead of emitting a JSR
//     (kio's cooked tty read, /proc read and net handler each take the
//     layer boundary as a parameter). Executable Data Structures: a
//     structure kept in code changes by rewriting one instruction
//     (Creator.Patch; kio's receive demux cells) or one cell that code
//     jumps through (the ready queue's next-switch cell in each TTE).
//   - peephole cleanups: optimize.go.
//   - charge: the cost model of cost.go, when ChargeTime is set.
//   - install: link into code space (or in place, Builder.At) and
//     register the region with the measurement plane.
//
// What reaches the cleanups is already folded and collapsed, and the
// stage is sized to its traffic. Measured with per-pass counters over
// all eleven golden tables (1,425 optimizer runs, 29,244
// instructions; the examples, quamon -watch/-cluster -churn and synsh
// fire the same passes on the same templates, and the seven
// `go run ./benchmark` workloads add their synthesis-cost probe
// routine, which is built to exercise all four):
//
//	pass              firings  instrs  routines
//	removeNops              2       2  two bench victim loops
//	dropBranchToNext       46      46  kio.net_intr, once per build
//	deadCode                0       0  - (the benchmark's probe routine)
//	redundantMoves         13      13  kio.sock*.recv
//	threadJumps, foldConstants, strengthReduce, deadStores: none
//
// optimize.go implements the four with traffic and not the four
// without. Creator.OptRemoved and OptChanged (synth.optimize.* in the
// metrics registry) keep the question a counter read. Collapse
// (collapse.go) is not a stage of the pipeline.
package synth

import (
	"fmt"
	"slices"

	"synthesis/internal/asmkit"
	"synthesis/internal/m68k"
)

// RegionSink receives the code-space extent of every installed
// routine. The profiler implements it; the creator reports through it
// so synthesized code shows up in cycle attribution under its quaject
// and entry name.
type RegionSink interface {
	RegisterRegion(name string, base uint32, instrs int)
}

// CounterPlane supplies VM counter cells for routines built with
// Counted(): the builder stitches one AddL #1,<cell> into the entry of
// the generated code, so the quaject counts its own invocations the
// way the paper's kernel self-measures — the cell is a folded
// absolute address, one instruction per call, and the observability
// layer reads it lazily. Resynthesized is called once per Emit of a
// counted region, counting how often the routine has been
// (re)generated. The kernel wires a metrics-backed implementation;
// nil (the default) disables stitching entirely, so benchmarks see
// byte-identical code.
type CounterPlane interface {
	// InvocationCell returns the cell address to bump on entry to the
	// named region, or 0 to leave the routine uninstrumented. The same
	// region name must yield the same cell across resynthesis.
	InvocationCell(region string) uint32
	// Resynthesized notes one generation of the named region.
	Resynthesized(region string)
}

// Builder assembles one routine through the full creation pipeline.
// Obtain one from Creator.Build, chain the option methods, and call
// Emit with the template closure.
type Builder struct {
	c       *Creator
	q       *Quaject
	entry   string
	region  string
	env     Env
	base    uint32
	size    int
	inPlace bool
	counted bool
	two     bool // EmitEntries
	key     declKey
	table   uint32   // jump table the install fills (Table), 0 for none
	targets []string // its cells' labels
}

// Build starts a Builder for one entry point of q (q may be nil for
// free-standing routines such as boot trampolines and test programs).
func (c *Creator) Build(q *Quaject, entry string) *Builder {
	return &Builder{c: c, q: q, entry: entry}
}

// WithEnv installs a complete hole environment (Factoring Invariants:
// constants fold into immediates, cells stay memory references).
func (b *Builder) WithEnv(env Env) *Builder {
	b.env = env
	return b
}

// Bind adds one hole binding, creating the environment on first use.
func (b *Builder) Bind(hole string, bind Binding) *Builder {
	if b.env == nil {
		b.env = Env{}
	}
	b.env[hole] = bind
	return b
}

// At directs the install into a preallocated code region of the given
// size instead of appending to code space; slack is NOP-filled so
// stale tail instructions cannot execute (in-place resynthesis).
func (b *Builder) At(base uint32, size int) *Builder {
	b.base = base
	b.size = size
	b.inPlace = true
	return b
}

// Table makes the install fill a jump table in machine memory: the
// long at cells+4*i gets the linked address of label targets[i]. Like
// an At build, a table build is never served from the cache.
func (b *Builder) Table(cells uint32, targets []string) *Builder {
	b.table = cells
	b.targets = targets
	return b
}

// Named overrides the attribution-region name. The default is
// "<quaject>.<entry>" (or the bare entry name for a nil quaject).
func (b *Builder) Named(region string) *Builder {
	b.region = region
	return b
}

// Counted opts this routine into invocation counting: when the
// creator has a CounterPlane attached, the emitted code starts with
// one AddL #1 into the plane's cell for this region. Without a plane
// the option is inert and the generated code is unchanged.
func (b *Builder) Counted() *Builder {
	b.counted = true
	return b
}

// declKey is a declared key: a template name, up to maxKeyArgs values
// and, in the last slot, the Counted cell, which Emit fills in.
type declKey struct {
	name string
	args [maxKeyArgs + 1]uint32
}

const maxKeyArgs = 6

// Key declares what the routine is a function of: a template name and
// every value the template folds that can differ between two builds of
// it on one creator. An Emit whose key was seen before returns the
// routine installed then and does not run the template. DESIGN.md
// Section 2a has the rule; Creator.CheckKeys checks it.
func (b *Builder) Key(template string, args ...uint32) *Builder {
	if len(args) > maxKeyArgs {
		panic("synth: key of " + template + " has too many arguments")
	}
	b.key.name = template
	copy(b.key.args[:], args)
	return b
}

// regionName resolves the attribution name used for region
// registration and invocation counting.
func (b *Builder) regionName() string {
	if b.region != "" {
		return b.region
	}
	if b.q != nil && b.q.Name != "" {
		return b.q.Name + "." + b.entry
	}
	return b.entry
}

// cached is one synthesis-cache entry: where a routine was installed
// and where it is entered, and the statistics its synthesis produced,
// which is all a later Emit of the same routine needs.
type cached struct {
	base, addr, alt uint32
	st              OptStats
}

// The labels of a two-entry routine's entries (EmitEntries).
const EntryMain, EntryAlt = "entry", "entry_alt"

// Emit runs the template closure and the rest of the pipeline, then
// returns the installed entry address.
//
// A template is a pure function of the values it folds, so a build
// that declares them (Key) is looked up in the creator's cache before
// the template runs: a hit returns the routine installed the first
// time and runs no stage at all. Sharing is sound because installed
// code outside At regions is never patched; At builds, whose regions
// the caller owns and rewrites, and Table builds, whose install writes
// the table, are not cached. A build without a key is always
// installed. A hit is accounted exactly like a miss — the cycle model
// and the size tables describe the paper's kernel, which synthesizes
// on every open (DESIGN.md Section 4) — except that it registers no
// region: a profiler charges a shared routine to the name it was
// installed under.
func (b *Builder) Emit(emit func(*Emitter)) uint32 {
	return b.emit(emit).addr
}

// EmitEntries is Emit for a routine with two entries, one per register
// convention of its callers, labelled EntryMain and EntryAlt: one build
// returns both. A Counted routine counts where the template calls
// Emitter.Entry, not at the start, so an entry that falls into the
// other (a plain Label) is counted once, where it lands.
func (b *Builder) EmitEntries(emit func(*Emitter)) (main, alt uint32) {
	b.two = true
	ent := b.emit(emit)
	return ent.addr, ent.alt
}

func (b *Builder) emit(emit func(*Emitter)) cached {
	c := b.c
	var cell uint32
	if b.counted && c.Counters != nil {
		name := b.regionName()
		cell = c.Counters.InvocationCell(name)
		c.Counters.Resynthesized(name)
	}
	k := b.key
	k.args[maxKeyArgs] = cell
	ent, hit := c.keyed[k] // nothing is filed under the empty name
	switch {
	case b.inPlace || b.table != 0: // never cached (Emit)
		ent = b.install(b.prepare(emit, cell))
	case hit:
		c.CacheHits++
		if c.CheckKeys {
			bb, _ := b.prepare(emit, cell)
			b.check(k, ent, bb)
		}
	default:
		ent = b.install(b.prepare(emit, cell))
		c.CacheMisses++
		if k.name != "" {
			c.keyed[k] = ent
		}
	}

	// From here a hit and a miss are the same build.
	st := &ent.st
	c.LastStats = *st
	if c.ChargeTime {
		ChargeSynthesis(c.M, st.InstrsBefore)
	}
	if b.q != nil {
		b.q.Entries[b.entry] = ent.addr
		b.q.Instrs += st.InstrsAfter
		b.q.Bytes += st.BytesAfter
	}
	c.TotalInstrs += st.InstrsAfter
	c.TotalBytes += st.BytesAfter
	c.Routines++
	return ent
}

// prepare runs the template and the cleanups, and returns the routine
// ready to link.
func (b *Builder) prepare(emit func(*Emitter), cell uint32) (*asmkit.Builder, OptStats) {
	c := b.c
	// Templates emit into the creator's one emitter. It is checked out
	// while in use, so a template that itself synthesizes gets a fresh
	// one.
	e := c.scratch
	c.scratch = nil
	if e == nil {
		e = NewEmitter(nil)
	}
	e.Reset()
	e.env = b.env
	e.cell = 0
	if b.two {
		e.cell = cell
	} else if cell != 0 {
		// Self-measurement stitched into the quaject: one AddL to a
		// folded cell address before the template body runs.
		e.AddL(m68k.Imm(1), m68k.Abs(cell))
	}
	emit(e)
	p, st := Optimize(e.Export())
	c.scratch = e
	return asmkit.FromProgram(p), st
}

// entries returns where the routine is entered when linked at base.
func (b *Builder) entries(bb *asmkit.Builder, base uint32) (addr, alt uint32) {
	if b.two {
		return bb.AddrOf(EntryMain, base), bb.AddrOf(EntryAlt, base)
	}
	return base, 0
}

// check is CheckKeys' oracle for a hit: the routine the template emits
// now, resolved at the cached routine's base, must be the code
// installed there, instruction for instruction, entered at the same
// places.
func (b *Builder) check(k declKey, ent cached, bb *asmkit.Builder) {
	addr, alt := b.entries(bb, ent.base)
	if n := bb.Len(); n != ent.st.InstrsAfter || addr != ent.addr || alt != ent.alt ||
		!slices.Equal(bb.Resolve(ent.base), b.c.M.Code[ent.base:][:n]) {
		panic(fmt.Sprintf("synth: key %s%v names the routine at %d, but its template now emits another", k.name, k.args, ent.addr))
	}
}

// install links a prepared routine into code space and registers its
// region.
func (b *Builder) install(bb *asmkit.Builder, st OptStats) cached {
	c := b.c
	if st.Removed > 0 {
		c.OptRemoved += uint64(st.Removed)
		c.OptChanged++
	}
	if b.inPlace && bb.Len() > b.size {
		panic("synth: routine does not fit its preallocated region: " + b.entry)
	}
	base := b.base
	regionLen := bb.Len()
	if b.inPlace {
		bb.LinkAt(c.M, b.base)
		for i := bb.Len(); i < b.size; i++ {
			c.M.PatchCode(b.base+uint32(i), m68k.Instr{Op: m68k.NOP})
		}
		// The whole reserved region belongs to this routine: time in
		// the NOP slack (if ever reached) is still its time.
		regionLen = b.size
	} else {
		base = bb.Link(c.M)
	}
	for i, l := range b.targets {
		c.M.Poke(b.table+uint32(i)*4, 4, bb.AddrOf(l, base))
	}
	if c.Regions != nil {
		c.Regions.RegisterRegion(b.regionName(), base, regionLen)
	}
	ent := cached{base: base, st: st}
	ent.addr, ent.alt = b.entries(bb, base)
	return ent
}

// Patch rewrites one slot of installed code, the way an executable data
// structure changes. With ChargeTime it is charged the cost model's
// per-instruction part alone: no template runs, nothing is allocated.
func (c *Creator) Patch(addr uint32, in m68k.Instr) {
	c.M.PatchCode(addr, in)
	if c.ChargeTime {
		c.M.Charge(SynthPerInstrCycles, "synthesis")
	}
}
