// Package synth is the Synthesis kernel's code synthesizer: the
// run-time code generation machinery of Section 2.2 of the paper.
//
// The paper's quaject creator runs allocation, factorization and
// optimization. Here factorization happens while a template is
// emitted, so every routine — boot-time shared kernel code,
// per-thread switch procedures, per-open device paths — goes through
// one pipeline (Builder.Emit, this file):
//
//	template -> cleanups -> charge -> install
//
// Stage by stage:
//
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
//   - install: link into code space, or into a region its owner
//     rewrites in place (Builder.At: a thread's switch code, kio's
//     receive handler, each descriptor slot's read and write), and
//     register the region with the measurement plane.
//
// Every Emit runs its template; a routine built once by its owner is
// accounted on each reuse with Builder.Account.
//
// What reaches the cleanups is already folded and collapsed, and the
// stage is sized to its traffic. Measured with per-pass counters over
// every golden table (`go run ./cmd/synbench`: 2,409 optimizer runs,
// 48,424 instructions; the examples, quamon and quamon -cluster -churn
// fire the same passes on the same templates):
//
//	pass              firings  instrs  routines
//	removeNops              2       2  Table 3's victim and Table 4's peer loops
//	dropBranchToNext       46      46  kio.net_intr, once per build
//	deadCode, redundantMoves, threadJumps, foldConstants,
//	strengthReduce, deadStores: none
//
// So two passes have kernel traffic, and optimize.go implements those
// two; the passes without any are not implemented. The benchmark's
// probe routine gives the same two passes its NOPs and its branch to
// the next block.
// Creator.OptRemoved and OptChanged (synth.optimize.* in the metrics
// registry) keep the question a counter read. Collapse (collapse.go)
// is not a stage of the pipeline.
package synth

import (
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
	two     bool     // EmitEntries
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
// stale tail instructions cannot execute (in-place resynthesis). The
// region registered for attribution is the routine's own extent, so a
// later build into the slack (kio links a descriptor's write after its
// read) registers its own.
func (b *Builder) At(base uint32, size int) *Builder {
	b.base = base
	b.size = size
	b.inPlace = true
	return b
}

// Table makes the install fill a jump table in machine memory: the
// long at cells+4*i gets the linked address of label targets[i].
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

// The labels of a two-entry routine's entries (EmitEntries).
const EntryMain, EntryAlt = "entry", "entry_alt"

// Emit runs the template closure and the rest of the pipeline, then
// returns the installed entry address.
func (b *Builder) Emit(emit func(*Emitter)) uint32 {
	main, _ := b.emit(emit)
	return main
}

// EmitEntries is Emit for a routine with two entries, one per register
// convention of its callers, labelled EntryMain and EntryAlt: one build
// returns both. A Counted routine counts where the template calls
// Emitter.Entry, not at the start, so an entry that falls into the
// other (a plain Label) is counted once, where it lands.
func (b *Builder) EmitEntries(emit func(*Emitter)) (main, alt uint32) {
	b.two = true
	return b.emit(emit)
}

func (b *Builder) emit(emit func(*Emitter)) (main, alt uint32) {
	bb, st := b.prepare(emit, b.cell())
	main, alt = b.install(bb, st)
	b.account(main, st)
	return main, alt
}

// Account is a build of the installed routine entered at main, whose
// build produced st, that runs no stage: it is charged and counted as
// that build was, and registers no region. The cycle model describes
// the paper's kernel, which synthesizes on every open (DESIGN.md
// Section 4), so a routine built once is accounted so on each reuse.
func (b *Builder) Account(main uint32, st OptStats) {
	b.cell()
	b.account(main, st)
}

// cell returns the Counted routine's invocation-counter cell, 0 for
// none, and notes one more generation of it.
func (b *Builder) cell() uint32 {
	c := b.c
	if !b.counted || c.Counters == nil {
		return 0
	}
	name := b.regionName()
	cell := c.Counters.InvocationCell(name)
	c.Counters.Resynthesized(name)
	return cell
}

// account charges a build and adds it to its quaject's and the
// creator's totals.
func (b *Builder) account(main uint32, st OptStats) {
	c := b.c
	c.LastStats = st
	if c.ChargeTime {
		ChargeSynthesis(c.M, st.InstrsBefore)
	}
	if b.q != nil {
		if old, ok := b.q.Entries[b.entry]; !ok || old != main { // a reopen's entry stands
			b.q.Entries[b.entry] = main
		}
		b.q.Instrs += st.InstrsAfter
		b.q.Bytes += st.BytesAfter
	}
	c.TotalInstrs += st.InstrsAfter
	c.TotalBytes += st.BytesAfter
	c.Routines++
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

// install links a prepared routine into code space, registers its
// region, and returns where it is entered.
func (b *Builder) install(bb *asmkit.Builder, st OptStats) (main, alt uint32) {
	c := b.c
	if st.Removed > 0 {
		c.OptRemoved += uint64(st.Removed)
		c.OptChanged++
	}
	if b.inPlace && bb.Len() > b.size {
		panic("synth: routine does not fit its preallocated region: " + b.entry)
	}
	base := b.base
	if b.inPlace {
		bb.LinkAt(c.M, b.base)
		for i := bb.Len(); i < b.size; i++ {
			c.M.PatchCode(b.base+uint32(i), m68k.Instr{Op: m68k.NOP})
		}
	} else {
		base = bb.Link(c.M)
	}
	for i, l := range b.targets {
		c.M.Poke(b.table+uint32(i)*4, 4, bb.AddrOf(l, base))
	}
	if c.Regions != nil {
		c.Regions.RegisterRegion(b.regionName(), base, bb.Len())
	}
	if b.two {
		return bb.AddrOf(EntryMain, base), bb.AddrOf(EntryAlt, base)
	}
	return base, 0
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
