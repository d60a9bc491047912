package synth

import (
	"sort"

	"synthesis/internal/m68k"
)

// Quajects (Section 2.3) are the kernel's collections of procedures
// and data encapsulating hardware resources: threads, device servers,
// queues, files. A quaject's procedures are synthesized at run time
// by the quaject creator; its entry points are dynamically linked
// into the invoking thread by the quaject interfacer.

// Quaject records the synthesized routines making up one kernel
// object, with the size accounting used in Section 6.4.
type Quaject struct {
	Name    string
	Entries map[string]uint32 // entry-point name -> code address
	Instrs  int               // synthesized instructions
	Bytes   int               // synthesized code bytes (encoded estimate)
}

// Entry returns the code address of a named entry point.
func (q *Quaject) Entry(name string) uint32 {
	addr, ok := q.Entries[name]
	if !ok {
		panic("synth: quaject " + q.Name + " has no entry " + name)
	}
	return addr
}

// EntryNames returns the entry-point names in sorted order.
func (q *Quaject) EntryNames() []string {
	names := make([]string, 0, len(q.Entries))
	for n := range q.Entries {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Creator is the quaject creator: it runs a template's three stages —
// allocation (code space), factorization (hole binding through the
// Env given to the template closure), and optimization (the peephole
// passes) — and installs the result in the machine.
//
// ChargeTime models the cost of running the synthesizer itself on the
// machine's clock (the 40% of open's 49 microseconds that Section 6.3
// attributes to code synthesis); it is off for boot-time synthesis,
// which the paper does not charge to any kernel call.
type Creator struct {
	M          *m68k.Machine
	ChargeTime bool

	// Regions, when non-nil, receives the address range of every
	// installed routine so a measurement plane can attribute cycles
	// to named quaject code. See builder.go.
	Regions RegionSink

	// Counters, when non-nil, provides invocation-counter cells for
	// routines built with Builder.Counted (see CounterPlane in
	// builder.go). Nil leaves every generated routine untouched.
	Counters CounterPlane

	// Accounting across all quajects, for the Section 6.4 table.
	TotalInstrs int
	TotalBytes  int
	Routines    int
	LastStats   OptStats

	// What the optimization stage has done, over every build:
	// instructions removed, and routines it changed at all.
	OptRemoved uint64
	OptChanged uint64

	scratch *Emitter // the emitter every build reuses (Builder.Emit)
}

// NewCreator returns a creator with time charging off (boot mode).
func NewCreator(m *m68k.Machine) *Creator {
	return &Creator{M: m}
}

// NewQuaject starts an empty quaject record.
func (c *Creator) NewQuaject(name string) *Quaject {
	return &Quaject{Name: name, Entries: make(map[string]uint32)}
}

// Synthesize runs a template closure against the environment, applies
// the optimization stage, installs the code, records it under the
// quaject's entry name, and returns the entry address. It is a
// convenience wrapper over the Builder pipeline (builder.go).
func (c *Creator) Synthesize(q *Quaject, entry string, env Env, emit func(*Emitter)) uint32 {
	return c.Build(q, entry).WithEnv(env).Emit(emit)
}
