package bench

import (
	"fmt"
	"sort"
	"strconv"

	"synthesis/internal/fault"
)

// Table registry: every table file registers its generator in an
// init(), and synbench, the golden test and the root benchmark suite
// all dispatch through Names/Run. Adding a table means adding one file
// with one Register call and its bench/baseline artifact (`synbench
// -table <name> -json bench/baseline`) — no command edits.

// RunConfig carries the knobs a caller can set uniformly across
// tables. Tables without an iteration knob ignore Iters. A non-empty
// FaultSpec (see fault.SpecHelp for the grammar) attaches a seeded
// fault injector to every rig the table boots, so any table can be
// rerun under a fault schedule.
type RunConfig struct {
	Iters     int32
	FaultSpec string
	FaultSeed int64
}

// TableFunc generates one table.
type TableFunc func(RunConfig) (Table, error)

var registry = map[string]TableFunc{}

// Register adds a table generator under a name ("1".."7", "pathlen",
// ...). Duplicate names are a programming error.
func Register(name string, fn TableFunc) {
	if _, dup := registry[name]; dup {
		panic("bench: duplicate table registration: " + name)
	}
	registry[name] = fn
}

// fixed adapts a parameterless generator to the registry signature.
func fixed(fn func() (Table, error)) TableFunc {
	return func(RunConfig) (Table, error) { return fn() }
}

// Names returns the registered table names, numbered tables first in
// numeric order, then the rest alphabetically.
func Names() []string {
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool {
		vi, errI := strconv.Atoi(names[i])
		vj, errJ := strconv.Atoi(names[j])
		switch {
		case errI == nil && errJ == nil:
			return vi < vj
		case errI == nil:
			return true
		case errJ == nil:
			return false
		default:
			return names[i] < names[j]
		}
	})
	return names
}

// Run generates the named table. A non-empty cfg.FaultSpec is parsed
// and its machine items staged for every rig booted while the table
// generates (see attachFaults in rig.go); the fleet clauses
// (link=/part=/vmfault=) need a fabric, which no table owns, and are
// rejected.
func Run(name string, cfg RunConfig) (Table, error) {
	fn, ok := registry[name]
	if !ok {
		return Table{}, fmt.Errorf("bench: unknown table %q (have %v)", name, Names())
	}
	if cfg.FaultSpec != "" {
		plan, err := fault.Parse(cfg.FaultSpec)
		if err != nil {
			return Table{}, err
		}
		if plan.Fleet() {
			return Table{}, fmt.Errorf("bench: fault spec %q: link=/part=/vmfault= clauses need a fleet", cfg.FaultSpec)
		}
		activeFaults, activeFaultSeed = &plan, cfg.FaultSeed
		defer func() { activeFaults = nil }()
	}
	return fn(cfg)
}

// Staged fault schedule for the current Run call; rigs consult it at
// boot. Bench runs are single-goroutine, so package cells suffice.
var (
	activeFaults    *fault.Plan
	activeFaultSeed int64
)
