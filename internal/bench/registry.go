package bench

import (
	"fmt"

	"synthesis/internal/fault"
)

// Table list: synbench, the golden test and the root benchmark suite
// all dispatch through Names/Run. Adding a table means one entry in
// tables and its bench/baseline artifact (`synbench -table <name>
// -json bench/baseline`) — no command edits.

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

// tables is every table's generator under its name, numbered tables
// first, then the rest alphabetically: the order Names lists them in.
var tables = []struct {
	name string
	fn   TableFunc
}{
	{"1", func(cfg RunConfig) (Table, error) { return Table1(cfg.Iters) }},
	{"2", func(RunConfig) (Table, error) { return Table2() }},
	{"3", func(RunConfig) (Table, error) { return Table3() }},
	{"4", func(RunConfig) (Table, error) { return Table4() }},
	{"5", func(RunConfig) (Table, error) { return Table5() }},
	{"6", func(RunConfig) (Table, error) { return Table6() }},
	{"7", Table7},
	{"ablations", func(RunConfig) (Table, error) { return Ablations() }},
	{"pathlen", func(RunConfig) (Table, error) { return PathLengths() }},
	{"proc", func(RunConfig) (Table, error) { return TableProc() }},
	{"queue_contention", func(RunConfig) (Table, error) { return QueueContention() }},
	{"size", func(RunConfig) (Table, error) { return SizeTable() }},
}

// Names returns the table names in tables' order.
func Names() []string {
	names := make([]string, len(tables))
	for i, t := range tables {
		names[i] = t.name
	}
	return names
}

// Run generates the named table. A non-empty cfg.FaultSpec is parsed
// and its machine items staged for every rig booted while the table
// generates (see attachFaults in rig.go); the fleet clauses
// (link=/part=/vmfault=) need a fabric, which no table owns, and are
// rejected.
func Run(name string, cfg RunConfig) (Table, error) {
	var fn TableFunc
	for _, t := range tables {
		if t.name == name {
			fn = t.fn
		}
	}
	if fn == nil {
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
