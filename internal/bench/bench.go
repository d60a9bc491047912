// Package bench is the experiment harness: it regenerates every table
// of the paper's evaluation (Section 6) plus the ablations DESIGN.md
// calls out, running the same benchmark "binaries" on the Synthesis
// kernel (with its UNIX emulator) and on the traditional SUNOS-style
// baseline, both at the SUN 3/160 emulation point (16 MHz, one memory
// wait state).
//
// A table is data: its title and note, and a list of rows, each the
// paper's figure, the unit and the note beside the measurement that
// fills it in. A meter (rig.go) runs the measurements.
package bench

import (
	"fmt"
	"strings"
)

// Row is one experiment line: the paper's figure next to ours.
type Row struct {
	Name     string
	Paper    float64 // the paper's value (same unit)
	Measured float64
	Unit     string
	Note     string
}

// Table is one regenerated table.
type Table struct {
	Title string
	Note  string
	Rows  []Row
}

// String renders the table as aligned text.
func (t Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n%s\n", t.Title, strings.Repeat("=", len(t.Title)))
	if t.Note != "" {
		fmt.Fprintf(&b, "%s\n", t.Note)
	}
	fmt.Fprintf(&b, "%-42s %12s %12s %-8s %s\n", "experiment", "paper", "measured", "unit", "note")
	for _, r := range t.Rows {
		paper := "-"
		if r.Paper != 0 {
			paper = fmt.Sprintf("%.2f", r.Paper)
		}
		fmt.Fprintf(&b, "%-42s %12s %12.2f %-8s %s\n", r.Name, paper, r.Measured, r.Unit, r.Note)
	}
	return b.String()
}

// tables is every table under its registry name, numbered tables
// first, then the rest alphabetically: the order Names lists them in.
// synbench, the golden test and the root benchmark suite all dispatch
// through Names/Run, so adding a table is one entry here and its
// bench/baseline artifact (`synbench -table <name> -json
// bench/baseline`).
var tables = []struct {
	name, title, note string
	rows              func(*meter) []Row
}{
	{"1", "Table 1: Measured UNIX system calls, SUNOS baseline vs Synthesis emulator",
		"per-iteration microseconds at the SUN 3/160 point; 'paper' column is the\n" +
			"paper's speedup ratio (SUN seconds / Synthesis seconds), ours alongside", table1},
	{"2", "Table 2: File and Device I/O (microseconds)",
		"native Synthesis kernel calls at the SUN 3/160 point; paper column = native", table2},
	{"3", "Table 3: Thread Operations (microseconds)",
		"native Synthesis calls at the SUN 3/160 point, code synthesis charged", table3},
	{"4", "Table 4: Dispatcher/Scheduler (microseconds)",
		"executable-data-structure context switching at the SUN 3/160 point", table4},
	{"5", "Table 5: Interrupt Handling (microseconds)",
		"synthesized handler bodies entered through a hand-built frame", table5},
	{"6", "Table 6: Network loopback sockets, synthesized vs generic layers",
		"128-byte datagrams between a loopback port pair, identical binaries;\n" +
			"synthesized send counts include the receive interrupt and queue deposit", table6},
	{"7", "Table 7: Throughput and recovery under injected faults",
		"128-byte datagrams, stop-and-wait ARQ over a seeded lossy loopback wire;\n" +
			"recovery latency is the extra time per lost frame vs the loss-free run", table7},
	{"ablations", "Ablations: Synthesis design choices isolated",
		"pairs of measurements at the SUN 3/160 point (paper column empty: these are ours)", ablations},
	{"pathlen", "Figure 2: MP-SC optimistic queue put, path length (instructions)",
		"Figure 2 transliterated to the Quamachine; instruction counter deltas", pathLengths},
	{"proc", "Table proc: guest-visible /proc/metrics, synthesized vs generic read",
		"256-byte reads of the kernel's own metrics snapshot from inside the VM;\n" +
			"both descriptors serve the identical per-open snapshot buffer", tableProc},
	{"queue_contention", "Figure 2 under contention: N producer threads, one consumer, 64-slot queue",
		fmt.Sprintf("%d items in total per run, %d usec quantum unless named; "+
			"a retry is a CAS that lost its claim to a producer that ran while this one was preempted",
			contentionItems, contentionQuantumUS), queueContention},
	{"size", "Section 6.4: Kernel size accounting",
		"synthesized Quamachine code, encoded-size estimate in bytes", sizeTable},
}

// Names returns the table names in tables' order.
func Names() []string {
	names := make([]string, len(tables))
	for i, t := range tables {
		names[i] = t.name
	}
	return names
}

// Run generates the named table. A table takes no configuration: its
// loop counts are the program list's and its seeds its own.
func Run(name string) (Table, error) {
	for _, t := range tables {
		if t.name == name {
			m := &meter{}
			rows := t.rows(m)
			return Table{Title: t.title, Note: t.note, Rows: rows}, m.err
		}
	}
	return Table{}, fmt.Errorf("bench: unknown table %q (have %v)", name, Names())
}
