// Package bench is the experiment harness: it regenerates every table
// of the paper's evaluation (Section 6) plus the ablations DESIGN.md
// calls out, running the same benchmark "binaries" on the Synthesis
// kernel (with its UNIX emulator) and on the traditional SUNOS-style
// baseline, both at the SUN 3/160 emulation point (16 MHz, one memory
// wait state).
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

// errMarks reports a mark-count mismatch.
func errMarks(got, want int) error {
	return fmt.Errorf("bench: recorded %d mark intervals, want %d", got, want)
}
