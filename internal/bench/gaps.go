package bench

import (
	"fmt"
	"strings"
)

// The ledger of paper rows (bench/baseline/GapsFile), rendered from the
// regenerated tables so no paper-row value is hand-copied into a
// document. ROADMAP aim 3's rule is TestPaperGaps: a row more than
// GapBound from the paper, either way, has an owner in gapOwners, and
// every owner has such a row.
const (
	GapBound = 1.5
	GapsFile = "PAPER_GAPS.md"
)

// gapOwners owns each row beyond GapBound, by registry name and row
// name: a ROADMAP letter, or a one-line reason.
var gapOwners = map[[2]string]string{
	{"1", "pipe r/w 1 B (speedup sun/synthesis)"}:    "G",
	{"1", "pipe r/w 1 KB (speedup sun/synthesis)"}:   "G",
	{"1", "pipe r/w 4 KB (speedup sun/synthesis)"}:   "G",
	{"1", "open-close null (speedup sun/synthesis)"}: "G",
	{"1", "open-close tty (speedup sun/synthesis)"}:  "G",
	{"2", "close"}: "the slot keeps its code region for the next open, so close frees nothing (DESIGN.md §2a)",
	{"2", "read N chars from file (per 8 chars)"}: "the synthesized copy moves 32 bytes per MOVEM pair (EXPERIMENTS.md, Table 2)",
	{"3", "start"}:                                         "C",
	{"3", "step"}:                                          "C",
	{"4", "full context switch"}:                           "C",
	{"4", "full context switch (FP registers)"}:            "C",
	{"4", "partial context switch"}:                        "C",
	{"4", "block thread"}:                                  "C",
	{"4", "unblock thread"}:                                "C",
	{"5", "service raw A/D interrupt"}:                     "the interrupt's entry and RTE alone are 3.4 µs (EXPERIMENTS.md, Table 5)",
	{"5", "chain to a procedure (CAS)"}:                    "ours runs no retry; the paper's 7 µs includes one",
	{"size", "static kernel (boot-time synthesized code)"}: "ours counts synthesized code only; the paper's counts the whole hand-written kernel",
}

// gap is the larger of ours/paper and paper/ours.
func gap(r Row) float64 { return max(r.Measured/r.Paper, r.Paper/r.Measured) }

// PaperGaps renders the ledger from the tables, keyed by registry name.
func PaperGaps(tables map[string]Table) string {
	var b strings.Builder
	fmt.Fprintf(&b, "# Paper rows: ours against the paper\n\nRendered by `go run ./cmd/synbench -json bench/baseline`; "+
		"`go test ./internal/bench` holds it byte-equal.\nThe gap is the larger of ours/paper and paper/ours (over: ours "+
		"is larger). A row beyond %.1f× has an owner:\na ROADMAP letter or a one-line reason.\n\n"+
		"| table | row | paper | ours | unit | gap | owner |\n|---|---|---|---|---|---|---|\n", GapBound)
	for _, name := range Names() {
		for _, r := range tables[name].Rows {
			if r.Paper == 0 {
				continue
			}
			dir := "under"
			if r.Measured > r.Paper {
				dir = "over"
			}
			fmt.Fprintf(&b, "| %s | %s | %.2f | %.2f | %s | %.2f %s | %s |\n",
				name, r.Name, r.Paper, r.Measured, r.Unit, gap(r), dir, gapOwners[[2]string{name, r.Name}])
		}
	}
	return b.String()
}
