// synbench regenerates the evaluation of "Threads and Input/Output in
// the Synthesis Kernel" (Massalin & Pu, SOSP 1989) on the simulated
// Quamachine at the SUN 3/160 emulation point: the paper's Tables 1-5,
// the Figure 2 path lengths, the Section 6.4 size accounting and the
// design-choice ablations, plus three extensions measured the same
// way (Table 6 network sockets, Table 7 faults, the /proc/metrics
// quaject). Every table runs on the guest cycle clock, so its numbers
// are identical on every host and every run. Wall-clock measurements
// live in `go run ./benchmark`.
//
// Tables come from the bench registry, so a newly registered table is
// runnable here without touching this command.
//
// Usage:
//
//	synbench                          # everything
//	synbench -table 1                 # one table (see -table help for names)
//	synbench -json bench/baseline     # also write BENCH_*.json artifacts and PAPER_GAPS.md
//	synbench -profile-run "open-close tty" -top 15 -trace-json trace.json
//	synbench -profile-run "sock echo 64 B" -top 8   # the datagram path, instructions per iteration
//
// Every table and program runs in its one configuration: a program's
// loop count is its bench-list entry's, and Table 7 seeds its own loss
// and storm schedules. So `synbench -json bench/baseline` regenerates
// the committed artifacts that `go test ./internal/bench` holds every
// table byte-equal to, and with them the ledger of paper rows
// (PAPER_GAPS.md); run it when a change legitimately moves the numbers
// and review the diff. `quamon -program NAME -faults SPEC -seed N` runs
// a list program under faults.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"synthesis/internal/bench"
)

func main() {
	table := flag.String("table", "all",
		"which table to regenerate: all or one of "+strings.Join(bench.Names(), ","))
	profileRun := flag.String("profile-run", "",
		"run one bench program profiled and report attribution: one of "+
			strings.Join(bench.ProgramNames(), ", ")+" (the endless ones run under quamon)")
	top := flag.Int("top", 10, "regions to show in the -profile-run report")
	traceJSON := flag.String("trace-json", "", "write the -profile-run Chrome trace (about:tracing JSON) here")
	jsonDir := flag.String("json", "", "also write each table as a BENCH_*.json artifact into this directory, and with every table the PAPER_GAPS.md ledger")
	flag.Parse()

	if *profileRun != "" {
		p, loops, err := bench.RunProfiled(*profileRun)
		if err != nil {
			fmt.Fprintf(os.Stderr, "synbench: profile-run: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("profile: %s (%d iterations)\n", *profileRun, loops)
		fmt.Print(p.Report(*top, uint64(loops)))
		if *traceJSON != "" {
			f, err := os.Create(*traceJSON)
			if err != nil {
				fmt.Fprintf(os.Stderr, "synbench: %v\n", err)
				os.Exit(1)
			}
			if err := p.WriteChromeTrace(f); err != nil {
				fmt.Fprintf(os.Stderr, "synbench: trace export: %v\n", err)
				os.Exit(1)
			}
			f.Close()
			fmt.Printf("trace written to %s (load in about:tracing or ui.perfetto.dev)\n", *traceJSON)
		}
		return
	}

	names := bench.Names()
	if *table != "all" {
		if !slices.Contains(names, *table) {
			fmt.Fprintf(os.Stderr, "synbench: unknown table %q\n", *table)
			os.Exit(2)
		}
		names = []string{*table}
	}
	tables := map[string]bench.Table{}
	for _, name := range names {
		t, err := bench.Run(name)
		if err != nil {
			fmt.Fprintf(os.Stderr, "synbench: table %s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Println(t.String())
		if *jsonDir != "" {
			path, err := bench.WriteArtifact(*jsonDir, name, t)
			if err != nil {
				fmt.Fprintf(os.Stderr, "synbench: table %s: %v\n", name, err)
				os.Exit(1)
			}
			fmt.Printf("artifact written to %s\n\n", path)
		}
		tables[name] = t
	}
	if *jsonDir != "" && *table == "all" {
		if err := os.WriteFile(filepath.Join(*jsonDir, bench.GapsFile), []byte(bench.PaperGaps(tables)), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "synbench: %v\n", err)
			os.Exit(1)
		}
	}
}
