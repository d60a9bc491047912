package main

import (
	"errors"
	"fmt"
	"os"
	"sort"

	"synthesis/internal/asmkit"
	"synthesis/internal/bench"
	"synthesis/internal/fault"
	"synthesis/internal/kernel"
	"synthesis/internal/m68k"
	"synthesis/internal/metrics"
	"synthesis/internal/prof"
)

// The single-machine run: boot the bench rig's Synthesis kernel
// (network, UNIX emulator, watchdog), run one program from the bench
// list, and sample the metrics registry on a VM-time interval — the
// chunked Run makes the machine pause every intervalUS simulated
// microseconds so a snapshot delta can be streamed: counter rates,
// histogram percentiles, recovery events.
// Everything is timed in Machine.Clock() cycles; µs = cycles /
// ClockMHz (the snapshot carries both). After the last window, or
// when the program exits, comes the report: tty output, machine
// counters, injector statistics, the profile, the exports, the
// program trace's tail and the disassembly. The profiler is attached
// only when -profile, -trace-json or -trace N>0 reads it: attached, it
// takes every instruction through Step, so without it the machine
// runs Run's fast loop and collapsed copy loops, as production does,
// and prof.irq.* is absent from the windows and exports.

// runOpts carries the single-machine flag set.
type runOpts struct {
	program           string
	intervalUS        float64
	windows           int
	faults            fault.Plan
	seed              int64
	traceN            int
	profile           bool
	top               int
	traceJSON         string
	disasm            bool
	metricsJSON, prom string
}

// resolveProgram turns -program, a bench program's name, into the
// builder to link.
func resolveProgram(name string) (*asmkit.Builder, error) {
	build, _, _, err := bench.Program(name)
	if err != nil {
		return nil, err
	}
	b := asmkit.New()
	build(b)
	return b, nil
}

// run is the single-machine entry point; it returns the monitored
// kernel and the process exit code.
func run(o runOpts) (*kernel.Kernel, int) {
	reg := metrics.New()
	// Boot publishes prof.irq.* through reg when it attaches the
	// profiler. The rig readies the name strings, scratch buffers and
	// benchmark file the bench programs expect.
	profile := o.profile || o.traceJSON != "" || o.traceN > 0
	rig := bench.NewSynthRig(kernel.Config{Profile: profile, Metrics: reg})
	k := rig.K
	if o.traceN > 0 {
		k.Prof.ArmTrace(min(o.traceN, prof.DefaultRingDepth))
	}
	rig.IO.InstallWatchdog(bench.StormThreshold)
	var inj *fault.Injector
	if !o.faults.Empty() {
		inj = fault.New(o.faults, o.seed)
		inj.Attach(k.M)
	}

	b, err := resolveProgram(o.program)
	if err != nil {
		fmt.Fprintf(os.Stderr, "quamon: -program %v\n", err)
		return k, 2
	}
	k.Start(k.SpawnKernel("bench", bench.Link(k.M, b)))

	intervalCycles := max(uint64(o.intervalUS*k.M.ClockMHz), 1)
	fmt.Printf("watching %q for %d windows of %.0f µs simulated (%d cycles at %.0f MHz)\n\n",
		o.program, o.windows, o.intervalUS, intervalCycles, k.M.ClockMHz)
	prev := reg.Snapshot()
	for w := 1; w <= o.windows; w++ {
		err := k.Run(intervalCycles)
		snap := reg.Snapshot()
		printWindow(w, snap, snap.Delta(prev))
		prev = snap
		if err == nil {
			fmt.Println("workload exited")
			break
		}
		if !errors.Is(err, m68k.ErrCycleLimit) {
			fmt.Fprintf(os.Stderr, "quamon: %v\n", err)
			return k, 1
		}
	}
	return k, report(k, inj, o)
}

// report prints what the run left: tty output, machine counters,
// injector statistics, the profile (and its Chrome trace), the metrics
// exports, the program trace's tail and, with -disasm, every
// thread's synthesized quaject entries. It returns the exit code.
func report(k *kernel.Kernel, inj *fault.Injector, o runOpts) int {
	fmt.Printf("tty output: %q\n\n", string(k.TTY.Output()))
	fmt.Printf("machine counters: %d instructions, %d memory references, %d cycles (%.1f usec simulated)\n\n",
		k.M.Instrs, k.M.MemRefs, k.M.Cycles, k.M.Now())
	if inj != nil {
		fmt.Printf("fault injector: %+v\n", inj.Stats)
		if len(k.Faults) > 0 {
			fmt.Printf("threads killed by injected faults: %+v\n", k.Faults)
		}
		if n := k.SpuriousIRQs(); n > 0 {
			fmt.Printf("spurious interrupts absorbed: %d\n", n)
		}
		fmt.Println()
	}
	if o.profile || o.traceJSON != "" {
		fmt.Printf("top regions by cycles:\n%s\n", k.Prof.Report(o.top, 0))
	}
	if o.traceJSON != "" {
		f, err := os.Create(o.traceJSON)
		if err != nil {
			fmt.Fprintf(os.Stderr, "quamon: %v\n", err)
			return 1
		}
		err = k.Prof.WriteChromeTrace(f)
		f.Close()
		if err != nil {
			fmt.Fprintf(os.Stderr, "quamon: trace export: %v\n", err)
			return 1
		}
		fmt.Printf("trace written to %s (load in about:tracing or ui.perfetto.dev)\n\n", o.traceJSON)
	}
	if rc := exportSnapshot(k.Metrics.Snapshot(), o.metricsJSON, o.prom); rc != 0 {
		return rc
	}
	if o.traceN > 0 {
		fmt.Printf("execution trace (last %d entries):\n", o.traceN)
		fmt.Print(k.Prof.Tail(o.traceN))
	}
	if o.disasm {
		fmt.Println("\nsynthesized quajects:")
		for t := range k.Threads() {
			fmt.Printf("\n--- thread %s ---\n", t.Name)
			for _, entry := range t.Q.EntryNames() {
				addr := t.Q.Entries[entry]
				fmt.Printf("%s @ %d:\n%s", entry, addr, m68k.Disassemble(k.M.Code, addr, 18))
			}
		}
	}
	return 0
}

// printWindow streams one delta: the busiest counters as rates, any
// nonzero gauges, and percentile lines for histograms that saw
// observations this window.
func printWindow(w int, snap metrics.Snapshot, d metrics.Delta) {
	fmt.Printf("window %d: t=%.0f µs (+%.0f µs, %d cycles)\n",
		w, snap.Micros(), d.Micros(), d.Cycles)
	type kv struct {
		name string
		n    uint64
	}
	var hot []kv
	for n, v := range d.Counters {
		if v > 0 {
			hot = append(hot, kv{n, v})
		}
	}
	sort.Slice(hot, func(i, j int) bool {
		if hot[i].n != hot[j].n {
			return hot[i].n > hot[j].n
		}
		return hot[i].name < hot[j].name
	})
	const maxRows = 14
	shown := hot
	if len(shown) > maxRows {
		shown = shown[:maxRows]
	}
	for _, c := range shown {
		fmt.Printf("  %-36s +%-10d %12.0f /s\n", c.name, c.n, d.Rate(c.name))
	}
	if len(hot) > maxRows {
		fmt.Printf("  (%d more nonzero counters)\n", len(hot)-maxRows)
	}
	var gnames []string
	for n, v := range d.Gauges {
		if v != 0 {
			gnames = append(gnames, n)
		}
	}
	sort.Strings(gnames)
	for _, n := range gnames {
		fmt.Printf("  %-36s = %g\n", n, d.Gauges[n])
	}
	var hnames []string
	for n, h := range d.Hists {
		if h.Count > 0 {
			hnames = append(hnames, n)
		}
	}
	sort.Strings(hnames)
	for _, n := range hnames {
		h := d.Hists[n]
		fmt.Printf("  %-36s n=%-8d p50=%-8.0f p99=%-8.0f max=%d\n",
			n, h.Count, h.Quantile(0.5), h.Quantile(0.99), h.Max)
	}
	if ev := d.Counters["kio.net.recovery_events"]; ev > 0 {
		fmt.Printf("  ** %d recovery event(s) this window\n", ev)
	}
	fmt.Println()
}

// exportSnapshot writes the final snapshot in the requested formats
// ("-" selects stdout).
func exportSnapshot(snap metrics.Snapshot, metricsJSON, promOut string) int {
	write := func(path, what string, emit func(f *os.File) error) int {
		f := os.Stdout
		if path != "-" {
			var err error
			f, err = os.Create(path)
			if err != nil {
				fmt.Fprintf(os.Stderr, "quamon: %v\n", err)
				return 1
			}
			defer f.Close()
		}
		if err := emit(f); err != nil {
			fmt.Fprintf(os.Stderr, "quamon: %s export: %v\n", what, err)
			return 1
		}
		if path != "-" {
			fmt.Printf("%s snapshot written to %s\n", what, path)
		}
		return 0
	}
	if metricsJSON != "" {
		if rc := write(metricsJSON, "metrics JSON", func(f *os.File) error {
			return snap.WriteJSON(f)
		}); rc != 0 {
			return rc
		}
	}
	if promOut != "" {
		if rc := write(promOut, "Prometheus", func(f *os.File) error {
			return snap.WritePrometheus(f)
		}); rc != 0 {
			return rc
		}
	}
	return 0
}
