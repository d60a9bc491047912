package main

import (
	"errors"
	"fmt"
	"os"
	"sort"
	"strings"

	"synthesis/internal/asmkit"
	"synthesis/internal/bench"
	"synthesis/internal/fault"
	"synthesis/internal/kernel"
	"synthesis/internal/m68k"
	"synthesis/internal/metrics"
	"synthesis/internal/unixemu"
)

// Live monitoring mode: boot a full kernel (network, UNIX emulator,
// watchdog), drive a workload, and sample the metrics registry on a
// VM-time interval — the chunked Run makes the machine pause every
// intervalUS simulated microseconds so a snapshot delta can be
// streamed: counter rates, histogram percentiles, recovery events.
// Everything is timed in Machine.Clock() cycles; µs = cycles /
// ClockMHz (the snapshot carries both).
//
// The workload is the loopback socket exchange by default; -program
// substitutes a named bench program or an assembly text file (see
// resolveProgram).

// trafficPorts is the loopback pair the watch workload drives.
var trafficPorts = [2]uint32{5, 9}

const (
	watchBufA    = 0xB000
	watchBufB    = 0xD000
	watchPayload = 128
)

// buildTraffic emits the workload: open the loopback pair, then
// exchange datagrams forever. The monitor stops it by simply not
// running the machine any further.
func buildTraffic(b *asmkit.Builder) {
	call := func(no int32) {
		b.MoveL(m68k.Imm(no), m68k.D(0))
		b.Trap(0)
	}
	open := func(local, remote int32) {
		b.MoveL(m68k.Imm(local), m68k.D(1))
		b.MoveL(m68k.Imm(remote), m68k.D(2))
		call(unixemu.SysSocket)
	}
	open(int32(trafficPorts[0]), int32(trafficPorts[1]))
	b.MoveL(m68k.D(0), m68k.D(6))
	open(int32(trafficPorts[1]), int32(trafficPorts[0]))
	b.MoveL(m68k.D(0), m68k.D(7))
	b.Label("loop")
	b.MoveL(m68k.D(6), m68k.D(1))
	b.MoveL(m68k.Imm(watchBufA), m68k.D(2))
	b.MoveL(m68k.Imm(watchPayload), m68k.D(3))
	call(unixemu.SysWrite)
	b.MoveL(m68k.D(7), m68k.D(1))
	b.MoveL(m68k.Imm(watchBufB), m68k.D(2))
	b.MoveL(m68k.Imm(watchPayload), m68k.D(3))
	call(unixemu.SysRead)
	b.Bra("loop")
}

// resolveProgram turns the -program flag value into a linked-ready
// builder and a display name: "" is the loopback traffic workload, a
// known bench name resolves through the bench registry, anything else
// is read as a file and fed to the asmkit text assembler.
func resolveProgram(program string, iters int32) (*asmkit.Builder, string, error) {
	if program == "" {
		b := asmkit.New()
		buildTraffic(b)
		return b, "traffic", nil
	}
	if build, ok := bench.BuildWatchProgram(program, iters); ok {
		b := asmkit.New()
		build(b)
		return b, program, nil
	}
	src, err := os.ReadFile(program)
	if err != nil {
		return nil, "", fmt.Errorf("%q is neither a named workload (%s) nor a readable file: %w",
			program, strings.Join(bench.WatchProgramNames(), ","), err)
	}
	b, err := asmkit.Assemble(string(src))
	if err != nil {
		return nil, "", fmt.Errorf("%s: %w", program, err)
	}
	return b, program, nil
}

// runWatch is the -watch entry point; returns the monitored kernel and
// the process exit code.
func runWatch(intervalUS float64, windows int, program string, iters int32, faults fault.Plan, faultSeed int64, metricsJSON, promOut string) (*kernel.Kernel, int) {
	reg := metrics.New()
	// Boot publishes prof.irq.* through reg. The rig readies the name
	// strings, scratch buffer and benchmark file the named (and
	// hand-assembled) workloads expect.
	rig := bench.NewSynthRig(kernel.Config{Profile: true, Metrics: reg})
	k := rig.K
	rig.IO.InstallWatchdog(bench.StormThreshold)
	if !faults.Empty() {
		fault.New(faults, faultSeed).Attach(k.M)
	}
	for i := uint32(0); i < watchPayload; i += 4 {
		k.M.Poke(watchBufA+i, 4, 0x5a5a0000+i)
	}

	b, progName, err := resolveProgram(program, iters)
	if err != nil {
		fmt.Fprintf(os.Stderr, "quamon: -program %v\n", err)
		return k, 2
	}
	entry := b.Link(k.M)
	if k.Prof != nil {
		k.Prof.RegisterRegion("watch."+progName, entry, b.Len())
	}
	th := k.SpawnKernel(progName, entry)
	k.Start(th)

	intervalCycles := uint64(intervalUS * k.M.ClockMHz)
	if intervalCycles == 0 {
		intervalCycles = 1
	}
	fmt.Printf("watching %q for %d windows of %.0f µs simulated (%d cycles at %.0f MHz)\n\n",
		progName, windows, intervalUS, intervalCycles, k.M.ClockMHz)

	prev := reg.Snapshot()
	for w := 1; w <= windows; w++ {
		err := k.Run(intervalCycles)
		snap := reg.Snapshot()
		printWindow(w, snap, snap.Delta(prev))
		prev = snap
		if err == nil {
			fmt.Println("workload exited")
			break
		}
		if !errors.Is(err, m68k.ErrCycleLimit) {
			fmt.Fprintf(os.Stderr, "quamon: watch: %v\n", err)
			return k, 1
		}
	}
	return k, exportSnapshot(reg.Snapshot(), metricsJSON, promOut)
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
