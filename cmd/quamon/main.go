// quamon is the kernel monitor (Section 6.1: "measurement facilities
// include an instruction counter, a memory reference counter, hardware
// program tracing"): it boots a Synthesis kernel, runs a small
// demonstration workload, and dumps the execution trace, the
// per-quaject disassembly, and the machine counters. With -profile it
// attaches the measurement plane and reports which named quaject
// regions the cycles went to, with optional Chrome trace export.
//
// Usage:
//
//	quamon                      # run the demo workload with tracing
//	quamon -disasm              # also disassemble the synthesized quajects
//	quamon -trace 64            # show the last N trace entries
//	quamon -profile -top 12     # per-region cycle attribution
//	quamon -profile -trace-json trace.json
//	quamon -faults spurious=7:20000,buserr=disk@3 -fault-seed 7
//	quamon -watch               # live metrics: loopback traffic, per-window deltas
//	quamon -watch -interval-us 1000 -windows 20 -prom metrics.prom
//	quamon -watch -program procread      # named bench workload instead
//	quamon -watch -program workload.s    # or an assembly text file
//	quamon -cluster -vms 4 -conns 128    # boot a fleet on the switch fabric
//	quamon -cluster -windows 0 -listen :9090   # serve live fleet metrics over HTTP
//	quamon -cluster -trace-every 8 -trace-json fleet.json   # merged per-hop fleet trace
//	quamon -cluster -flight              # arm the flight recorder (dump on VM death)
//
// -cluster boots N Quamachines bridged by the switch fabric under
// multiplexed echo load and streams wall-clock metric windows;
// -listen serves the live fleet's metrics over HTTP as Prometheus
// text (/metrics), JSON (/metrics.json), a liveness probe (/healthz),
// and the merged Chrome trace (/trace.json).
// -trace-every samples echo round trips through the fleet trace
// plane, attributing each to its eight hops; -trace-json writes the
// merged fleet timeline at exit. -flight keeps a per-VM flight
// recorder armed and dumps the dying VM's tail to stderr on failure.
//
// -watch boots the full kernel (network, UNIX emulator, watchdog),
// drives a workload, and streams metric deltas every -interval-us of
// simulated time: counter rates, histogram percentiles, recovery
// events. The default workload is a loopback socket exchange;
// -program substitutes a named bench program (compute, pipe-1b,
// pipe-1k, pipe-4k, file-rw, open-null, open-tty, procread) or a file
// assembled with the asmkit text assembler. -metrics-json and -prom
// write the final snapshot (use "-" for stdout).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"synthesis/internal/bench"
	"synthesis/internal/fault"
	"synthesis/internal/kernel"
	"synthesis/internal/kio"
	"synthesis/internal/m68k"
	"synthesis/internal/metrics"
	"synthesis/internal/synth"
	"synthesis/internal/unixemu"
)

func main() {
	disasm := flag.Bool("disasm", false, "disassemble the synthesized quajects")
	traceN := flag.Int("trace", 48, "trace entries to display")
	profile := flag.Bool("profile", false, "attach the measurement plane and report cycle attribution")
	top := flag.Int("top", 10, "regions to show in the -profile report")
	traceJSON := flag.String("trace-json", "",
		"write the Chrome trace (about:tracing JSON) here: the profile's with -profile, the merged fleet trace with -cluster")
	iters := flag.Int("iters", 200, "loop count for finite -program workloads")
	faults := flag.String("faults", "", "inject faults into the demo or -watch machine; with -cluster, "+
		"fleet clauses (link=/part=/vmfault=) drive the fabric fault plane (see grammar below)")
	faultSeed := flag.Int64("fault-seed", 1, "seed for the -faults schedule; a seed replays exactly")
	watch := flag.Bool("watch", false, "live-monitor a workload, streaming metric deltas")
	program := flag.String("program", "",
		"workload for -watch: a named bench program ("+strings.Join(bench.WatchProgramNames(), ",")+
			") or an assembly text file; default is the loopback socket exchange")
	intervalUS := flag.Float64("interval-us", 2000,
		"microseconds per sampling window: simulated time for -watch, wall time for -cluster (default 500000 there)")
	windows := flag.Int("windows", 8, "number of -watch/-cluster windows before stopping (0 with -cluster: run until ^C)")
	clusterMode := flag.Bool("cluster", false, "boot an N-Quamachine fleet on the switch fabric under echo load")
	vms := flag.Int("vms", 4, "Quamachine count for -cluster")
	conns := flag.Int("conns", 128, "logical connection count for -cluster")
	churn := flag.Int("churn", 0, "with -cluster, close and reopen each guest socket every N echoes (0 = never)")
	seed := flag.Int64("seed", 1, "payload and fault seed for the -cluster load generator")
	timeout := flag.Duration("timeout", 500*time.Millisecond,
		"with -cluster, resend timeout per in-flight echo (backoff doubles it per resend)")
	maxResends := flag.Int("max-resends", 0,
		"with -cluster, resends before a connection gives up (0 = never give up)")
	listen := flag.String("listen", "",
		"with -cluster, serve the live fleet over HTTP on this address (/metrics, /metrics.json, /healthz, /trace.json)")
	traceEvery := flag.Int("trace-every", 0,
		"with -cluster, sample one echo round trip in N through the per-hop trace plane (0 = off)")
	flight := flag.Bool("flight", false,
		"with -cluster, arm the per-VM flight recorder; a dying VM dumps its tail to stderr")
	metricsJSON := flag.String("metrics-json", "", "write the final metrics snapshot as JSON here (\"-\" for stdout)")
	promOut := flag.String("prom", "", "write the final metrics snapshot as Prometheus text here (\"-\" for stdout)")
	defaultUsage := flag.Usage
	flag.Usage = func() {
		defaultUsage()
		fmt.Fprintf(flag.CommandLine.Output(), "\n%s\n", fault.SpecHelp)
	}
	flag.Parse()

	plan, err := fault.Parse(*faults)
	if err != nil {
		fmt.Fprintf(os.Stderr, "quamon: %v\n%s\n", err, fault.SpecHelp)
		os.Exit(2)
	}
	if plan.Fleet() && !*clusterMode {
		fmt.Fprintln(os.Stderr, "quamon: link=/part=/vmfault= clauses need -cluster")
		os.Exit(2)
	}

	if *program != "" && !*watch {
		fmt.Fprintln(os.Stderr, "quamon: -program requires -watch")
		os.Exit(2)
	}
	if *listen != "" && !*clusterMode {
		fmt.Fprintln(os.Stderr, "quamon: -listen requires -cluster")
		os.Exit(2)
	}
	if (*traceEvery != 0 || *flight) && !*clusterMode {
		fmt.Fprintln(os.Stderr, "quamon: -trace-every and -flight require -cluster")
		os.Exit(2)
	}
	if *clusterMode {
		// The -watch default window (2ms simulated) is far too fine for
		// wall-clock fleet sampling; only an explicit -interval-us
		// overrides the 500ms cluster default.
		iv := 500_000.0
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "interval-us" {
				iv = *intervalUS
			}
		})
		os.Exit(runCluster(clusterOpts{
			vms: *vms, conns: *conns, churn: *churn, seed: *seed,
			listen: *listen, intervalUS: iv, windows: *windows,
			metricsJSON: *metricsJSON, prom: *promOut,
			faults: plan, timeout: *timeout, maxResends: *maxResends,
			traceEvery: *traceEvery, traceJSON: *traceJSON, flight: *flight,
		}))
	}
	if *watch {
		_, rc := runWatch(*intervalUS, *windows, *program, int32(*iters),
			plan, *faultSeed, *metricsJSON, *promOut)
		os.Exit(rc)
	}

	cfg := m68k.Sun3Config()
	cfg.TraceDepth = 4096
	reg := metrics.New()
	k := kernel.Boot(kernel.Config{
		Machine:         cfg,
		ChargeSynthesis: true,
		Profile:         *profile || *traceJSON != "",
		Metrics:         reg,
	})
	io := kio.Install(k)
	unixemu.Install(k)
	_ = io
	var inj *fault.Injector
	if !plan.Empty() {
		inj = fault.New(plan, *faultSeed)
		inj.Attach(k.M)
	}

	if _, err := k.FS.CreateSized("/etc/motd", []byte("welcome to synthesis\n"), 256); err != nil {
		panic(err)
	}
	nameAddr := uint32(0xA000)
	for i, c := range []byte("/etc/motd\x00") {
		k.M.Poke(nameAddr+uint32(i), 1, uint32(c))
	}

	// Demo workload: open the file natively, read it, write it to the
	// tty, and exit.
	prog := k.C.Synthesize(nil, "demo", nil, func(e *synth.Emitter) {
		e.MoveL(m68k.Imm(kernel.SysOpen), m68k.D(0))
		e.MoveL(m68k.Imm(int32(nameAddr)), m68k.D(1))
		e.Trap(kernel.TrapSys)
		e.MoveL(m68k.Imm(0xB000), m68k.D(1))
		e.MoveL(m68k.Imm(64), m68k.D(2))
		e.Trap(kernel.TrapRead + 0)
		e.MoveL(m68k.D(0), m68k.D(5)) // length read
		// Write it to the tty (open -> fd 1).
		e.MoveL(m68k.Imm(kernel.SysOpen), m68k.D(0))
		e.MoveL(m68k.Imm(0xA010), m68k.D(1))
		e.Trap(kernel.TrapSys)
		e.MoveL(m68k.Imm(0xB000), m68k.D(1))
		e.MoveL(m68k.D(5), m68k.D(2))
		e.Trap(kernel.TrapWrite + 1)
		e.MoveL(m68k.Imm(kernel.SysExit), m68k.D(0))
		e.Trap(kernel.TrapSys)
	})
	for i, c := range []byte("/dev/tty\x00") {
		k.M.Poke(0xA010+uint32(i), 1, uint32(c))
	}

	th := k.SpawnKernel("demo", prog)
	k.Start(th)
	if err := k.Run(50_000_000); err != nil {
		fmt.Println("run:", err)
	}

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

	if k.Prof != nil {
		fmt.Printf("top regions by cycles:\n%s\n", k.Prof.Report(*top, 0))
		if *traceJSON != "" {
			f, err := os.Create(*traceJSON)
			if err != nil {
				fmt.Fprintf(os.Stderr, "quamon: %v\n", err)
				os.Exit(1)
			}
			if err := k.Prof.WriteChromeTrace(f); err != nil {
				fmt.Fprintf(os.Stderr, "quamon: trace export: %v\n", err)
				os.Exit(1)
			}
			f.Close()
			fmt.Printf("trace written to %s (load in about:tracing or ui.perfetto.dev)\n\n", *traceJSON)
		}
	}

	if rc := exportSnapshot(reg.Snapshot(), *metricsJSON, *promOut); rc != 0 {
		os.Exit(rc)
	}

	fmt.Printf("execution trace (last %d entries):\n", *traceN)
	fmt.Print(k.M.Trace.Tail(*traceN))

	if *disasm {
		fmt.Println("\nsynthesized quajects:")
		for t := range k.Threads() {
			fmt.Printf("\n--- thread %s ---\n", t.Name)
			for _, entry := range t.Q.EntryNames() {
				addr := t.Q.Entries[entry]
				fmt.Printf("%s @ %d:\n%s", entry, addr, m68k.Disassemble(k.M.Code, addr, 18))
			}
		}
	}
}
