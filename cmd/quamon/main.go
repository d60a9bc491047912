// quamon is the kernel monitor (Section 6.1: "measurement facilities
// include an instruction counter, a memory reference counter, hardware
// program tracing"): it boots a Synthesis kernel, runs one program
// from the bench list under sampling windows, streaming metric deltas,
// and then reports the machine counters, the profiler's program
// trace, the per-quaject disassembly and, with -profile, which named
// quaject regions the cycles went to, with optional Chrome trace
// export.
//
// Usage:
//
//	quamon                      # loopback socket traffic, 8 windows of deltas, then the report
//	quamon -disasm              # also disassemble the synthesized quajects
//	quamon -trace 64            # show the last N trace entries
//	quamon -trace 0             # no profiler: the fast loop production runs
//	quamon -profile -top 12     # per-region cycle attribution
//	quamon -profile -trace-json trace.json
//	quamon -faults spurious=7:20000,buserr=net@3 -seed 7
//	quamon -interval-us 1000 -windows 20 -prom metrics.prom
//	quamon -program procread             # another bench program, by its one name
//	quamon -program "open-close tty" -windows 10   # a finite one ends the windows when it exits
//	quamon -cluster -vms 4 -conns 128    # boot a fleet on the switch fabric
//	quamon -cluster -windows 0 -listen :9090   # serve live fleet metrics over HTTP
//	quamon -cluster -trace-every 8 -trace-json fleet.json   # merged per-hop fleet trace
//	quamon -cluster -flight              # arm the flight recorder (dump on VM death)
//
// The single machine is the bench rig's kernel (network, UNIX
// emulator, watchdog); every -interval-us of simulated time it streams
// counter rates, histogram percentiles and recovery events. -program
// takes any name in the bench program list (synbench -profile-run's
// names; the default is the endless loopback exchange "sock traffic
// 128 B"). -seed seeds the -faults schedule, and with -cluster the
// load generator too.
// The list's socket programs never resend: under a drop= or corrupt=
// item they stall for good once a frame is lost. Wire-loss recovery is
// measured by Table 7's stop-and-wait ARQ program (synbench -table 7)
// and by -cluster, whose load generator resends.
// -metrics-json and -prom write the final snapshot (use "-" for
// stdout). The profiler is attached only when -profile, -trace-json or
// -trace N>0 reads it, since it takes every instruction through Step:
// -trace 0 alone runs the fast loop and the collapsed copy loops, and
// its windows carry no prof.irq.* histograms.
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
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"synthesis/internal/bench"
	"synthesis/internal/fault"
	"synthesis/internal/prof"
)

func main() {
	disasm := flag.Bool("disasm", false, "disassemble the synthesized quajects")
	traceN := flag.Int("trace", 48, fmt.Sprintf("program-trace entries to display, at most %d "+
		"(0: none, and without -profile or -trace-json the profiler stays off)", prof.DefaultRingDepth))
	profile := flag.Bool("profile", false, "report the measurement plane's cycle attribution by region")
	top := flag.Int("top", 10, "regions to show in the -profile report")
	traceJSON := flag.String("trace-json", "",
		"write the Chrome trace (about:tracing JSON) here: the profile's with -profile, the merged fleet trace with -cluster")
	faults := flag.String("faults", "", "inject faults into the machine; with -cluster, "+
		"fleet clauses (link=/part=/vmfault=) drive the fabric fault plane (see grammar below)")
	program := flag.String("program", "sock traffic 128 B",
		fmt.Sprintf("the program to run: one of %q", bench.ProgramNames()))
	intervalUS := flag.Float64("interval-us", 2000,
		"microseconds per sampling window: simulated time, or wall time with -cluster (default 500000 there)")
	windows := flag.Int("windows", 8, "number of windows before stopping (0 with -cluster: run until ^C)")
	clusterMode := flag.Bool("cluster", false, "boot an N-Quamachine fleet on the switch fabric under echo load")
	vms := flag.Int("vms", 4, "Quamachine count for -cluster")
	conns := flag.Int("conns", 128, "logical connection count for -cluster")
	churn := flag.Int("churn", 0, "with -cluster, close and reopen each guest socket every N echoes (0 = never)")
	seed := flag.Int64("seed", 1, "seed for the -faults schedule and the -cluster load generator; a seed replays exactly")
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

	if *listen != "" && !*clusterMode {
		fmt.Fprintln(os.Stderr, "quamon: -listen requires -cluster")
		os.Exit(2)
	}
	if (*traceEvery != 0 || *flight) && !*clusterMode {
		fmt.Fprintln(os.Stderr, "quamon: -trace-every and -flight require -cluster")
		os.Exit(2)
	}
	if *clusterMode {
		// The single-machine window (2ms simulated) is far too fine for
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
	_, rc := run(runOpts{
		program: *program, intervalUS: *intervalUS, windows: *windows,
		faults: plan, seed: *seed,
		traceN: *traceN, profile: *profile, top: *top, traceJSON: *traceJSON, disasm: *disasm,
		metricsJSON: *metricsJSON, prom: *promOut,
	})
	os.Exit(rc)
}
