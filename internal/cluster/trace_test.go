package cluster

import (
	"fmt"
	"regexp"
	"strings"
	"testing"
	"time"
)

// waitTraces polls until the trace plane has completed at least n
// traces or the deadline passes.
func waitTraces(t *testing.T, c *Cluster, n uint64, d time.Duration) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if err := c.Err(); err != nil {
			t.Fatalf("fleet error while waiting: %v", err)
		}
		if _, done, _, _ := c.TraceCounts(); done >= n {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	_, done, _, _ := c.TraceCounts()
	t.Fatalf("completed traces = %d, want >= %d within %v", done, n, d)
}

// TestTraceConservation is the trace plane's frame-identity analogue:
// on every completed trace, the nine event stamps are monotone, the
// eight hop deltas are each non-negative, and their sum equals the
// round trip measured between the same two clock reads the load
// generator used — exactly, not within a tolerance, because the
// endpoints are shared and the interior telescopes. It also bounds
// the bookkeeping: every sampled request is accounted completed,
// incomplete, abandoned, or still pending, and on a healthy fleet
// the large majority complete.
func TestTraceConservation(t *testing.T) {
	c := New(Config{
		VMs: 2, SocketsPerVM: 4, Conns: 16, PayloadBytes: 32,
		TraceEvery: 4, Seed: 7,
	})
	c.Start()
	defer c.Stop()
	waitTraces(t, c, 32, 20*time.Second)
	c.Stop()

	traces := c.Traces()
	if len(traces) < 32 {
		t.Fatalf("retained traces = %d, want >= 32", len(traces))
	}
	for _, r := range traces {
		for i := 0; i < HopCount; i++ {
			if r.HopNS(i) < 0 {
				t.Fatalf("conn %d seq %d: hop %s negative (%d ns); stamps %v",
					r.Conn, r.VM, HopName(i), r.HopNS(i), r.T)
			}
		}
		var sum int64
		for i := 0; i < HopCount; i++ {
			sum += r.HopNS(i)
		}
		if sum != r.RTTNS() {
			t.Fatalf("conn %d: hop sum %d ns != rtt %d ns", r.Conn, sum, r.RTTNS())
		}
		if r.RTTNS() <= 0 {
			t.Fatalf("conn %d: non-positive traced rtt %d ns", r.Conn, r.RTTNS())
		}
		if r.VM < 1 || r.VM > 2 {
			t.Fatalf("conn %d: traced vm = %d", r.Conn, r.VM)
		}
	}

	sampled, completed, incomplete, abandoned := c.TraceCounts()
	if accounted := completed + incomplete + abandoned; accounted > sampled {
		t.Fatalf("trace accounting leak: completed %d + incomplete %d + abandoned %d > sampled %d",
			completed, incomplete, abandoned, sampled)
	}
	// A quiet fleet (no faults, no churn) should complete most chains;
	// the slack covers requests still pending at Stop and the odd
	// timeout-resend under host scheduling jitter.
	if completed*4 < sampled*3 {
		t.Fatalf("completion rate: %d of %d sampled", completed, sampled)
	}

	// The per-hop histograms saw every completed trace.
	snap := c.Snapshot()
	for i := 0; i < HopCount; i++ {
		h := snap.Hists["cluster.trace.hop."+HopName(i)+"_us"]
		if h.Count != completed {
			t.Errorf("hop %s histogram count = %d, want %d", HopName(i), h.Count, completed)
		}
	}
}

// TestTraceDisabledZeroCost pins the off-state contract: TraceEvery 0
// leaves the tracer nil and registers no cluster.trace metrics.
func TestTraceDisabledZeroCost(t *testing.T) {
	c := New(Config{VMs: 1, SocketsPerVM: 2, Conns: 2, Seed: 1})
	if c.tr != nil {
		t.Fatal("tracer armed without TraceEvery")
	}
	if c.Traces() != nil {
		t.Fatal("Traces() non-nil with tracing off")
	}
	for _, n := range c.Reg.Names() {
		if strings.HasPrefix(n, "cluster.trace.") {
			t.Fatalf("trace metric %q registered with tracing off", n)
		}
	}
	// VMs boot without the profiler when unobserved.
	if c.vms[0].K.Prof != nil {
		t.Fatal("profiler attached without tracing or flight")
	}
}

// TestWriteTrace checks the merged Chrome export: a process row per
// VM plus the fabric row, hop slices for retained traces, and VM
// region slices mapped onto the wall timeline.
func TestWriteTrace(t *testing.T) {
	c := New(Config{
		VMs: 2, SocketsPerVM: 2, Conns: 8, PayloadBytes: 32,
		TraceEvery: 4, Seed: 11,
	})
	c.Start()
	defer c.Stop()
	waitTraces(t, c, 8, 20*time.Second)
	c.Stop()

	var buf strings.Builder
	if err := c.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`"fabric/loadgen"`, `"vm1"`, `"vm2"`,
		`"fabric_out"`, `"host_dwell"`, `"guest_send"`,
		`"kio.net_intr"`, // a VM region slice made it onto the timeline
	} {
		if !strings.Contains(out, want) {
			t.Errorf("merged trace missing %s", want)
		}
	}
}

// TestFlightRecorderDump kills a guest and expects the flight
// recorder to capture the failure's tail: the error, the thread
// table, profiler events, and, last, the profiler's final
// flightInstrTail program-trace entries.
func TestFlightRecorderDump(t *testing.T) {
	c := New(Config{
		VMs: 1, SocketsPerVM: 2, Conns: 2, PayloadBytes: 32,
		Flight: true, Seed: 5,
	})
	c.Start()
	defer c.Stop()
	waitReplies(t, c, 50, 20*time.Second)

	// Induce a guest panic: KillVM sets PanicMsg, which Run maps to
	// ErrPanic — the same path a real panic service trap takes.
	c.KillVM(1, "induced failure")

	deadline := time.Now().Add(10 * time.Second)
	for len(c.FlightDumps()) == 0 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	dumps := c.FlightDumps()
	if len(dumps) == 0 {
		t.Fatal("no flight dump after induced failure")
	}
	d := dumps[0]
	for _, want := range []string{
		"==== flight vm1 ====",
		"error:",
		"panic: induced failure",
		"thread ",
		"-- last ",
	} {
		if !strings.Contains(d, want) {
			t.Errorf("flight dump missing %q:\n%s", want, d)
		}
	}
	head := fmt.Sprintf("-- last %d instructions --\n", flightInstrTail)
	_, instrs, ok := strings.Cut(d, head)
	lines := strings.SplitAfter(instrs, "\n")
	entry := regexp.MustCompile(`^ *\d+  ( *\d+: \S|\*\* exception vector \d+ \(from pc \d+\)$)`)
	if !ok || len(lines) != flightInstrTail+1 || lines[flightInstrTail] != "" {
		t.Fatalf("flight dump does not end with %q and %d entries:\n%s", head, flightInstrTail, d)
	}
	for _, l := range lines[:flightInstrTail] {
		if !entry.MatchString(strings.TrimSuffix(l, "\n")) {
			t.Errorf("flight dump's program trace has a line %q", l)
		}
	}

	// DumpFlight renders on demand too (soak-failure path).
	var buf strings.Builder
	c.DumpFlight(&buf)
	if !strings.Contains(buf.String(), "==== flight vm1 ====") {
		t.Error("DumpFlight produced no per-VM section")
	}
}

// TestFlightDumpShowsParkedThreadsBlocked drains a flight fleet to
// quiet and reads its thread tables: every echo thread is parked in
// recv, off the ready ring, and must be listed blocked, not ready.
func TestFlightDumpShowsParkedThreadsBlocked(t *testing.T) {
	c := New(Config{VMs: 2, SocketsPerVM: 2, Conns: 4, PayloadBytes: 32, Seed: 5,
		Timeout: 20 * time.Millisecond, Flight: true})
	c.Start()
	defer c.Stop()
	waitActive(t, c, 4, 30*time.Second)
	cutAndPark(t, c)

	var buf strings.Builder
	c.DumpFlight(&buf)
	echoes := 0
	for _, line := range strings.Split(buf.String(), "\n") {
		f := strings.Fields(line)
		if len(f) != 4 || f[0] != "thread" || !strings.HasPrefix(f[1], "echo") {
			continue
		}
		echoes++
		if f[3] != "blocked" {
			t.Errorf("parked fleet lists %s", line)
		}
	}
	if want := 2 * 2; echoes != want {
		t.Errorf("dump lists %d echo threads, want %d:\n%s", echoes, want, buf.String())
	}
}
