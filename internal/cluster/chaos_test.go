package cluster

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"synthesis/internal/net"
)

// dumpFlightOnFailure arranges for the fleet's flight-recorder state
// to be written to $FLIGHT_DIR if the test fails — CI uploads the
// directory as an artifact, turning the next soak heisenbug from a
// bisect hunt into reading a dump.
func dumpFlightOnFailure(t *testing.T, c *Cluster) {
	t.Helper()
	t.Cleanup(func() {
		if !t.Failed() {
			return
		}
		dir := os.Getenv("FLIGHT_DIR")
		if dir == "" {
			return
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Logf("flight dump: %v", err)
			return
		}
		var b strings.Builder
		c.DumpFlight(&b)
		path := filepath.Join(dir, fmt.Sprintf("%s.flight.txt", t.Name()))
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Logf("flight dump: %v", err)
			return
		}
		t.Logf("flight dump written to %s", path)
	})
}

// TestChaosSoak is the seeded, bounded chaos run CI executes under
// -race (the chaos-soak make target): two VMs take live echo traffic
// through lossy/corrupting/delaying links, per-VM injected ring-full
// drops, and socket churn, then a full host<->vm1 partition and heal.
// The invariants:
//
//   - no VM driver error — faults never crash a member, they only
//     lose, damage, or delay frames;
//   - acked-byte sequence integrity — every connection's completed
//     sequence count sums exactly to the reply counter, and the host
//     never accepts a damaged frame (corruption is injected only
//     toward the VMs, so host bad_sum must stay zero);
//   - liveness — with the resend cap set generously, no connection
//     gives up, and every connection the cut severed completes a
//     round trip after the heal;
//   - exact fabric accounting — the conservation identity over the
//     fault plane's counters balances to the frame.
func TestChaosSoak(t *testing.T) {
	cfg := fleetConfig(t, 2,
		"link=0>1:drop=0.03,corrupt=0.02;"+
			"link=0>2:drop=0.03,dup=0.02;"+
			"link=*>0:drop=0.02,delay=0.05:0.5;"+
			"vmfault=1:ringfull=0.05")
	cfg.SocketsPerVM = 4
	cfg.Conns = 32
	cfg.PayloadBytes = 64
	cfg.ChurnEvery = 96
	cfg.Timeout = 10 * time.Millisecond
	cfg.MaxResends = 30
	cfg.Seed = 11
	// The observability plane soaks with the chaos: tracing through a
	// faulty fleet exercises the abandon paths, and the flight
	// recorder is armed so a failure ships a dump (FLIGHT_DIR).
	cfg.TraceEvery = 16
	cfg.Flight = true

	c := New(cfg)
	dumpFlightOnFailure(t, c)
	c.Start()
	waitReplies(t, c, 300, 60*time.Second)
	// Link loss alone must drive the resend path, before the partition
	// gives it a second reason to fire: a lost frame's resend lands one
	// timeout after the loss, so wait for it rather than sample.
	lossDeadline := time.Now().Add(30 * time.Second)
	for c.Snapshot().Counters["cluster.loadgen.resends"] == 0 {
		if time.Now().After(lossDeadline) {
			t.Fatal("lossy links drove no resend in 30s: the retry path is dead")
		}
		time.Sleep(2 * time.Millisecond)
	}

	// Partition vm1 from the host mid-traffic, hold, heal. 32 conns
	// dealt round-robin over 2 VMs put 16 behind the cut.
	const severed = 16
	cutLinks(c, []int{net.HostNode}, []int{1})
	time.Sleep(250 * time.Millisecond)
	healLinks(c)

	// Every severed connection must complete a post-heal round trip,
	// each landing one observation in the recovery histogram.
	deadline := time.Now().Add(30 * time.Second)
	var recovered uint64
	for time.Now().Before(deadline) {
		if err := c.Err(); err != nil {
			t.Fatal(err)
		}
		recovered = c.Snapshot().Hists["cluster.loadgen.recovery_ms"].Count
		if recovered >= severed && c.AwaitingRecovery() == 0 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if n := c.AwaitingRecovery(); recovered < severed || n != 0 {
		t.Fatalf("recovery stalled: %d/%d connections recovered, %d still waiting",
			recovered, severed, n)
	}
	c.Stop()

	if err := c.Err(); err != nil {
		t.Fatal(err)
	}
	if n := c.GaveUpConns(); n != 0 {
		t.Fatalf("%d connections gave up despite the generous resend cap", n)
	}
	if got, want := c.SeqSum(), c.Replies(); got != want {
		t.Fatalf("acked sequence sum %d != replies %d", got, want)
	}

	s := c.Snapshot()
	if bad := s.Counters["cluster.loadgen.bad_sum"]; bad != 0 {
		t.Errorf("host accepted %d damaged frames (corruption aims only at VMs)", bad)
	}
	if s.Counters["cluster.loadgen.gave_up"] != 0 {
		t.Errorf("gave_up counter = %d, want 0", s.Counters["cluster.loadgen.gave_up"])
	}
	rec := s.Hists["cluster.loadgen.recovery_ms"]
	if rec.Count == 0 {
		t.Error("no recovery-latency observations after the heal")
	}
	p50, p99 := rec.Quantile(0.50), rec.Quantile(0.99)
	if !(p50 <= p99 && p99 <= float64(rec.Max)) || rec.Max <= 0 {
		t.Errorf("recovery quantiles out of order or zero: p50=%.0f p99=%.0f max=%d ms", p50, p99, rec.Max)
	}
	if s.Counters["cluster.fault.heals"] != 1 || s.Counters["cluster.fault.cuts"] != 1 {
		t.Errorf("cuts/heals = %d/%d, want 1/1",
			s.Counters["cluster.fault.cuts"], s.Counters["cluster.fault.heals"])
	}

	// The conservation identity, to the frame: every offered frame
	// (plus every dup the plane created) is routed, dropped at a full
	// ring, eaten by the partition, eaten by a link rule, refused by a
	// throttle, or flushed at shutdown.
	in := s.Counters["cluster.fabric.offered"] + s.Counters["cluster.fault.link.duplicated"]
	out := s.Counters["cluster.fabric.routed"] +
		s.Counters["cluster.fabric.dropped"] +
		s.Counters["cluster.fault.part_dropped"] +
		s.Counters["cluster.fault.link.dropped"] +
		s.Counters["cluster.fault.link.throttle_refused"] +
		s.Counters["cluster.fault.link.flushed"]
	if in != out {
		t.Errorf("conservation broken: in %d != out %d (%+v)", in, out, s.Counters)
	}

	// The faults actually fired: a soak that injected nothing proves
	// nothing.
	for _, name := range []string{
		"cluster.fault.link.dropped",
		"cluster.fault.link.corrupted",
		"cluster.fault.link.delayed",
		"cluster.fault.part_dropped",
		"cluster.loadgen.resends",
	} {
		if s.Counters[name] == 0 {
			t.Errorf("%s = 0: the chaos plan never exercised this fault", name)
		}
	}

	// The trace plane rode through the chaos: sampled traces stay
	// accounted (completed, incomplete, abandoned, or pending) and
	// faulted transits still complete some chains.
	sampled, completed, incomplete, abandoned := c.TraceCounts()
	if accounted := completed + incomplete + abandoned; accounted > sampled {
		t.Errorf("trace accounting leak: %d completed + %d incomplete + %d abandoned > %d sampled",
			completed, incomplete, abandoned, sampled)
	}
	if sampled == 0 || completed == 0 {
		t.Errorf("trace plane idle under chaos: sampled=%d completed=%d", sampled, completed)
	}
}
