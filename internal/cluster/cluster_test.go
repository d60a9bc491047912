package cluster

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"synthesis/internal/net"
)

// waitFor polls until cond holds or the deadline passes, failing the
// test at once on a fleet error; it reports whether cond held.
func waitFor(t *testing.T, c *Cluster, d time.Duration, cond func() bool) bool {
	t.Helper()
	for deadline := time.Now().Add(d); !cond(); time.Sleep(time.Millisecond) {
		if err := c.Err(); err != nil {
			t.Fatalf("fleet error while waiting: %v", err)
		}
		if time.Now().After(deadline) {
			return false
		}
	}
	return true
}

// waitReplies waits until the fleet has completed at least n echo
// round trips.
func waitReplies(t *testing.T, c *Cluster, n uint64, d time.Duration) {
	t.Helper()
	if !waitFor(t, c, d, func() bool { return c.Replies() >= n }) {
		t.Fatalf("replies = %d, want >= %d within %v", c.Replies(), n, d)
	}
}

// waitActive waits until n connections have completed a round trip:
// the fleet is warm.
func waitActive(t *testing.T, c *Cluster, n int, d time.Duration) {
	t.Helper()
	if !waitFor(t, c, d, func() bool { return c.ActiveConns() >= n }) {
		t.Fatalf("%d of %d connections live within %v", c.ActiveConns(), n, d)
	}
}

// TestFabricRouting drives the switch directly: tag pop/push and the
// drop accounting, without running any VM.
func TestFabricRouting(t *testing.T) {
	c := New(Config{VMs: 2, SocketsPerVM: 1, Conns: 1, Seed: 1})

	// Host -> VM2: lands in VM2's ingress ring, still node-tagged (the
	// drain pops the tag at injection time).
	p := []byte("to vm2")
	f := net.Frame{Dst: net.MakeAddr(2, 0x50), Src: net.MakeAddr(net.HostNode, 0x900), Sum: net.Checksum(p), Payload: p}
	if !c.route(net.HostNode, f) {
		t.Fatal("route to vm2 refused")
	}
	if c.vms[1].ingress.Len() != 1 || c.vms[0].ingress.Len() != 0 {
		t.Fatalf("ingress depths = %d/%d, want 0/1",
			c.vms[0].ingress.Len(), c.vms[1].ingress.Len())
	}

	// VM1 -> host: the fabric pushes the source node onto Src.
	g := net.Frame{Dst: 0x900, Src: 0x50, Sum: net.Checksum(p), Payload: p}
	if !c.route(1, g) {
		t.Fatal("route to host refused")
	}
	r, ok := c.hostRing.Get()
	if !ok {
		t.Fatal("host ring empty after host-bound route")
	}
	if net.NodeOf(r.Src) != 1 || net.PortOf(r.Src) != 0x50 {
		t.Fatalf("host-bound Src = %#x, want node 1 port 0x50", r.Src)
	}

	// Nonexistent node: refused and counted.
	bad := net.Frame{Dst: net.MakeAddr(9, 0x50)}
	if c.route(net.HostNode, bad) {
		t.Fatal("route to nonexistent node accepted")
	}
	if c.mDropped.Value() != 1 {
		t.Fatalf("fabric dropped = %d, want 1", c.mDropped.Value())
	}
	if c.mRouted.Value() != 2 {
		t.Fatalf("fabric routed = %d, want 2", c.mRouted.Value())
	}
}

// TestClusterEcho is the end-to-end fleet test: 2 VMs, multiplexed
// connections, full synthesized path on every echo. Verifies traffic
// flows, latency is measured, and the shared registry carries per-VM
// prefixed metrics alongside the cluster plane.
func TestClusterEcho(t *testing.T) {
	c := New(Config{VMs: 2, SocketsPerVM: 2, Conns: 8, PayloadBytes: 32, Seed: 42})
	c.Start()
	waitReplies(t, c, 200, 30*time.Second)
	// 200 replies can all be one VM's: a connection whose first frame
	// raced its socket's open sits out a resend timeout. Every
	// connection live is the fleet-is-warm signal, and it puts both
	// VMs in the snapshot below.
	waitActive(t, c, 8, 30*time.Second)
	c.Stop()
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}

	s := c.Snapshot()
	if s.Counters["cluster.fabric.routed"] == 0 {
		t.Error("no frames routed")
	}
	if s.Counters["cluster.loadgen.bad_sum"] != 0 {
		t.Errorf("checksum failures: %d", s.Counters["cluster.loadgen.bad_sum"])
	}
	rtt := s.Hists["cluster.loadgen.rtt_us"]
	if rtt.Count == 0 {
		t.Error("no RTT observations")
	}
	if q := rtt.Quantile(0.99); q < rtt.Quantile(0.50) {
		t.Errorf("p99 %g < p50 %g", q, rtt.Quantile(0.50))
	}

	// One snapshot, every VM: socket metrics under vm<i>. prefixes.
	for _, prefix := range []string{"vm1.kio.sock.", "vm2.kio.sock."} {
		found := false
		for name := range s.Counters {
			if strings.HasPrefix(name, prefix) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("no %s* metrics in the fleet snapshot", prefix)
		}
	}
	// Both VMs actually served traffic.
	for _, vmp := range []string{"vm1.", "vm2."} {
		var rx uint64
		for name, v := range s.Counters {
			if strings.HasPrefix(name, vmp+"kio.sock.") && strings.HasSuffix(name, ".rx_frames") {
				rx += v
			}
		}
		if rx == 0 {
			t.Errorf("%skio.sock.*.rx_frames all zero: VM served no frames", vmp)
		}
	}
}

// TestClusterSoak is the seeded, bounded churn soak: guest threads
// close and reopen their sockets under live fleet traffic, forcing
// handler resynthesis while frames are in flight. Run under -race in
// CI (the cluster-soak make target).
func TestClusterSoak(t *testing.T) {
	c := New(Config{
		VMs:          2,
		SocketsPerVM: 4,
		Conns:        32,
		PayloadBytes: 64,
		ChurnEvery:   64,
		Seed:         7,
	})
	c.Start()
	waitReplies(t, c, 500, 60*time.Second)
	c.Stop()
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}
	s := c.Snapshot()
	// Churn means some frames met a closed port or a mid-resynthesis
	// handler; the timeout path must have kept every connection alive
	// (500 replies), and nothing may have corrupted in transit.
	if s.Counters["cluster.loadgen.bad_sum"] != 0 {
		t.Errorf("checksum failures under churn: %d", s.Counters["cluster.loadgen.bad_sum"])
	}
	if got := s.Counters["cluster.loadgen.replies"]; got < 500 {
		t.Errorf("replies = %d, want >= 500", got)
	}
}

// TestEchoAllocatesNothing: once the fleet is warm, an echo allocates
// no Go memory on its way round — the generator builds each payload in
// one buffer, the NIC hands the fabric a view of guest memory, the
// rings copy frames into slots they own, and the ingress drain encodes
// into the VM's own buffer.
func TestEchoAllocatesNothing(t *testing.T) {
	const echoes = 10_000
	c := New(Config{VMs: 1, SocketsPerVM: 8, Conns: 32, PayloadBytes: 64, Seed: 11,
		Timeout: 500 * time.Millisecond})
	c.Start()
	defer c.Stop()
	waitActive(t, c, 32, 30*time.Second)
	waitReplies(t, c, c.Replies()+1000, 30*time.Second)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	r0 := c.Replies()
	waitReplies(t, c, r0+echoes, 60*time.Second)
	runtime.ReadMemStats(&after)
	n := c.Replies() - r0
	if per := float64(after.Mallocs-before.Mallocs) / float64(n); per >= 0.05 {
		t.Errorf("%d allocations over %d echoes: %.3f an echo, want < 0.05",
			after.Mallocs-before.Mallocs, n, per)
	}
}

// TestSnapshotDuringRun races locked snapshots against the running
// fleet: the per-VM mutexes must keep the sampled VM-memory reads off
// mid-chunk state (this is the -race witness for the metrics plane).
func TestSnapshotDuringRun(t *testing.T) {
	c := New(Config{VMs: 2, SocketsPerVM: 1, Conns: 4, Seed: 3})
	c.Start()
	for i := 0; i < 20; i++ {
		s := c.Snapshot()
		if s.Cycles == 0 && i > 0 {
			t.Error("wall clock not advancing in snapshots")
		}
		time.Sleep(time.Millisecond)
	}
	c.Stop()
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}
}

// cutAndPark cuts the host off a two-VM fleet and waits for it to
// park: what was in flight drains, every guest thread blocks on
// receive, the CPUs stop.
func cutAndPark(t *testing.T, c *Cluster) {
	t.Helper()
	// still reports whether the fleet executed nothing for 50 ms. A
	// polling driver never passes: the idle loop's timer interrupt
	// runs every few chunks.
	still := func() bool {
		n := c.GuestInstrs()
		time.Sleep(50 * time.Millisecond)
		return c.GuestInstrs() == n
	}
	cutLinks(c, []int{net.HostNode}, []int{1, 2})
	for deadline := time.Now().Add(10 * time.Second); !still(); {
		if time.Now().After(deadline) {
			t.Fatal("a cut-off fleet keeps executing guest instructions: its drivers never park")
		}
	}
	// Parked is a state, not a lull.
	if !still() {
		t.Fatal("parked fleet executed guest instructions")
	}
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestIdleFleetParks pins the driver's hand-off rule from outside: a
// fleet nobody talks to executes nothing — its drivers are asleep on
// their ingress rings, not running the guests' idle loops — and
// everything that must reach a parked driver does: the first frame
// after a heal, KillVM, Stop.
func TestIdleFleetParks(t *testing.T) {
	c := New(Config{VMs: 2, SocketsPerVM: 2, Conns: 4, PayloadBytes: 32, Seed: 5,
		Timeout: 20 * time.Millisecond})
	c.Start()
	defer c.Stop()
	waitActive(t, c, 4, 30*time.Second)

	// A frame wakes a parked driver: after the heal the generator's
	// resends get through and echoes resume.
	cutAndPark(t, c)
	before := c.Replies()
	healLinks(c)
	waitReplies(t, c, before+8, 10*time.Second)
	// The driver clocks saw it: a woken driver books the stretch it
	// slept (two 50 ms still checks at least) as parked.
	s := c.Snapshot().Counters
	if park := s["vm1.driver.park_ns"] + s["vm2.driver.park_ns"]; park < uint64(50*time.Millisecond) {
		t.Errorf("driver.park_ns = %v over both VMs after a parked stretch, want >= 50ms", time.Duration(park))
	}
	for _, vm := range []string{"vm1", "vm2"} {
		if s[vm+".driver.busy_ns"] == 0 || s[vm+".driver.chunks"] == 0 || s[vm+".driver.parks"] == 0 {
			t.Errorf("%s: driver.busy_ns %d, driver.chunks %d, driver.parks %d, want all > 0",
				vm, s[vm+".driver.busy_ns"], s[vm+".driver.chunks"], s[vm+".driver.parks"])
		}
	}
	if s["cluster.loadgen.wakes"] == 0 {
		t.Error("cluster.loadgen.wakes = 0 after replies woke the generator")
	}

	// So does KillVM.
	cutAndPark(t, c)
	c.KillVM(1, "killed while parked")
	for deadline := time.Now().Add(time.Second); c.Err() == nil; {
		if time.Now().After(deadline) {
			t.Fatal("KillVM on a parked VM: no driver error within 1s")
		}
		time.Sleep(time.Millisecond)
	}

	// And Stop (vm2's driver is still parked); stopping twice is
	// stopping once.
	stopped := make(chan struct{})
	go func() {
		c.Stop()
		c.Stop()
		close(stopped)
	}()
	select {
	case <-stopped:
	case <-time.After(time.Second):
		t.Fatal("Stop with a parked driver did not return within 1s")
	}
}
