package cluster

import (
	"slices"
	"testing"
	"time"

	"synthesis/internal/fault"
	"synthesis/internal/net"
)

// These tests drive the fault plane through route() and step()
// directly — no VM executes, no goroutine runs — so every count is
// exact and every clock is synthetic.

func fleetConfig(t *testing.T, vms int, spec string) Config {
	t.Helper()
	plan, err := fault.Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	return Config{VMs: vms, SocketsPerVM: 1, Conns: 1, Seed: 1, Faults: plan}
}

func hostFrame(dstNode int, tag byte) net.Frame {
	p := []byte{tag, tag, tag, tag}
	return net.Frame{
		Dst:     net.MakeAddr(dstNode, guestPortBase),
		Src:     net.MakeAddr(net.HostNode, replyPortBase),
		Sum:     net.Checksum(p),
		Payload: p,
	}
}

// TestLinkDropIsSilentAndExact: drop=1 eats every frame on the rule's
// link, tells the transmitter nothing, and counts each loss.
func TestLinkDropIsSilentAndExact(t *testing.T) {
	c := New(fleetConfig(t, 2, "link=0>1:drop=1"))
	for i := 0; i < 50; i++ {
		if !c.route(net.HostNode, hostFrame(1, byte(i))) {
			t.Fatal("silent loss leaked backpressure to the transmitter")
		}
	}
	// The rule is 0>1 only: the 1->2 direction is untouched.
	if !c.route(net.HostNode, hostFrame(2, 0)) {
		t.Fatal("unmatched link refused a frame")
	}
	if n := c.vms[0].ingress.Len(); n != 0 {
		t.Fatalf("vm1 ingress = %d frames past drop=1", n)
	}
	if n := c.vms[1].ingress.Len(); n != 1 {
		t.Fatalf("vm2 ingress = %d, want 1", n)
	}
	s := c.Reg.Snapshot()
	if got := s.Counters["cluster.fault.link.dropped"]; got != 50 {
		t.Fatalf("link.dropped = %d, want 50", got)
	}
	if s.Counters["cluster.fabric.offered"] != 51 || s.Counters["cluster.fabric.routed"] != 1 {
		t.Fatalf("offered/routed = %d/%d, want 51/1",
			s.Counters["cluster.fabric.offered"], s.Counters["cluster.fabric.routed"])
	}
}

// TestLinkCorruptIsChecksumDetectable: corruption flips payload bits
// only — the frame still routes, still carries its addresses, and
// always fails the end-to-end checksum.
func TestLinkCorruptIsChecksumDetectable(t *testing.T) {
	c := New(fleetConfig(t, 1, "link=1>0:corrupt=1"))
	p := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	for i := 0; i < 32; i++ {
		f := net.Frame{Dst: replyPortBase, Src: guestPortBase, Sum: net.Checksum(p), Payload: p}
		if !c.route(1, f) {
			t.Fatal("corrupt frame refused instead of delivered")
		}
		got, ok := c.hostRing.Get()
		if !ok {
			t.Fatal("corrupt frame vanished")
		}
		if got.Sum == net.Checksum(got.Payload) {
			t.Fatal("corrupted frame still passes the checksum")
		}
		if net.NodeOf(got.Src) != 1 || net.PortOf(got.Dst) != replyPortBase {
			t.Fatalf("corruption touched the address words: Src=%#x Dst=%#x", got.Src, got.Dst)
		}
	}
	if got := c.fp.mLinkCorrupted.Value(); got != 32 {
		t.Fatalf("link.corrupted = %d, want 32", got)
	}
	// The source payload slice must never be mutated (dup siblings and
	// ring-held frames share it).
	if p[0] != 1 || p[7] != 8 {
		t.Fatalf("corrupt mutated the caller's payload: % x", p)
	}
}

// TestLinkDupDelivers both copies and keeps the conservation identity.
func TestLinkDupDelivers(t *testing.T) {
	c := New(fleetConfig(t, 1, "link=0>1:dup=1"))
	for i := 0; i < 10; i++ {
		if !c.route(net.HostNode, hostFrame(1, byte(i))) {
			t.Fatal("dup path refused a frame")
		}
	}
	if n := c.vms[0].ingress.Len(); n != 20 {
		t.Fatalf("ingress = %d frames, want 20 (each doubled)", n)
	}
	s := c.Reg.Snapshot()
	if s.Counters["cluster.fault.link.duplicated"] != 10 {
		t.Fatalf("duplicated = %d, want 10", s.Counters["cluster.fault.link.duplicated"])
	}
	if off, dup, routed := s.Counters["cluster.fabric.offered"],
		s.Counters["cluster.fault.link.duplicated"],
		s.Counters["cluster.fabric.routed"]; off+dup != routed {
		t.Fatalf("offered %d + duplicated %d != routed %d", off, dup, routed)
	}
}

// TestLinkDelayHoldsAndReleases: a delayed frame is invisible until
// its hold elapses, then lands via step(); flush() accounts for frames
// still held at shutdown.
func TestLinkDelayHoldsAndReleases(t *testing.T) {
	c := New(fleetConfig(t, 1, "link=0>1:delay=1:5"))
	if !c.route(net.HostNode, hostFrame(1, 0xaa)) {
		t.Fatal("delayed frame refused")
	}
	if n := c.vms[0].ingress.Len(); n != 0 {
		t.Fatalf("delayed frame delivered immediately (ingress=%d)", n)
	}
	now := time.Now()
	c.fp.step(now.Add(time.Millisecond)) // before the 5ms hold
	if n := c.vms[0].ingress.Len(); n != 0 {
		t.Fatal("frame released before its hold elapsed")
	}
	c.fp.step(now.Add(20 * time.Millisecond))
	if n := c.vms[0].ingress.Len(); n != 1 {
		t.Fatalf("ingress = %d after the hold, want 1", n)
	}
	if c.fp.mLinkDelayed.Value() != 1 {
		t.Fatalf("link.delayed = %d, want 1", c.fp.mLinkDelayed.Value())
	}

	// A second frame held at shutdown is flushed, not leaked.
	c.route(net.HostNode, hostFrame(1, 0xbb))
	c.fp.flush()
	if c.fp.mFlushed.Value() != 1 {
		t.Fatalf("link.flushed = %d, want 1", c.fp.mFlushed.Value())
	}
}

// TestHeldFramesKeepTheirPayload: the plane holds every host-to-VM
// frame 2 ms and sends some twice, while the generator rebuilds its one
// payload buffer for the next launch and the rings reuse their slots.
// A hold that kept the sender's bytes instead of a copy would deliver
// another message's payload under this one's checksum, and the guest
// would drop it. Once the fleet is warm every echo must come back
// without a resend, and none with a bad sum. (Two connections a socket
// leave room in its queue for both copies of each.)
func TestHeldFramesKeepTheirPayload(t *testing.T) {
	cfg := fleetConfig(t, 1, "link=0>1:delay=1:2,dup=0.3")
	cfg.SocketsPerVM, cfg.Conns, cfg.PayloadBytes = 4, 8, 64
	c := New(cfg)
	c.Start()
	defer c.Stop()
	waitActive(t, c, cfg.Conns, 10*time.Second)
	timeouts := c.mTimeouts.Value()
	waitReplies(t, c, c.Replies()+1000, 10*time.Second)
	c.Stop()
	s := c.Snapshot().Counters
	if s["cluster.fault.link.delayed"] == 0 || s["cluster.fault.link.duplicated"] == 0 {
		t.Fatalf("link.delayed %d, link.duplicated %d: the rule held or duplicated nothing",
			s["cluster.fault.link.delayed"], s["cluster.fault.link.duplicated"])
	}
	if n := s["cluster.loadgen.timeouts"] - timeouts; n != 0 {
		t.Errorf("%d echoes of a warm fleet went unanswered and were resent", n)
	}
	if s["cluster.loadgen.bad_sum"] != 0 {
		t.Errorf("bad_sum = %d, want 0", s["cluster.loadgen.bad_sum"])
	}
}

// TestHeldFrameWakesTheGenerator: every host-to-VM frame is held 5 ms
// and the resend timeout is 10 s, so the generator's sweep timer is far
// off whenever it queues a frame. Only the wake of an entry that
// becomes the plane's head brings the generator back to release it; a
// generator left asleep on its sweep timer would see no reply for 10 s.
func TestHeldFrameWakesTheGenerator(t *testing.T) {
	cfg := fleetConfig(t, 1, "link=0>1:delay=1:5")
	cfg.SocketsPerVM, cfg.Conns, cfg.Timeout = 2, 4, 10*time.Second
	c := New(cfg)
	c.Start()
	defer c.Stop()
	waitReplies(t, c, 20, 2*time.Second)
}

// TestThrottleBackpressure: a rate-limited link queues up to
// throttleSlots frames, then refuses — the one fault that is
// transmitter-visible — and stepping through its release slots drains
// the queue.
func TestThrottleBackpressure(t *testing.T) {
	c := New(fleetConfig(t, 1, "link=0>1:rate=5"))
	// First frame rides the initial token inline.
	if !c.route(net.HostNode, hostFrame(1, 0)) {
		t.Fatal("first frame refused with a token in the bucket")
	}
	if n := c.vms[0].ingress.Len(); n != 1 {
		t.Fatalf("first frame not delivered inline (ingress=%d)", n)
	}
	// The next throttleSlots frames queue silently.
	for i := 0; i < throttleSlots; i++ {
		if !c.route(net.HostNode, hostFrame(1, byte(i))) {
			t.Fatalf("frame %d refused with queue space left", i)
		}
	}
	// Queue full: backpressure reaches the transmitter.
	if c.route(net.HostNode, hostFrame(1, 0xff)) {
		t.Fatal("overflow frame accepted past a full throttle queue")
	}
	if got := c.fp.mThrottleRefused.Value(); got != 1 {
		t.Fatalf("throttle_refused = %d, want 1", got)
	}
	// Synthetic seconds of refill drain the queue (burst is ~1 at this
	// rate, so one frame releases per step).
	base := time.Now()
	for i := 1; i <= 4*throttleSlots && c.vms[0].ingress.Len() < 1+throttleSlots; i++ {
		c.fp.step(base.Add(time.Duration(i) * time.Second))
	}
	if n := c.vms[0].ingress.Len(); n != 1+throttleSlots {
		t.Fatalf("drained ingress = %d, want %d", n, 1+throttleSlots)
	}
}

// cutLinks severs every link between node sets a and b, both
// directions, until healLinks: a cut the test places and heals at
// instants of its own choosing, which a part= window, fixed when the
// fleet is built, cannot be.
func cutLinks(c *Cluster, a, b []int) {
	c.fp.enabled.Store(true)
	c.fp.mu.Lock()
	c.fp.begin(&cutRec{a: a, b: b, heal: time.Now().Add(time.Hour)})
	c.fp.mu.Unlock()
}

// healLinks moves every queued heal to now, as a part= window's end
// does: the heals become the plane's head, which wakes a running
// generator to step them.
func healLinks(c *Cluster) {
	now := time.Now()
	c.fp.mu.Lock()
	defer c.fp.mu.Unlock()
	var heals []event
	c.fp.queue = slices.DeleteFunc(c.fp.queue, func(e event) bool {
		if e.heal {
			heals = append(heals, e)
		}
		return e.heal
	})
	for _, e := range heals {
		e.due = now
		c.fp.push(e, 1)
	}
}

// TestManualCutHeal: a cut placed by the test severs host<->vm1
// silently both ways, and healing it restores the link and returns
// from step the severed VMs.
func TestManualCutHeal(t *testing.T) {
	c := New(Config{VMs: 2, SocketsPerVM: 1, Conns: 1, Seed: 1})
	cutLinks(c, []int{net.HostNode}, []int{1})

	if !c.route(net.HostNode, hostFrame(1, 0)) {
		t.Fatal("partition loss leaked backpressure")
	}
	p := []byte{9}
	if !c.route(1, net.Frame{Dst: replyPortBase, Src: guestPortBase, Sum: net.Checksum(p), Payload: p}) {
		t.Fatal("reverse-direction partition loss leaked backpressure")
	}
	if c.vms[0].ingress.Len() != 0 || c.hostRing.Len() != 0 {
		t.Fatal("cut link delivered a frame")
	}
	// vm2 is outside the cut.
	if !c.route(net.HostNode, hostFrame(2, 0)) || c.vms[1].ingress.Len() != 1 {
		t.Fatal("cut severed a link it does not cover")
	}
	if got := c.fp.mPartDropped.Value(); got != 2 {
		t.Fatalf("part_dropped = %d, want 2", got)
	}

	healLinks(c)
	healed, _ := c.fp.step(time.Now())
	if len(healed) != 1 {
		t.Fatalf("step healed %d cuts, want 1", len(healed))
	}
	if vms := healed[0]; !vms[1] || vms[2] {
		t.Fatalf("heal names VMs %v, want {1}", vms)
	}
	if !c.route(net.HostNode, hostFrame(1, 1)) || c.vms[0].ingress.Len() != 1 {
		t.Fatal("healed link still dropping")
	}
	if c.fp.mCuts.Value() != 1 || c.fp.mHeals.Value() != 1 {
		t.Fatalf("cuts/heals = %d/%d, want 1/1", c.fp.mCuts.Value(), c.fp.mHeals.Value())
	}
}

// TestScheduledPartition drives two part= windows of a two-VM fleet
// with a synthetic clock. The first, between the host and vm1, activates
// inside [From, To), eats frames silently in both directions, leaves
// vm2's link alone and counts each drop, and at To heals, naming vm1
// alone. The second, between the host and vm2, is first stepped after
// its end and never cuts.
func TestScheduledPartition(t *testing.T) {
	c := New(fleetConfig(t, 2, "part=0|1@100-200;part=0|2@300-400"))
	base := time.Now()
	c.fp.schedule(base, c.cfg.Faults.Partitions)

	c.fp.step(base.Add(50 * time.Millisecond))
	if !c.route(net.HostNode, hostFrame(1, 0)) || c.vms[0].ingress.Len() != 1 {
		t.Fatal("partition active before its window")
	}
	c.fp.step(base.Add(150 * time.Millisecond))
	if !c.route(net.HostNode, hostFrame(1, 1)) {
		t.Fatal("partition loss leaked backpressure")
	}
	p := []byte{9}
	if !c.route(1, net.Frame{Dst: replyPortBase, Src: guestPortBase, Sum: net.Checksum(p), Payload: p}) {
		t.Fatal("reverse-direction partition loss leaked backpressure")
	}
	if c.vms[0].ingress.Len() != 1 || c.hostRing.Len() != 0 {
		t.Fatal("frame crossed an active scripted cut")
	}
	if !c.route(net.HostNode, hostFrame(2, 0)) || c.vms[1].ingress.Len() != 1 {
		t.Fatal("cut severed a link it does not cover")
	}
	if got := c.fp.mPartDropped.Value(); got != 2 {
		t.Fatalf("part_dropped = %d, want 2", got)
	}
	healed, _ := c.fp.step(base.Add(250 * time.Millisecond))
	if !c.route(net.HostNode, hostFrame(1, 2)) || c.vms[0].ingress.Len() != 2 {
		t.Fatal("scripted cut still active past its window")
	}
	if len(healed) != 1 {
		t.Fatalf("scheduled heal: step healed %d cuts, want 1", len(healed))
	}
	if vms := healed[0]; !vms[1] || vms[2] {
		t.Fatalf("scheduled heal names VMs %v, want {1}", vms)
	}
	// The window is one-shot: stepping back through it must not re-cut.
	c.fp.step(base.Add(150 * time.Millisecond))
	if c.fp.mCuts.Value() != 1 || c.fp.mHeals.Value() != 1 {
		t.Fatalf("cuts/heals = %d/%d, want 1/1 (a window re-armed?)", c.fp.mCuts.Value(), c.fp.mHeals.Value())
	}
	// A window first stepped after its end never cuts, so never heals.
	healed, next := c.fp.step(base.Add(500 * time.Millisecond))
	if len(healed) != 0 || c.fp.mCuts.Value() != 1 || c.fp.mHeals.Value() != 1 {
		t.Fatalf("late window: %d healed, cuts/heals = %d/%d, want 0, 1/1",
			len(healed), c.fp.mCuts.Value(), c.fp.mHeals.Value())
	}
	if !c.route(net.HostNode, hostFrame(2, 1)) || c.vms[1].ingress.Len() != 2 {
		t.Fatal("a window stepped after its end cut vm2")
	}
	if !next.IsZero() {
		t.Fatalf("queue's head falls due at %v after every window passed, want empty", next.Sub(base))
	}
}

// TestFabricDropAccountingExact forces the ingress ring full with no
// VM running and counts every outcome: the fabric's drop counters are
// exact, not sampled.
func TestFabricDropAccountingExact(t *testing.T) {
	const overflow = 37
	c := New(Config{VMs: 1, SocketsPerVM: 1, Conns: 1, Seed: 1})
	ingressSlots := uint64(c.vms[0].ingress.Cap())
	for i := uint64(0); i < ingressSlots; i++ {
		if !c.route(net.HostNode, hostFrame(1, byte(i))) {
			t.Fatalf("frame %d refused with ring space left", i)
		}
	}
	for i := 0; i < overflow; i++ {
		if c.route(net.HostNode, hostFrame(1, byte(i))) {
			t.Fatalf("overflow frame %d accepted past a full ring", i)
		}
	}
	s := c.Reg.Snapshot()
	off, routed, dropped := s.Counters["cluster.fabric.offered"],
		s.Counters["cluster.fabric.routed"], s.Counters["cluster.fabric.dropped"]
	if off != ingressSlots+overflow {
		t.Fatalf("offered = %d, want %d", off, ingressSlots+overflow)
	}
	if routed != ingressSlots {
		t.Fatalf("routed = %d, want %d", routed, ingressSlots)
	}
	if dropped != overflow {
		t.Fatalf("dropped = %d, want %d", dropped, overflow)
	}
	if off != routed+dropped {
		t.Fatalf("conservation broken: offered %d != routed %d + dropped %d", off, routed, dropped)
	}
}
