package cluster

import (
	"math/rand"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"synthesis/internal/fault"
	"synthesis/internal/metrics"
	"synthesis/internal/net"
)

// The fleet fault plane: per-link fault rules, the partition/heal
// schedule, and the slow-link throttle, all applied at the switch
// fabric so member VMs stay byte-identical to the healthy
// configuration. Every random draw comes from one seeded generator, so
// a failing chaos run replays from its seed.
//
// Fault semantics at the fabric mirror the single-machine injector's
// wire semantics: silent loss (drop, partition) returns true to the
// transmitter — a network does not tell you it ate your frame; that is
// what timeouts and resends are for — while a full throttle refuses
// with false, because a saturated link is backpressure the sender's
// bounded-retry path is built to see. Accounting is conservative and
// exact: after Stop,
//
//	offered + link.duplicated ==
//	  routed + fabric.dropped + fault.part_dropped +
//	  fault.link.dropped + fault.link.throttle_refused +
//	  fault.link.flushed
//
// (TestChaosSoak asserts this identity across a partition/heal cycle.)

// throttleSlots bounds the frames a rate-limited rule holds; past it
// the rule refuses (transmitter-visible backpressure).
const throttleSlots = 64

// throttleBurst is how far ahead of its slot a throttled frame may
// leave: with slots 1/Rate apart, a burst of 1 + Rate/100 frames.
const throttleBurst = 10 * time.Millisecond

// reorderHoldMin/Max bracket how long a reordered frame is held so
// that frames behind it overtake.
const (
	reorderHoldMin = time.Millisecond
	reorderHoldMax = 3 * time.Millisecond
)

// healEvent tells the load generator a cut was healed: used to stamp
// time-to-first-reply-after-heal per affected connection.
type healEvent struct {
	at  time.Time
	vms map[int]bool // member VMs the cut severed from the host
}

// pending is one frame the plane holds — delayed, reordered or
// throttled — until its due time.
type pending struct {
	due time.Time
	dst int
	f   net.Frame
}

// linkState is one rule's runtime state: next is the throttle's next
// free release slot.
type linkState struct {
	rule fault.Link
	next time.Time
}

// slots gives n frames consecutive release slots 1/Rate apart and
// returns when the last may leave: up to throttleBurst before its slot,
// never before now. It takes no slot and reports false when the rule
// would then hold more than throttleSlots frames.
func (ls *linkState) slots(now time.Time, n int) (time.Time, bool) {
	gap := time.Duration(float64(time.Second) / ls.rule.Rate)
	next := ls.next
	if next.Before(now) {
		next = now
	}
	next = next.Add(time.Duration(n) * gap)
	at := next.Add(-gap - throttleBurst)
	if at.Sub(now) > throttleSlots*gap {
		return at, false
	}
	ls.next = next
	if at.Before(now) {
		return now, true
	}
	return at, true
}

// cutRec is one cut: every link between a and b is severed until heal.
type cutRec struct {
	a, b []int
	heal time.Time
}

// severs reports whether the cut separates src from dst (either
// direction).
func (c *cutRec) severs(src, dst int) bool {
	return (slices.Contains(c.a, src) && slices.Contains(c.b, dst)) ||
		(slices.Contains(c.a, dst) && slices.Contains(c.b, src))
}

// hostSevered returns the member VMs this cut separates from the host.
func (c *cutRec) hostSevered() map[int]bool {
	far := c.b
	switch {
	case slices.Contains(c.a, net.HostNode):
	case slices.Contains(c.b, net.HostNode):
		far = c.a
	default:
		return nil
	}
	out := make(map[int]bool, len(far))
	for _, n := range far {
		if n != net.HostNode {
			out[n] = true
		}
	}
	return out
}

// faultPlane is the fabric's fault machinery. All state is guarded by
// mu; route paths take it only when enabled is set, so a fleet with no
// fault plan pays one atomic load per frame.
type faultPlane struct {
	c       *Cluster
	enabled atomic.Bool
	timed   bool // needs the pump: a scripted window or a rule that holds frames

	mu    sync.Mutex
	rng   *rand.Rand
	links []*linkState
	cuts  []*cutRec
	parts []fault.Partition // scripted windows not yet begun
	epoch time.Time         // set at Start; the schedule's t=0
	held  []pending         // every held frame, in due order

	healCh chan healEvent

	mLinkDropped     *metrics.Counter
	mLinkCorrupted   *metrics.Counter
	mLinkDuplicated  *metrics.Counter
	mLinkDelayed     *metrics.Counter
	mLinkReordered   *metrics.Counter
	mThrottleRefused *metrics.Counter
	mFlushed         *metrics.Counter
	mPartDropped     *metrics.Counter
	mCuts            *metrics.Counter
	mHeals           *metrics.Counter
}

// newFaultPlane builds the plane from a plan. Always constructed;
// enabled only once it has something to do.
func newFaultPlane(c *Cluster, plan fault.Plan, seed int64) *faultPlane {
	fp := &faultPlane{
		c:      c,
		rng:    rand.New(rand.NewSource(seed ^ 0x5eed_fab1)),
		parts:  slices.Clone(plan.Partitions),
		timed:  len(plan.Partitions) > 0,
		healCh: make(chan healEvent, 16),

		mLinkDropped:     c.Reg.Counter("cluster.fault.link.dropped"),
		mLinkCorrupted:   c.Reg.Counter("cluster.fault.link.corrupted"),
		mLinkDuplicated:  c.Reg.Counter("cluster.fault.link.duplicated"),
		mLinkDelayed:     c.Reg.Counter("cluster.fault.link.delayed"),
		mLinkReordered:   c.Reg.Counter("cluster.fault.link.reordered"),
		mThrottleRefused: c.Reg.Counter("cluster.fault.link.throttle_refused"),
		mFlushed:         c.Reg.Counter("cluster.fault.link.flushed"),
		mPartDropped:     c.Reg.Counter("cluster.fault.part_dropped"),
		mCuts:            c.Reg.Counter("cluster.fault.cuts"),
		mHeals:           c.Reg.Counter("cluster.fault.heals"),
	}
	for _, r := range plan.Links {
		fp.links = append(fp.links, &linkState{rule: r})
		fp.timed = fp.timed || r.Delay > 0 || r.Reorder > 0 || r.Rate > 0
	}
	c.Reg.SampleGauge("cluster.fault.active_cuts", func() float64 {
		fp.mu.Lock()
		defer fp.mu.Unlock()
		return float64(len(fp.cuts))
	})
	if len(fp.links) > 0 || len(fp.parts) > 0 {
		fp.enabled.Store(true)
	}
	return fp
}

// transit applies the plane to one frame from src toward dst (dst is
// already validated and, for host-bound frames, f carries the pushed
// source node). Returns (deliver, ok): deliver false means the plane
// consumed the frame — held, eaten, or refused — and ok is what route
// reports to the transmitter.
func (fp *faultPlane) transit(src, dst int, f *net.Frame) (deliver, ok bool) {
	now := time.Now()
	fp.mu.Lock()
	defer fp.mu.Unlock()

	for _, cut := range fp.cuts {
		if cut.severs(src, dst) {
			fp.mPartDropped.Inc()
			return false, true // silent: a partition eats frames
		}
	}

	var ls *linkState
	for _, l := range fp.links {
		if l.rule.Matches(src, dst) {
			ls = l
			break
		}
	}
	if ls == nil {
		return true, true
	}
	r := &ls.rule

	drop, corrupt, delay, dup := r.Draw(fp.rng)
	if drop {
		fp.mLinkDropped.Inc()
		return false, true // silent wire loss
	}
	if corrupt {
		fp.corrupt(f)
		fp.mLinkCorrupted.Inc()
	}
	n := 1
	if dup {
		n = 2
		fp.mLinkDuplicated.Inc()
	}

	// Every hold is a due time in the one held queue; the frame and its
	// dup leave together, after anything due no later.
	due := now
	switch {
	case delay:
		due = now.Add(time.Duration(r.Hold))
		fp.mLinkDelayed.Inc()
	case r.Reorder > 0 && fp.rng.Float64() < r.Reorder:
		span := float64(reorderHoldMax - reorderHoldMin)
		due = now.Add(reorderHoldMin + time.Duration(fp.rng.Float64()*span))
		fp.mLinkReordered.Inc()
	case r.Rate > 0:
		if due, ok = ls.slots(now, n); !ok {
			// Count every refused frame (the dup too) so the
			// conservation identity stays exact.
			fp.mThrottleRefused.Add(uint64(n))
			return false, false // saturated link: visible backpressure
		}
	}
	if due.After(now) {
		// The payload is the sender's buffer or a view of its VM's
		// memory, valid only until route returns: the hold keeps a copy.
		h := *f
		h.Payload = slices.Clone(f.Payload)
		i := sort.Search(len(fp.held), func(i int) bool { return fp.held[i].due.After(due) })
		fp.held = slices.Insert(fp.held, i, slices.Repeat([]pending{{due, dst, h}}, n)...)
		return false, true // the pump releases it
	}

	if dup {
		// Deliver the dup inline; the original goes out via route.
		fp.c.deliver(dst, *f)
	}
	return true, true
}

// corrupt flips one bit in the checksum/payload region, copying the
// payload first so duplicated or ring-held siblings stay intact.
// Address words are never touched: a corrupt frame must fail the
// receiver's checksum, not misroute.
func (fp *faultPlane) corrupt(f *net.Frame) {
	if len(f.Payload) == 0 {
		f.Sum ^= 1 << uint(fp.rng.Intn(32))
		return
	}
	p := append([]byte(nil), f.Payload...)
	p[fp.rng.Intn(len(p))] ^= 1 << uint(fp.rng.Intn(8))
	f.Payload = p
}

// step runs the time-driven machinery once: scripted windows open,
// due cuts heal, due held frames leave. Called by the pump and driven
// directly (with a synthetic clock) by tests.
func (fp *faultPlane) step(now time.Time) {
	fp.mu.Lock()

	// A window first seen after its end never cuts.
	since := now.Sub(fp.epoch)
	waiting := fp.parts[:0]
	for _, p := range fp.parts {
		switch {
		case since < p.From:
			waiting = append(waiting, p)
		case since < p.To:
			fp.cut(p.A, p.B, fp.epoch.Add(p.To))
		}
	}
	fp.parts = waiting
	fp.heal(now)

	n := sort.Search(len(fp.held), func(i int) bool { return fp.held[i].due.After(now) })
	out := slices.Clone(fp.held[:n])
	fp.held = slices.Delete(fp.held, 0, n)
	fp.mu.Unlock()

	// Deliver outside the lock: deliver takes ring paths and counters
	// only, but keeping the plane lock narrow keeps route() snappy.
	for _, p := range out {
		fp.c.deliver(p.dst, p.f)
	}
}

// cut severs every link between node sets a and b until heal; callers
// hold mu.
func (fp *faultPlane) cut(a, b []int, heal time.Time) {
	fp.cuts = append(fp.cuts, &cutRec{a: slices.Clone(a), b: slices.Clone(b), heal: heal})
	fp.mCuts.Inc()
}

// heal removes every cut whose heal time has come and emits its heal
// event; callers hold mu.
func (fp *faultPlane) heal(now time.Time) {
	live := fp.cuts[:0]
	for _, c := range fp.cuts {
		if now.Before(c.heal) {
			live = append(live, c)
			continue
		}
		fp.mHeals.Inc()
		select {
		case fp.healCh <- healEvent{at: now, vms: c.hostSevered()}:
		default: // nobody draining (manually driven fleet): drop the event
		}
	}
	fp.cuts = live
}

// flush discards everything still held once the fleet has stopped
// (Cluster.Stop calls it after the last goroutine has exited),
// counting each frame so the conservation identity stays exact.
func (fp *faultPlane) flush() {
	fp.mu.Lock()
	defer fp.mu.Unlock()
	fp.mFlushed.Add(uint64(len(fp.held)))
	fp.held = nil
}

// faultPump is the plane's goroutine: it executes the partition
// schedule and releases held frames, on a wall-clock tick because the
// schedules it executes are wall-clock ones. Started only when the
// plan needs time.
func (c *Cluster) faultPump() {
	defer c.wg.Done()
	tick := time.NewTicker(200 * time.Microsecond)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
			c.fp.step(time.Now())
		case <-c.done:
			return
		}
	}
}
