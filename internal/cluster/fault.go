package cluster

import (
	"container/heap"
	"math/rand"
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
// what timeouts and resends are for — while throttle-queue overflow
// returns false, because a saturated link is backpressure the sender's
// bounded-retry path is built to see. Accounting is conservative and
// exact: after Stop,
//
//	offered + link.duplicated ==
//	  routed + fabric.dropped + fault.part_dropped +
//	  fault.link.dropped + fault.link.throttle_refused +
//	  fault.link.flushed
//
// (TestChaosSoak asserts this identity across a partition/heal cycle.)

// throttleSlots bounds each rate-limited rule's pending queue; a full
// queue refuses frames (transmitter-visible backpressure).
const throttleSlots = 64

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

// pending is one frame held by the plane (delay, reorder) with its
// release time.
type pending struct {
	due time.Time
	dst int
	f   net.Frame
}

// pendingHeap is a min-heap on due time.
type pendingHeap []pending

func (h pendingHeap) Len() int           { return len(h) }
func (h pendingHeap) Less(i, j int) bool { return h[i].due.Before(h[j].due) }
func (h pendingHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *pendingHeap) Push(x any)        { *h = append(*h, x.(pending)) }
func (h *pendingHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// linkState is one rule's runtime state: the seeded draws come from
// the plane RNG; the token bucket paces a rate-limited rule.
type linkState struct {
	rule   fault.LinkRule
	tokens float64
	filled time.Time // last token refill
	queue  []pending // throttle backlog (due is meaningless here)
}

// cutRec is one active cut. Scheduled cuts are owned by their schedule
// entry; manual cuts (Cluster.Cut) live until Heal.
type cutRec struct {
	a, b   map[int]bool
	manual bool
}

// severs reports whether the cut separates src from dst (either
// direction).
func (c *cutRec) severs(src, dst int) bool {
	return (c.a[src] && c.b[dst]) || (c.a[dst] && c.b[src])
}

// hostSevered returns the member VMs this cut separates from the host.
func (c *cutRec) hostSevered() map[int]bool {
	var far map[int]bool
	switch {
	case c.a[net.HostNode]:
		far = c.b
	case c.b[net.HostNode]:
		far = c.a
	default:
		return nil
	}
	out := make(map[int]bool, len(far))
	for n := range far {
		if n != net.HostNode {
			out[n] = true
		}
	}
	return out
}

// schedState tracks one scripted partition through pending -> active
// -> healed.
type schedState struct {
	part fault.Partition
	cut  *cutRec // non-nil while active
	done bool
}

// faultPlane is the fabric's fault machinery. All state is guarded by
// mu; route paths take it only when enabled is set, so a fleet with no
// fault plan pays one atomic load per frame.
type faultPlane struct {
	c       *Cluster
	enabled atomic.Bool

	mu    sync.Mutex
	rng   *rand.Rand
	links []*linkState
	cuts  []*cutRec
	sched []*schedState
	epoch time.Time // set at Start; the schedule's t=0
	delay pendingHeap

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

// newFaultPlane builds the plane from a plan. Always constructed (so
// Cut/Heal work on any cluster); enabled only once it has something to
// do.
func newFaultPlane(c *Cluster, plan fault.FleetPlan, seed int64) *faultPlane {
	fp := &faultPlane{
		c:      c,
		rng:    rand.New(rand.NewSource(seed ^ 0x5eed_fab1)),
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
		fp.links = append(fp.links, &linkState{rule: r, tokens: 1})
	}
	for _, p := range plan.Partitions {
		fp.sched = append(fp.sched, &schedState{part: p})
	}
	c.Reg.SampleGauge("cluster.fault.active_cuts", func() float64 {
		fp.mu.Lock()
		defer fp.mu.Unlock()
		return float64(len(fp.cuts))
	})
	if len(fp.links) > 0 || len(fp.sched) > 0 {
		fp.enabled.Store(true)
	}
	return fp
}

// timed reports whether the plane needs the pump goroutine: scripted
// partitions or any rule that holds frames for later delivery.
func (fp *faultPlane) timed() bool {
	if len(fp.sched) > 0 {
		return true
	}
	for _, l := range fp.links {
		r := l.rule
		if r.Delay > 0 || r.Reorder > 0 || r.Rate > 0 {
			return true
		}
	}
	return false
}

// hit draws one Bernoulli trial; callers hold mu.
func (fp *faultPlane) hit(p float64) bool {
	return p > 0 && fp.rng.Float64() < p
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
	r := ls.rule

	if fp.hit(r.Drop) {
		fp.mLinkDropped.Inc()
		return false, true // silent wire loss
	}
	if fp.hit(r.Corrupt) {
		fp.corrupt(f)
		fp.mLinkCorrupted.Inc()
	}
	extra := fp.hit(r.Dup)
	if extra {
		fp.mLinkDuplicated.Inc()
	}

	// Hold-back faults: the frame (and its dup) leaves through the
	// delay heap instead of the fast path.
	var hold time.Duration
	switch {
	case fp.hit(r.Delay):
		hold = r.DelayFor
		fp.mLinkDelayed.Inc()
	case fp.hit(r.Reorder):
		span := float64(reorderHoldMax - reorderHoldMin)
		hold = reorderHoldMin + time.Duration(fp.rng.Float64()*span)
		fp.mLinkReordered.Inc()
	}
	if hold > 0 {
		heap.Push(&fp.delay, pending{due: now.Add(hold), dst: dst, f: *f})
		if extra {
			heap.Push(&fp.delay, pending{due: now.Add(hold), dst: dst, f: *f})
		}
		return false, true
	}

	if r.Rate > 0 {
		n := 1
		if extra {
			n = 2
		}
		if !fp.admit(ls, now, n) {
			// Count every refused frame (the dup too) so the
			// conservation identity stays exact.
			fp.mThrottleRefused.Add(uint64(n))
			return false, false // saturated link: visible backpressure
		}
		if ls.tokens >= float64(n) && len(ls.queue) == 0 {
			ls.tokens -= float64(n)
		} else {
			for i := 0; i < n; i++ {
				ls.queue = append(ls.queue, pending{dst: dst, f: *f})
			}
			return false, true // queued; the pump releases it
		}
	}

	if extra {
		// Deliver the dup inline; the original goes out via route.
		fp.c.deliver(dst, *f)
	}
	return true, true
}

// admit refills the rule's token bucket and reports whether n more
// frames fit in bucket+queue. Callers hold mu.
func (fp *faultPlane) admit(ls *linkState, now time.Time, n int) bool {
	if !ls.filled.IsZero() {
		ls.tokens += now.Sub(ls.filled).Seconds() * ls.rule.Rate
		if burst := 1 + ls.rule.Rate/100; ls.tokens > burst {
			ls.tokens = burst
		}
	}
	ls.filled = now
	return len(ls.queue)+n <= throttleSlots
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

// step runs the time-driven machinery once: schedule transitions,
// due delayed frames, throttle release. Called by the pump and driven
// directly (with a synthetic clock) by tests.
func (fp *faultPlane) step(now time.Time) {
	fp.mu.Lock()

	// Scripted partition transitions.
	for _, s := range fp.sched {
		since := now.Sub(fp.epoch)
		if s.cut == nil && !s.done && since >= s.part.From && since < s.part.To {
			s.cut = &cutRec{a: nodeSet(s.part.A), b: nodeSet(s.part.B)}
			fp.cuts = append(fp.cuts, s.cut)
			fp.mCuts.Inc()
		}
		if s.cut != nil && since >= s.part.To {
			fp.removeCut(s.cut, now)
			s.cut = nil
			s.done = true
		}
	}

	// Due held frames.
	var out []pending
	for len(fp.delay) > 0 && !fp.delay[0].due.After(now) {
		out = append(out, heap.Pop(&fp.delay).(pending))
	}

	// Throttle release, one rule at a time.
	for _, ls := range fp.links {
		if ls.rule.Rate == 0 || len(ls.queue) == 0 {
			continue
		}
		fp.admit(ls, now, 0)
		for len(ls.queue) > 0 && ls.tokens >= 1 {
			ls.tokens--
			out = append(out, ls.queue[0])
			ls.queue = ls.queue[1:]
		}
	}
	fp.mu.Unlock()

	// Deliver outside the lock: deliver takes ring paths and counters
	// only, but keeping the plane lock narrow keeps route() snappy.
	for _, p := range out {
		fp.c.deliver(p.dst, p.f)
	}
}

// removeCut drops one cut record and emits its heal event; callers
// hold mu.
func (fp *faultPlane) removeCut(cut *cutRec, now time.Time) {
	for i, c := range fp.cuts {
		if c == cut {
			fp.cuts = append(fp.cuts[:i], fp.cuts[i+1:]...)
			break
		}
	}
	fp.mHeals.Inc()
	ev := healEvent{at: now, vms: cut.hostSevered()}
	select {
	case fp.healCh <- ev:
	default: // nobody draining (manually driven fleet): drop the event
	}
}

// flush discards everything still held once the fleet has stopped
// (Cluster.Stop calls it after the last goroutine has exited),
// counting each frame so the conservation identity stays exact.
func (fp *faultPlane) flush() {
	fp.mu.Lock()
	defer fp.mu.Unlock()
	n := uint64(len(fp.delay))
	fp.delay = nil
	for _, ls := range fp.links {
		n += uint64(len(ls.queue))
		ls.queue = nil
	}
	fp.mFlushed.Add(n)
}

// nodeSet builds a membership set.
func nodeSet(ids []int) map[int]bool {
	m := make(map[int]bool, len(ids))
	for _, id := range ids {
		m[id] = true
	}
	return m
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

// Cut severs every link between node sets a and b (both directions,
// node 0 = the host) until Heal. Programmatic twin of the part=
// schedule clause; benchmarks use it to place the heal instant
// precisely.
func (c *Cluster) Cut(a, b []int) {
	c.fp.mu.Lock()
	c.fp.cuts = append(c.fp.cuts, &cutRec{a: nodeSet(a), b: nodeSet(b), manual: true})
	c.fp.mCuts.Inc()
	c.fp.mu.Unlock()
	c.fp.enabled.Store(true)
}

// Heal removes every manual cut, stamping the heal so the load
// generator can measure each affected connection's time to first
// reply. Scheduled (part=) cuts heal on their own schedule.
func (c *Cluster) Heal() {
	now := time.Now()
	c.fp.mu.Lock()
	var manual []*cutRec
	for _, cut := range c.fp.cuts {
		if cut.manual {
			manual = append(manual, cut)
		}
	}
	for _, cut := range manual {
		c.fp.removeCut(cut, now)
	}
	c.fp.mu.Unlock()
}
