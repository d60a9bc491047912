package cluster

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"synthesis/internal/metrics"
	"synthesis/internal/net"
	"synthesis/internal/prof"
)

// The fleet trace plane: follow a sampled echo round trip across
// every hop it takes and attribute its latency end to end. One
// request's life is nine stamped events — launch at the load
// generator, enqueue on the destination VM's fabric ingress ring
// (after any fault-stage delay), DMA deposit into the NIC, IRQ
// handler entry, rx-demux entry, the guest socket's send routine
// (the echo turning around), the reply leaving the VM's NIC, the
// reply landing on the host ring, and the load generator matching
// it. Every stamp is taken where the hop actually happens — the NIC
// and profiler hooks run synchronously inside the VM's driver
// goroutine, so a wall-clock read at hook time is exact, and the VM
// cycle count rides along for the per-VM trace timeline.
//
// Because the first and last stamps are the same clock reads the
// load generator uses for its own RTT measurement, the hop deltas
// telescope: their sum equals the independently measured RTT
// exactly, per trace — the conservation identity fleet_echo reports as
// cluster.trace_conservation.
// Interior stamps are attributed by a monotone chain (event k only
// lands after k-1) plus payload and region-name matching; ambiguity
// under concurrent traffic blurs the split between adjacent hops but
// never the sum.
//
// Cost discipline: with TraceEvery == 0 the tracer is nil and every
// hot-path hook is one pointer check. With tracing on but no request
// currently sampled, the fabric paths pay one atomic load.

// Event indices along a traced round trip.
const (
	evSend       = iota // load generator launches the request
	evFabricOut         // request enqueued on the VM's ingress ring
	evNicDeposit        // DMA deposit into the NIC receive ring
	evIRQEntry          // net IRQ handler entry (raise→entry measured by prof)
	evDemux             // synthesized rx demux entry
	evSendEntry         // guest socket send routine entry (echo turnaround)
	evTxLaunch          // reply leaves the VM's NIC
	evHostEnq           // reply enqueued on the host ring
	evRecv              // load generator matches the reply
	numEvents
)

// hopNames names the interval ending at event i+1. These are the
// registry suffixes (cluster.trace.hop.<name>_us) and fleet_echo's
// cluster.hop.<name>_p50_us rows.
var hopNames = [numEvents - 1]string{
	"fabric_out",    // launch → ingress ring (fabric routing + fault delay)
	"ingress_dwell", // ingress ring → NIC deposit (driver drain latency)
	"irq_entry",     // NIC deposit → IRQ handler entry
	"demux",         // IRQ entry → rx demux entry
	"recv_wake",     // demux → guest send entry (wakeup + scheduling)
	"guest_send",    // send entry → reply on the wire
	"fabric_back",   // reply launch → host ring (return fabric + faults)
	"host_dwell",    // host ring → load generator pickup
}

var hopHelp = [numEvents - 1]string{
	"Hop: loadgen launch to VM ingress-ring enqueue (fabric routing incl. fault-stage delay), microseconds.",
	"Hop: ingress-ring enqueue to NIC DMA deposit (driver drain dwell), microseconds.",
	"Hop: NIC deposit to net-IRQ handler entry, microseconds.",
	"Hop: IRQ handler entry to rx-demux entry, microseconds.",
	"Hop: rx-demux entry to guest socket send entry (receive wakeup + scheduling), microseconds.",
	"Hop: guest send entry to reply NIC launch, microseconds.",
	"Hop: reply launch to host-ring enqueue (return fabric incl. fault-stage delay), microseconds.",
	"Hop: host-ring enqueue to loadgen reply match, microseconds.",
}

// TraceRec is one completed round-trip trace. T holds wall
// nanoseconds since cluster start for each event; Cyc holds the VM
// cycle stamp for the events that happen on the VM (0 elsewhere).
type TraceRec struct {
	Conn int
	VM   int
	Seq  uint32
	T    [numEvents]int64
	Cyc  [numEvents]uint64
}

// HopNS returns the duration of hop i (the interval ending at event
// i+1) in nanoseconds.
func (r TraceRec) HopNS(i int) int64 { return r.T[i+1] - r.T[i] }

// RTTNS returns the traced round trip in nanoseconds — by the
// telescoping identity, exactly the sum of the eight hops.
func (r TraceRec) RTTNS() int64 { return r.T[evRecv] - r.T[evSend] }

// HopCount is the number of hops in a trace (for callers iterating
// HopNS/HopName).
const HopCount = numEvents - 1

// HopName returns hop i's registry/table name.
func HopName(i int) string { return hopNames[i] }

// traceReq is the pending (in-flight) trace of one sampled request.
// At most one per VM: sampling is sparse, and a single pending slot
// keeps attribution of the VM-side hooks unambiguous.
type traceReq struct {
	rec      TraceRec
	next     int    // next event index to stamp (monotone chain)
	sendName string // guest send region that marks the echo turnaround
}

type tracer struct {
	c     *Cluster
	every uint64
	n     atomic.Uint64 // fresh-launch counter (sampling)
	// active counts pending traces; the fabric hot paths load it
	// before touching the mutex so an armed-but-idle tracer costs one
	// atomic read per frame.
	active atomic.Int32

	mu      sync.Mutex
	pending map[int]*traceReq    // by VM id
	byConn  map[int]int          // conn id → VM id, for loadgen-side lookup
	done    *prof.Ring[TraceRec] // completed traces, the most recent traceKeep

	mSampled   *metrics.Counter
	mCompleted *metrics.Counter
	mIncompl   *metrics.Counter
	mAbandoned *metrics.Counter
	hHop       [numEvents - 1]*metrics.Hist
}

func newTracer(c *Cluster, every int) *tracer {
	tr := &tracer{
		c:       c,
		every:   uint64(every),
		pending: make(map[int]*traceReq),
		byConn:  make(map[int]int),
		done:    prof.NewRing[TraceRec](traceKeep),
		mSampled: c.Reg.Counter("cluster.trace.sampled",
			"Echo requests sampled into the trace plane."),
		mCompleted: c.Reg.Counter("cluster.trace.completed",
			"Sampled requests whose full nine-event hop chain was stamped."),
		mIncompl: c.Reg.Counter("cluster.trace.incomplete",
			"Sampled requests answered before every interior hop was stamped."),
		mAbandoned: c.Reg.Counter("cluster.trace.abandoned",
			"Sampled requests dropped because their message was resent or given up."),
	}
	for i := range tr.hHop {
		tr.hHop[i] = c.Reg.Hist("cluster.trace.hop."+hopNames[i]+"_us", hopHelp[i])
	}
	return tr
}

// nowNS is the fleet wall clock: nanoseconds since cluster start,
// the same axis the registry clock and the ClockMaps use.
func (c *Cluster) nowNS(t time.Time) int64 { return int64(t.Sub(c.start)) }

// onSend samples a fresh request launch. Called from sendConn under
// lgMu, before the frame enters the fabric, with the same clock read
// that becomes the connection's sentAt — the conservation identity
// starts here.
func (tr *tracer) onSend(vmID, conn int, seq uint32, port uint32, now time.Time) {
	if tr.n.Add(1)%tr.every != 0 {
		return
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if _, ok := tr.pending[vmID]; ok {
		// A traced request on this VM is still in flight. Two pending
		// traces on one VM would make the VM-side hooks ambiguous, so
		// the sampler skips this launch and lets the older trace
		// finish — sampling is approximate, attribution is not.
		return
	}
	req := &traceReq{
		rec:      TraceRec{Conn: conn, VM: vmID, Seq: seq},
		next:     evFabricOut,
		sendName: fmt.Sprintf("kio.sock%d.send", port),
	}
	req.rec.T[evSend] = tr.c.nowNS(now)
	tr.pending[vmID] = req
	tr.byConn[conn] = vmID
	tr.active.Store(int32(len(tr.pending)))
	tr.mSampled.Inc()
}

func (tr *tracer) abandonLocked(req *traceReq, vmID int) {
	delete(tr.pending, vmID)
	delete(tr.byConn, req.rec.Conn)
	tr.active.Store(int32(len(tr.pending)))
	tr.mAbandoned.Inc()
}

// onAbandon drops the pending trace on a connection whose current
// message is being resent or given up — the reply, if it ever
// arrives, can no longer be matched to one fabric transit. Called
// under lgMu.
func (tr *tracer) onAbandon(conn int) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	vmID, ok := tr.byConn[conn]
	if !ok {
		return
	}
	if req, ok := tr.pending[vmID]; ok && req.rec.Conn == conn {
		tr.abandonLocked(req, vmID)
	}
}

// connSeq decodes the loadgen payload header.
func connSeq(f *net.Frame) (int, uint32, bool) {
	if len(f.Payload) < 8 {
		return 0, 0, false
	}
	return int(binary.BigEndian.Uint32(f.Payload[0:])),
		binary.BigEndian.Uint32(f.Payload[4:]), true
}

// onDeliver stamps the two fabric-ring events: a traced request
// landing on its VM's ingress ring (evFabricOut, after any fault
// delay) and its reply landing on the host ring (evHostEnq). Called
// from deliver after a successful ring put; callers gate on
// tr.active, so the payload decode only runs while a trace is
// pending somewhere.
func (tr *tracer) onDeliver(node int, f *net.Frame, now time.Time) {
	conn, seq, ok := connSeq(f)
	if !ok {
		return
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	var req *traceReq
	want := evFabricOut
	if node == net.HostNode {
		vmID, ok := tr.byConn[conn]
		if !ok {
			return
		}
		req = tr.pending[vmID]
		want = evHostEnq
	} else {
		req = tr.pending[node]
	}
	if req == nil || req.rec.Conn != conn || req.rec.Seq != seq || req.next != want {
		return
	}
	req.rec.T[want] = tr.c.nowNS(now)
	req.next = want + 1
}

// onDeposit stamps the NIC DMA deposit (evNicDeposit). Called from
// the driver's ingress drain with the VM cycle at deposit time.
func (tr *tracer) onDeposit(vmID int, f *net.Frame, cycle uint64) {
	conn, seq, ok := connSeq(f)
	if !ok {
		return
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	req := tr.pending[vmID]
	if req == nil || req.rec.Conn != conn || req.rec.Seq != seq || req.next != evNicDeposit {
		return
	}
	req.rec.T[evNicDeposit] = tr.c.nowNS(time.Now())
	req.rec.Cyc[evNicDeposit] = cycle
	req.next = evIRQEntry
}

// onIRQ stamps net-IRQ handler entry (evIRQEntry). Fed by the
// profiler's OnIRQ hook, which runs synchronously in the driver
// goroutine — the wall read is taken at dispatch time. The frame
// itself is invisible here, so the monotone chain does the
// attribution: the first net IRQ after the traced deposit is taken
// as ours (concurrent traffic can blur this split, never the sum).
func (tr *tracer) onIRQ(vmID int, takenAt uint64) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	req := tr.pending[vmID]
	if req == nil || req.next != evIRQEntry {
		return
	}
	req.rec.T[evIRQEntry] = tr.c.nowNS(time.Now())
	req.rec.Cyc[evIRQEntry] = takenAt
	req.next = evDemux
}

// onRegion stamps the two region-entry events: the rx demux
// (evDemux, region kio.net_intr*) and the traced socket's send
// routine (evSendEntry, exact-name match — the echo turning around).
// Fed by the profiler's OnRegionEnter hook.
func (tr *tracer) onRegion(vmID int, name string, at uint64) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	req := tr.pending[vmID]
	if req == nil {
		return
	}
	switch req.next {
	case evDemux:
		if !strings.HasPrefix(name, "kio.net_intr") {
			return
		}
	case evSendEntry:
		if name != req.sendName {
			return
		}
	default:
		return
	}
	req.rec.T[req.next] = tr.c.nowNS(time.Now())
	req.rec.Cyc[req.next] = at
	req.next++
}

// onTx stamps the reply leaving the VM's NIC (evTxLaunch). Called
// from route, in the driver goroutine, before the return fabric
// transit.
func (tr *tracer) onTx(vmID int, f *net.Frame, cycle uint64) {
	conn, seq, ok := connSeq(f)
	if !ok {
		return
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	req := tr.pending[vmID]
	if req == nil || req.rec.Conn != conn || req.rec.Seq != seq || req.next != evTxLaunch {
		return
	}
	req.rec.T[evTxLaunch] = tr.c.nowNS(time.Now())
	req.rec.Cyc[evTxLaunch] = cycle
	req.next = evHostEnq
}

// onRecv finishes a trace: the load generator matched the reply.
// Called from handleReply under lgMu with the same clock read that
// produced the RTT observation — the conservation identity's other
// endpoint. A chain with unstamped interior events counts as
// incomplete and is dropped; a full chain feeds the per-hop
// histograms and the retained-trace ring.
func (tr *tracer) onRecv(conn int, seq uint32, now time.Time) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	vmID, ok := tr.byConn[conn]
	if !ok {
		return
	}
	req := tr.pending[vmID]
	if req == nil || req.rec.Conn != conn || req.rec.Seq != seq {
		return
	}
	delete(tr.pending, vmID)
	delete(tr.byConn, conn)
	tr.active.Store(int32(len(tr.pending)))
	if req.next != evRecv {
		tr.mIncompl.Inc()
		return
	}
	req.rec.T[evRecv] = tr.c.nowNS(now)
	for i := 0; i < numEvents-1; i++ {
		tr.hHop[i].Observe(uint64(req.rec.HopNS(i)) / 1000)
	}
	tr.done.Push(req.rec)
	tr.mCompleted.Inc()
}

// Traces returns the retained completed traces, oldest first.
func (c *Cluster) Traces() []TraceRec {
	if c.tr == nil {
		return nil
	}
	tr := c.tr
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return tr.done.Items()
}

// TraceCounts reports the trace plane's bookkeeping: requests
// sampled, chains completed, chains answered incomplete, and traces
// abandoned to resends or overlap.
func (c *Cluster) TraceCounts() (sampled, completed, incomplete, abandoned uint64) {
	if c.tr == nil {
		return
	}
	return c.tr.mSampled.Value(), c.tr.mCompleted.Value(),
		c.tr.mIncompl.Value(), c.tr.mAbandoned.Value()
}

// ---- merged Chrome trace export ----

// WriteTrace writes the merged fleet Chrome trace (load it at
// chrome://tracing or ui.perfetto.dev): pid 0 carries each retained
// round trip as a waterfall of per-hop slices on the connection's
// row; each VM's pid (its node id) carries, when tracing is on, its
// profiler region timeline, mapped from cycles onto the fleet wall clock
// by the VM's ClockMap, plus instant markers for the traced requests' VM-side
// events. Timestamps are wall microseconds since cluster start, so all
// domains share one axis. The fleet is quiesced (all VM mutexes held)
// while rings are read.
func (c *Cluster) WriteTrace(w io.Writer) error {
	us := func(ns int64) float64 { return float64(ns) / 1e3 }
	tf := prof.TraceFile{DisplayTimeUnit: "ms"}
	tf.TraceEvents = append(tf.TraceEvents, prof.TraceEvent{
		Name: "process_name", Ph: "M", PID: 0,
		Args: map[string]any{"name": "fabric/loadgen"},
	})

	for _, r := range c.Traces() {
		for i := 0; i < HopCount; i++ {
			tf.TraceEvents = append(tf.TraceEvents, prof.TraceEvent{
				Name: hopNames[i], Ph: "X",
				TS: us(r.T[i]), Dur: us(r.HopNS(i)),
				PID: 0, TID: r.Conn,
				Args: map[string]any{"vm": r.VM, "seq": r.Seq},
			})
		}
	}

	for _, vm := range c.vms {
		tf.TraceEvents = append(tf.TraceEvents, prof.TraceEvent{
			Name: "process_name", Ph: "M", PID: vm.ID,
			Args: map[string]any{"name": fmt.Sprintf("vm%d", vm.ID)},
		})
		vm.mu.Lock()
		p := vm.K.Prof
		clk := vm.clk
		if p != nil && clk != nil {
			for _, e := range p.Ring().Items() {
				te := prof.TraceEvent{Name: e.Name, Ph: string(e.Ph), PID: vm.ID, TID: 0,
					TS: us(clk.WallNS(e.At))}
				if e.Ph == 'X' {
					te.Dur = us(clk.WallNS(e.At+e.Dur) - clk.WallNS(e.At))
				} else {
					te.S = "t"
				}
				tf.TraceEvents = append(tf.TraceEvents, te)
			}
		}
		vm.mu.Unlock()
	}

	// VM-side instants of the traced requests, on the VM rows.
	for _, r := range c.Traces() {
		for _, ev := range [...]int{evNicDeposit, evIRQEntry, evDemux, evSendEntry, evTxLaunch} {
			tf.TraceEvents = append(tf.TraceEvents, prof.TraceEvent{
				Name: fmt.Sprintf("trace:%s conn%d", eventName(ev), r.Conn),
				Ph:   "i", TS: us(r.T[ev]), PID: r.VM, TID: 0, S: "t",
			})
		}
	}

	enc := json.NewEncoder(w)
	return enc.Encode(tf)
}

// eventName names an event index (the hop it terminates, or the
// launch).
func eventName(ev int) string {
	if ev == evSend {
		return "send"
	}
	return hopNames[ev-1]
}
