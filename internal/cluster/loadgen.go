package cluster

import (
	"encoding/binary"
	"time"

	"synthesis/internal/net"
)

// The load generator: node 0 on the fabric, standing in for the
// fleet's remote users. One goroutine drives every logical connection
// with a one-message window — send, wait for the echo, send again —
// matching replies by the connection id carried in the payload, so
// thousands of connections multiplex over the per-VM socket capacity.
// Lost messages (fabric drop, NIC ring overflow, a port mid-churn,
// link faults, a partition) are resent after a wall-clock timeout;
// each unanswered resend doubles the wait up to a ceiling, and a
// connection that hits MaxResends gives up and goes silent — the
// generator distinguishes suspecting loss (timeouts), acting on it
// (resends), and abandoning the connection (gave_up). Nothing in the
// fleet is ever blocked on the host.
//
// The loop is closed by construction: the reply that empties a
// connection's window refills it on the spot (handleReply), so the
// steady state touches one connection per reply. Everything that is
// about time rather than about a reply — the first launch, timeouts,
// resends, giving up — is the sweep's, and the sweep looks at every
// connection only when the earliest deadline it knows of has come.
// Between the two the goroutine sleeps on the host ring's signal and
// one timer; it never polls.

// lgConn is one logical connection's state.
type lgConn struct {
	vm       int    // destination node (1-based)
	port     uint32 // guest socket port (plain, pre-tag)
	seq      uint32
	inflight bool
	sentAt   time.Time // current attempt's launch (RTT measures the attempt)
	deadline time.Time // when the current attempt is declared lost
	resends  int       // consecutive resends of the current message
	gaveUp   bool      // hit MaxResends; the connection is silent

	// Recovery bookkeeping: set when a heal event names this
	// connection's VM, cleared by the first reply after it, whose
	// latency from the heal instant lands in cluster.loadgen.recovery_ms.
	recovering  bool
	recoverFrom time.Time
}

// payload renders [conn id (4)][seq (4)][seeded padding] into p, at
// least 8 bytes long, and returns its wire checksum, summed as it
// fills. The padding is deterministic in (seed, conn, seq) so runs are
// reproducible and corruption is detectable end to end by the wire
// checksum alone.
func (c *Cluster) payload(p []byte, id int, seq uint32) uint32 {
	binary.BigEndian.PutUint32(p[0:], uint32(id))
	binary.BigEndian.PutUint32(p[4:], seq)
	sum := uint32(id) + seq
	x := c.padSeed ^ uint64(id)<<32 ^ uint64(seq)
	for i := 8; i < len(p); i += 8 {
		// xorshift64: cheap, stateless per (conn, seq); eight bytes a
		// step, two checksum long words.
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		if len(p)-i >= 8 {
			binary.BigEndian.PutUint64(p[i:], x)
			sum += uint32(x>>32) + uint32(x)
			continue
		}
		var w [8]byte
		binary.BigEndian.PutUint64(w[:], x)
		sum += net.Checksum(w[:copy(p[i:], w[:])])
	}
	return sum
}

// backoffDoublings bounds the resend wait at 16x Timeout.
const backoffDoublings = 4

// backoff is the wait before declaring the attempt after `resends`
// earlier resends lost: Timeout doubled per resend, up to 16x and at
// most 2s (a Timeout above 2s is never doubled).
func (c *Cluster) backoff(resends int) time.Duration {
	w := c.cfg.Timeout << min(resends, backoffDoublings)
	return min(w, max(c.cfg.Timeout, 2*time.Second))
}

// sendConn launches (or relaunches) the connection's current message
// into the fabric toward its guest socket, built in lgBuf. now is the
// caller's clock read. Callers hold lgMu.
func (c *Cluster) sendConn(id int, cn *lgConn, now time.Time) {
	p := c.lgBuf[:c.cfg.PayloadBytes]
	f := net.Frame{
		Dst:     net.MakeAddr(cn.vm, cn.port),
		Src:     net.MakeAddr(net.HostNode, replyPortBase+uint32(id)%uint32(c.cfg.SocketsPerVM)),
		Sum:     c.payload(p, id, cn.seq),
		Payload: p,
	}
	// The launch clock read happens before the frame enters the
	// fabric: the trace plane's first hop stamp and the RTT's sentAt
	// are the same instant, so a traced request's hop deltas
	// telescope to exactly the measured RTT.
	if c.tr != nil && cn.resends == 0 {
		c.tr.onSend(cn.vm, id, cn.seq, cn.port, now)
	}
	// A full ingress ring counts as a fabric drop; the connection
	// stays inflight and the timeout path resends.
	c.route(net.HostNode, f)
	cn.inflight = true
	cn.sentAt = now
	cn.deadline = now.Add(c.backoff(cn.resends))
	if cn.deadline.Before(c.sweepAt) {
		c.sweepAt = cn.deadline
	}
	c.mSent.Inc()
}

// handleReply matches one host-bound frame to its connection and
// launches the connection's next message. Callers hold lgMu.
func (c *Cluster) handleReply(f net.Frame) {
	if f.Sum != net.Checksum(f.Payload) {
		c.mBadSum.Inc()
		return
	}
	if len(f.Payload) < 8 {
		c.mStale.Inc()
		return
	}
	id := int(binary.BigEndian.Uint32(f.Payload[0:]))
	seq := binary.BigEndian.Uint32(f.Payload[4:])
	if id < 0 || id >= len(c.conns) {
		c.mStale.Inc()
		return
	}
	cn := &c.conns[id]
	if !cn.inflight || seq != cn.seq {
		// A late echo of a message already resent and answered.
		c.mStale.Inc()
		return
	}
	// One clock read closes this attempt and launches the next.
	now := time.Now()
	c.hRTT.Observe(uint64(now.Sub(cn.sentAt) / time.Microsecond))
	if c.tr != nil {
		// The same clock read as the RTT observation closes the trace:
		// the conservation identity's other endpoint.
		c.tr.onRecv(id, seq, now)
	}
	if cn.recovering {
		// Time to first reply after the heal: the fleet's measured
		// recovery latency, backoff waits and all.
		c.hRecovery.Observe(uint64(now.Sub(cn.recoverFrom) / time.Millisecond))
		cn.recovering = false
	}
	cn.inflight = false
	cn.resends = 0
	if cn.seq == 0 {
		// First completed trip on this connection: it is live end to
		// end (its socket opened, its frames route). Benchmarks warm
		// up on this count — replies alone can't tell "every
		// connection live" from "two connections echoing fast".
		c.nActive.Add(1)
	}
	cn.seq++
	c.mReplies.Inc()
	if !cn.gaveUp {
		c.sendConn(id, cn, now)
	}
}

// drainHeals applies pending heal events: every live connection whose
// VM the cut had severed from the host starts a recovery-latency
// measurement from the heal instant.
func (c *Cluster) drainHeals() {
	for {
		select {
		case ev := <-c.fp.healCh:
			if len(ev.vms) == 0 {
				continue // the cut never separated the host from anyone
			}
			c.lgMu.Lock()
			for i := range c.conns {
				cn := &c.conns[i]
				if ev.vms[cn.vm] && !cn.gaveUp && !cn.recovering {
					cn.recovering = true
					cn.recoverFrom = ev.at
				}
			}
			c.lgMu.Unlock()
		default:
			return
		}
	}
}

// sweep is the generator's timed half, run when the earliest deadline
// has come: launch what has nothing in flight (the first sweep
// launches every connection), declare overdue attempts lost and resend
// them with the wait doubled, give up past MaxResends. It leaves
// sweepAt at the earliest deadline still running. Callers hold lgMu.
func (c *Cluster) sweep(now time.Time) {
	// No live deadline is further off than the longest wait; sendConn
	// and the last case below pull sweepAt in from there.
	c.sweepAt = now.Add(c.backoff(backoffDoublings))
	for i := range c.conns {
		cn := &c.conns[i]
		switch {
		case cn.gaveUp:
			// Past the resend cap: silent until the run ends.
		case !cn.inflight:
			c.sendConn(i, cn, now)
		case now.After(cn.deadline):
			c.mTimeouts.Inc()
			if c.tr != nil {
				// A resent (or abandoned) message's reply can no
				// longer be matched to one fabric transit.
				c.tr.onAbandon(i)
			}
			if c.cfg.MaxResends > 0 && cn.resends >= c.cfg.MaxResends {
				cn.gaveUp = true
				c.mGaveUp.Inc()
				break
			}
			cn.resends++
			c.mResends.Inc()
			c.sendConn(i, cn, now)
		case cn.deadline.Before(c.sweepAt):
			c.sweepAt = cn.deadline
		}
	}
}

// loadgen is the generator goroutine: woken by the host ring it drains
// replies, each of which relaunches its connection; woken by the timer
// it sweeps. sweepAt starts at the zero time, so the first pass sweeps.
// cluster.loadgen.wakes counts the wake-ups.
func (c *Cluster) loadgen() {
	defer c.wg.Done()
	timer := time.NewTimer(0)
	defer timer.Stop()
	for {
		c.drainHeals()
		c.lgMu.Lock()
		for {
			f, ok := c.hostRing.Get()
			if !ok {
				break
			}
			c.handleReply(f)
		}
		if now := time.Now(); !now.Before(c.sweepAt) {
			c.sweep(now)
		}
		timer.Reset(time.Until(c.sweepAt))
		c.lgMu.Unlock()
		select {
		case <-c.hostRing.Ready():
		case <-timer.C:
		case <-c.done:
			return
		}
		c.mWakes.Inc()
	}
}
