package kio

import (
	"fmt"

	"synthesis/internal/kernel"
	"synthesis/internal/metrics"
)

// kio's half of the observability plane. Every counter in this
// package is maintained by synthesized machine code in VM memory (the
// queue cells NQGauge/NQDrops/NQErrs/NQTxFail, the handler's stack
// drop cell), so the metrics plane never adds an instruction to a hot
// path: the registry holds closures that read the cells only at
// snapshot time. Only the watchdog, whose policy already runs as host
// code behind a KCALL, bumps atomic handles directly.
//
// Naming scheme (documented in README): kio.sock.<port>.<what> for
// per-socket metrics, kio.net.<what> for the shared receive path.
// Per-socket names are unregistered when the socket closes, per-pipe
// names (kio.pipe.<n>.*) when the pipe's last end closes, so a
// snapshot never mixes cells from a freed queue.

// reg returns the registry wired at Boot, or nil (all registration
// below no-ops on a nil registry).
func (io *IO) reg() *metrics.Registry { return io.K.Metrics }

func sockPrefix(local uint32) string {
	return fmt.Sprintf("kio.sock.%d.", local)
}

// registerSockMetrics serves the queue cells of the socket on port
// local through the registry. The closures capture the queue base;
// unregisterSockMetrics drops them when the socket closes.
func (io *IO) registerSockMetrics(local, q uint32) {
	reg := io.reg()
	if reg == nil {
		return
	}
	m := io.K.M
	p := sockPrefix(local)
	reg.Sample(p+"rx_frames", func() uint64 { return uint64(m.Peek(q+NQGauge, 4)) })
	reg.Sample(p+"rx_drops", func() uint64 { return uint64(m.Peek(q+NQDrops, 4)) })
	reg.Sample(p+"rx_errs", func() uint64 { return uint64(m.Peek(q+NQErrs, 4)) })
	reg.Sample(p+"tx_fail", func() uint64 { return uint64(m.Peek(q+NQTxFail, 4)) })
	reg.SampleGauge(p+"queue_depth", func() float64 {
		return float64(m.Peek(q+NQHead, 4) - m.Peek(q+NQTail, 4))
	})
}

// unregisterSockMetrics drops the socket's sampled metrics when it
// closes.
func (io *IO) unregisterSockMetrics(local uint32) {
	if reg := io.reg(); reg != nil {
		reg.UnregisterPrefix(sockPrefix(local))
	}
}

// registerNetMetrics serves the shared receive-path cells; called once
// from installNet.
func (io *IO) registerNetMetrics() {
	reg := io.reg()
	if reg == nil {
		return
	}
	m := io.K.M
	drop := io.netDropCell
	reg.Sample("kio.net.stack_drops", func() uint64 { return uint64(m.Peek(drop, 4)) })
}

// wireWatchdogMetrics attaches the watchdog's host-side counters and
// mode gauges. Nil-registry handles make every bump a no-op.
func (w *Watchdog) wireWatchdogMetrics() {
	reg := w.io.reg()
	w.mEvents = reg.Counter("kio.net.recovery_events")
	w.mThrottled = reg.Gauge("kio.net.throttled")
	w.mGeneric = reg.Gauge("kio.net.generic_fallback")
}

// wireIOMetrics registers the remaining device subsystems' cells as
// sampled metrics (previously they were visible only as raw VM cells):
// the tty input queue, the disk server, and the host-side block
// cursor. Called once from Install, after the device servers exist.
func (io *IO) wireIOMetrics() {
	reg := io.reg()
	if reg == nil {
		return
	}
	m := io.K.M
	ttyQ := io.ttyQ
	reg.Sample("kio.tty.rx_chars", func() uint64 {
		return uint64(m.Peek(ttyQ+KQGauge, 4))
	})
	reg.SampleGauge("kio.tty.queue_depth", func() float64 {
		d := int32(m.Peek(ttyQ+KQHead, 4)) - int32(m.Peek(ttyQ+KQTail, 4))
		if d < 0 {
			d += ttyQueueBytes
		}
		return float64(d)
	})
	reg.Sample("kio.disk.blocks_resident", func() uint64 {
		return uint64(io.nextDiskBlock)
	})
	reg.SampleGauge("kio.disk.reader_parked", func() float64 {
		if m.Peek(io.diskWait, 4) != 0 {
			return 1
		}
		return 0
	})
}

// registerPipeMetrics serves one pipe's queue cells as kio.pipe.<n>.*,
// n counting pipes in creation order.
func (io *IO) registerPipeMetrics(q *KQueue) {
	reg := io.reg()
	if reg == nil {
		return
	}
	m := io.K.M
	pre := fmt.Sprintf("kio.pipe.%d.", io.pipeSeq)
	io.pipeSeq++
	if io.pipeMetrics == nil {
		io.pipeMetrics = make(map[uint32]string)
	}
	io.pipeMetrics[q.Addr] = pre
	reg.SampleGauge(pre+"depth", func() float64 { return float64(q.Len(m)) })
	reg.Sample(pre+"bytes", func() uint64 { return uint64(m.Peek(q.Addr+KQGauge, 4)) })
}

// unregisterPipeMetrics drops the metrics of the pipe on queue q before
// the queue is freed.
func (io *IO) unregisterPipeMetrics(q uint32) {
	if pre, ok := io.pipeMetrics[q]; ok {
		io.reg().UnregisterPrefix(pre)
		delete(io.pipeMetrics, q)
	}
}

// fdPrefix names one descriptor's metrics: kio.fd.<thread>.<n>.*.
func fdPrefix(t *kernel.Thread, fd int32) string {
	return fmt.Sprintf("kio.fd.%s.%d.", t.Name, fd)
}

// registerFDMetrics serves the descriptor's byte gauge (the cell every
// synthesized read/write bumps for the fine-grain scheduler) as a
// sampled metric, tagged with what the descriptor is open on.
func (io *IO) registerFDMetrics(t *kernel.Thread, fd int32) {
	reg := io.reg()
	if reg == nil {
		return
	}
	m := io.K.M
	cell := kernel.FDCell(t.TTE, int(fd), kernel.FDGauge)
	reg.Sample(fdPrefix(t, fd)+"bytes", func() uint64 {
		return uint64(m.Peek(cell, 4))
	})
}

// unregisterFDMetrics drops a descriptor's sampled metrics on close,
// so a reused slot never serves a stale cell.
func (io *IO) unregisterFDMetrics(t *kernel.Thread, fd int32) {
	if reg := io.reg(); reg != nil {
		reg.UnregisterPrefix(fdPrefix(t, fd))
	}
}
