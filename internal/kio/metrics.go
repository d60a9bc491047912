package kio

import (
	"fmt"

	"synthesis/internal/kernel"
	"synthesis/internal/metrics"
)

// kio's half of the observability plane. Every counter in this
// package is maintained by synthesized machine code in VM memory (the
// queue cells NQHead/NQDrops/NQErrs/NQTxFail, the handler's stack
// drop cell), so the metrics plane never adds an instruction to a hot
// path: the registry holds closures that read the cells only at
// snapshot time. The watchdog's policy runs as host code behind a
// KCALL, and its metrics are read the same way, from its event log.
//
// Naming scheme (documented in docs/OBSERVABILITY.md):
// kio.sock.<port>.<what> for per-socket metrics, kio.fd.<thread>.<fd>.bytes
// per descriptor, kio.pipe.<queue address>.<what> per pipe, and
// kio.net.<what> for the shared receive path. The per-object families
// are not registered at all: the socket table and the TTEs' descriptor
// slots already record what is open, and collect reads them at
// snapshot time, so open and close never touch the registry and a
// snapshot never reads a freed queue.

// reg returns the registry wired at Boot, or nil (all registration
// below no-ops on a nil registry).
func (io *IO) reg() *metrics.Registry { return io.K.Metrics }

// collect reports the families of the objects open right now: each
// live socket table entry's queue cells, each open descriptor's byte
// gauge, and each pipe queue an open pipe end names. A socket slot
// and the generic /proc twin report no descriptor family. Once the
// watchdog is installed it also reports the watchdog's event counts,
// each kind from 0, and whether the storm throttle is engaged.
func (io *IO) collect(c metrics.Collector) {
	m := io.K.M
	if w := io.netWD; w != nil {
		kinds := map[string]uint64{}
		for _, ev := range w.Events {
			kinds[ev.Kind]++
		}
		for _, kind := range eventKinds {
			c.Counter("kio.net.recovery."+kind, kinds[kind])
		}
		c.Counter("kio.net.recovery_events", uint64(len(w.Events)))
		throttled := 0.0
		if w.Throttled() {
			throttled = 1
		}
		c.Gauge("kio.net.throttled", throttled)
	}
	for j := uint32(0); j < MaxSockets; j++ {
		e := io.netSockTab + j*sockEntrySize
		q := m.Peek(e+4, 4)
		if q == 0 {
			continue
		}
		p := fmt.Sprintf("kio.sock.%d.", m.Peek(e, 4))
		c.Counter(p+"rx_frames", uint64(m.Peek(q+NQHead, 4)))
		c.Counter(p+"rx_drops", uint64(m.Peek(q+NQDrops, 4)))
		c.Counter(p+"rx_errs", uint64(m.Peek(q+NQErrs, 4)))
		c.Counter(p+"tx_fail", uint64(m.Peek(q+NQTxFail, 4)))
		c.Gauge(p+"queue_depth", float64(m.Peek(q+NQHead, 4)-m.Peek(q+NQTail, 4)))
	}
	pipes := map[uint32]bool{}
	// In creation order, so a repeated thread name reports the same slot
	// on every snapshot.
	for t := range io.K.Threads() {
		for fd := int32(0); fd < kernel.MaxFD; fd++ {
			switch io.fdCell(t, fd, kernel.FDKind) {
			case FDFree, FDSock, FDProcGeneric:
				continue
			case FDPipeR, FDPipeW:
				if q := io.fdCell(t, fd, kernel.FDAux); !pipes[q] {
					pipes[q] = true
					p := fmt.Sprintf("kio.pipe.%d.", q)
					c.Gauge(p+"depth", float64(io.pipeQueue(q).Len(m)))
					c.Counter(p+"bytes", uint64(m.Peek(q+KQGauge, 4)))
				}
			}
			c.Counter(fmt.Sprintf("kio.fd.%s.%d.bytes", t.Name, fd), uint64(io.fdCell(t, fd, kernel.FDGauge)))
		}
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
	reg.Collect(io.collect)
}
