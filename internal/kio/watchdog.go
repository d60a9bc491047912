package kio

import "synthesis/internal/m68k"

// The network watchdog quaject: the recovery plane's policy half.
//
// The data plane already degrades on its own — checksummed receive,
// bounded-retry send, counted drops. What it cannot do alone is
// notice that the *handler itself* has gone wrong: a device screaming
// interrupts at its level (an IRQ storm), or a synthesized handler
// that runs but no longer drains the ring (wedged — e.g. its code was
// clobbered). The watchdog samples the handler's gauges once per
// alarm window and responds the way Synthesis responds to everything:
// by resynthesizing the handler.
//
//   - Storm: handler entries per window reach the storm threshold. The
//     handler is resynthesized with a coalescing front-end — only
//     every coalesceBatch-th interrupt runs the drain, so a scream
//     costs three instructions instead of a drain attempt (Collapsing
//     Layers applied to recovery: the mitigation is folded into the
//     handler, not bolted on around it). When the rate falls below
//     half the threshold, the plain handler is resynthesized and one
//     interrupt is posted to drain whatever the batching deferred.
//
//   - Wedge: frames are pending (NIC head ahead of the kernel's
//     consumed-frame cursor) but the cursor has not moved for
//     wedgeWindows consecutive windows. The handler is rebuilt from its
//     invariants — the same specialized handler, its whole code region
//     rewritten, every demux cell written from the socket table and
//     the vector re-pointed — on the theory that what broke is the
//     installed code, not the table it was built from. One interrupt
//     is posted to restart the drain. A rebuild happens at most once
//     until the cursor moves again: a wedge the rebuild cannot clear
//     is logged once, not once per window.
//
// Every transition is logged as a RecoveryEvent with the cycle it
// happened at; Table 7 reports recovery latency from these, and the
// metrics plane reads its kio.net.recovery* counts from the same log.

// The policy's fixed settings.
const (
	windowUS      = 500 // alarm sampling window
	coalesceBatch = 8   // drain every Nth interrupt while throttled (a power of two)
	wedgeWindows  = 2   // stalled windows before a rebuild
)

// RecoveryEvent is one watchdog action, for reports and tests.
type RecoveryEvent struct {
	Cycle uint64
	Kind  string // one of eventKinds
}

// Watchdog is the policy state. Policy runs in Go behind a KCALL (the
// same division as the fine-grain scheduler: gauges are bumped by
// synthesized code, the policy that reads them is host code).
type Watchdog struct {
	io    *IO
	storm uint32 // handler entries per window that count as a storm

	Events   []RecoveryEvent
	lastTail uint32
	stalled  int
	rebuilt  bool // a rebuild since the cursor last moved
}

// eventKinds are the RecoveryEvent kinds, in the order the metrics
// plane reports them.
var eventKinds = []string{"throttle-on", "throttle-off", "rebuild"}

// InstallWatchdog arranges for the watchdog to sample the network
// handler from the machine's alarm channel, and resynthesizes the
// receive handler so it maintains the storm gauge. The alarm channel
// has one owner (kernel.OnAlarm): on a kernel where another host
// policy, such as the fine-grain scheduler's, holds it, the install
// panics. stormThreshold is the handler entries per window that
// count as a storm. Call before spawning threads or after; the vector
// pokes cover both.
func (io *IO) InstallWatchdog(stormThreshold uint32) *Watchdog {
	w := &Watchdog{io: io, storm: stormThreshold}
	io.netWD = w
	io.resynthNetHandler() // now bumps the storm gauge
	io.K.OnAlarm(windowUS, w.tick)
	return w
}

// tick runs one policy step: read and reset the window gauges, engage
// or release the storm throttle, detect a wedged handler.
func (w *Watchdog) tick() {
	io := w.io
	m := io.K.M
	entries := m.Peek(io.netStormCell, 4)
	m.Poke(io.netStormCell, 4, 0)

	if !w.Throttled() && entries >= w.storm {
		io.netCoalesce = coalesceBatch
		io.resynthNetHandler()
		w.event("throttle-on")
	} else if w.Throttled() && entries < w.storm/2 {
		io.netCoalesce = 0
		io.resynthNetHandler()
		// Drain whatever the batching deferred.
		m.PostInterrupt(m68k.IRQNet)
		w.event("throttle-off")
	}

	// Wedge: frames pending but the drain cursor stalled.
	tail := m.Peek(io.netTailCell, 4)
	moved := tail != w.lastTail
	if moved {
		w.rebuilt = false
	}
	if io.K.Net.RxPending() > 0 && !moved {
		w.stalled++
	} else {
		w.stalled = 0
	}
	w.lastTail = tail
	if w.stalled >= wedgeWindows && !w.rebuilt {
		w.rebuilt = true
		io.resynthNetHandler()
		m.PostInterrupt(m68k.IRQNet)
		w.event("rebuild")
	}
}

func (w *Watchdog) event(kind string) {
	w.Events = append(w.Events, RecoveryEvent{Cycle: w.io.K.M.Clock(), Kind: kind})
}

// Throttled reports whether the storm throttle is engaged.
func (w *Watchdog) Throttled() bool { return w.io.netCoalesce != 0 }
