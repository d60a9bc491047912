// Package metrics is the unified observability plane: a lock-free
// registry of named counters, gauges and log-bucketed histograms with
// cheap snapshot/delta views and JSON + Prometheus-text exposition.
//
// The Quamachine measures itself (Section 6.1 of the paper: µs
// interval timer, instruction and memory-reference counters); this
// package gives the rest of the reproduction the same always-on,
// near-zero-cost discipline. Hot paths hold typed handles (*Counter,
// *Gauge, *Hist) and update them with single atomic operations; a
// disabled plane hands out nil handles, on which every update method
// is an inlined nil-check no-op — the same contract as the m68k Probe
// hook. See the Example functions for the handle idiom.
//
// Counters that synthesized Quamachine code maintains in VM memory
// (queue gauges, error tallies, the kernel's spurious-IRQ cell) are
// not mirrored on the hot path at all: they register as *sampled*
// metrics, a closure the registry calls only at Snapshot time. The
// generated code keeps its single AddL to a folded absolute address;
// the registry serves the same cell to every consumer. A family whose
// members come and go with the objects they describe (open sockets,
// descriptors, pipes) is not registered name by name: one Collect
// function reports it at Snapshot time from the record that already
// holds the objects, so opening and closing one never edits the
// registry.
//
// Naming follows "<subsystem>.<object>.<metric>" with dots, e.g.
// kio.sock.7.tx_fail or kernel.spurious_irq; the Prometheus
// exposition rewrites dots to underscores and prefixes "synthesis_".
// docs/OBSERVABILITY.md catalogues the names the kernel registers.
//
// A Snapshot is a consistent point-in-time copy; Delta subtracts two
// snapshots and derives rates from the cycle clock the registry is
// bound to (SetClock). The same snapshot serializes through
// WriteJSON/WritePrometheus for the host-side exporters and through
// JSONBytes/PromBytes for the guest-visible /proc/metrics quaject,
// so the VM and the host read literally the same bytes.
package metrics
