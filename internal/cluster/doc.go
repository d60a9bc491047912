// Package cluster is the fleet harness: N Quamachines, each running
// its own Synthesis kernel with synthesized per-socket I/O paths,
// bridged by a Go switch fabric and driven by a host-side load
// generator standing in for thousands of remote users.
//
// The fabric extends the 12-byte wire format upward instead of
// changing it: a cluster address packs a node id into the high byte
// of the 32-bit port word (net.MakeAddr), the fabric routes on that
// byte, and pops it before a frame enters a VM — so the synthesized
// receive handler's compare-immediate demux cells, the per-socket
// send routines, and the NIC device are all byte-identical to the
// single-machine configuration. Scale composes around the synthesized
// code, never through it.
//
// Topology: star. Node 0 is the host (the load generator); VM nodes
// are 1-based. Each VM runs one goroutine alternating between
// draining its fabric ingress ring into the NIC (paced by the ring's
// RxPending, so device backpressure is honored, not bypassed) and
// executing a bounded cycle chunk, and parking on that ring's signal
// whenever the guest's CPU is in STOP with nothing queued for it — no
// goroutine in the fleet polls or sleeps to pass the time. The load
// generator is the one wall-clock actor: it also steps the fault
// plane's queue of held frames, cuts and heals. Egress rides the NIC's
// Tx hook: the fabric's verdict lands in NetRegTxStat, so the
// synthesized send's bounded retry/backoff sees fabric congestion
// exactly as it sees a full loopback ring.
//
// Beyond steady-state traffic the package carries the fleet's
// measurement and failure planes: per-VM-prefixed fleet metrics
// (Snapshot), a per-hop request trace plane (trace.go) feeding merged
// Chrome traces, per-VM flight recorders (flight.go) that dump a
// dying guest's tail, and the composable fault plane (fault.go):
// per-link fault rules, scripted partition/heal windows, and per-VM
// wire injectors, all seeded and replayable. benchmark/'s fleet_echo
// workload (its cluster.* metrics and cluster.hop.<name>_p50_us rows),
// quamon -cluster and the cluster/chaos soaks are built on these. All
// cluster rates are host-wall-clock and therefore nondeterministic;
// docs/PERFORMANCE.md says how fleet_echo bounds them.
package cluster
