// Package prof is the Quamachine measurement plane: per-region cycle
// and instruction attribution, interrupt-latency histograms, a
// trace-event ring exportable as Chrome trace JSON, and the program
// trace of the recent instructions and exceptions (Trace, Tail),
// recorded only once a reader arms it (ArmTrace).
//
// Section 6.1 of the paper measures everything on the Quamachine's
// built-in instrumentation — microsecond timer, instruction and
// memory-reference counters, tracing hardware. The VM counterpart is
// a Probe attached to the m68k machine: every instruction step is
// attributed to the registered code region containing its PC, so the
// aggregate cycle counts behind Tables 1-6 decompose into named
// quaject routines (e.g. kio.sock3.send) instead of one opaque total.
// The synthesizer registers every routine it emits (synth.Builder's
// Named option), so attribution covers code that did not exist at
// boot.
//
// Attachment is optional and costs nothing when absent: the machine's
// step loop checks a single nil interface before doing any probe
// work. Attached, it takes every instruction through Step, so Run's
// fast loop and its collapsed loops stay off while it is. When a metrics.Registry is present the profiler's
// interrupt-latency histograms are the registry's
// prof.irq.l<ipl>.latency_cycles, which
// is how they reach quamon and the guest-visible /proc/metrics
// snapshot.
//
// Reports: Top/Report for per-region tables, Coverage for the
// fraction of cycles landing in named regions (the tier-1 acceptance
// bar is 95% across the Table 1 programs), WriteChromeTrace for a
// timeline loadable in about:tracing or ui.perfetto.dev.
package prof
