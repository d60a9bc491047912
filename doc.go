// Package synthesis is a reproduction of "Threads and Input/Output in
// the Synthesis Kernel" (Henry Massalin and Calton Pu, SOSP 1989) as a
// Go library.
//
// The Synthesis kernel's two headline techniques — run-time kernel
// code synthesis and reduced (optimistic) synchronization — are built
// as code running on a simulated machine:
//
//   - internal/m68k implements the Quamachine, a cycle-accounted
//     68020-class virtual machine, and internal/kernel + internal/kio
//     implement the Synthesis kernel on it: per-thread synthesized context switches chained through the
//     executable ready queue, system calls synthesized by open,
//     procedure chaining, lazy floating-point contexts, and the
//     stream I/O servers. internal/sunos is the traditional baseline
//     kernel the paper compares against, and internal/bench
//     regenerates Tables 1-5 of the evaluation.
//
//   - The optimistic queues of Figures 1 and 2 are that code too: kio's
//     byte queues and internal/bench's Figure 2 puts, which the
//     queue_contention table runs under preemption. On the Go side,
//     internal/net's packet ring is Figure 2's MP-SC queue for the
//     fleet fabric, with a wake-up signal for its consumer.
//
// See DESIGN.md for the system inventory and the per-experiment index,
// EXPERIMENTS.md for paper-versus-measured results, and the examples/
// directory for runnable programs.
package synthesis
