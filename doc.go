// Package synthesis is a reproduction of "Threads and Input/Output in
// the Synthesis Kernel" (Henry Massalin and Calton Pu, SOSP 1989) as a
// Go library.
//
// The Synthesis kernel's two headline techniques — run-time kernel
// code synthesis and reduced (optimistic) synchronization — are built
// here twice over:
//
//   - On the simulation plane, internal/m68k implements the
//     Quamachine, a cycle-accounted 68020-class virtual machine, and
//     internal/kernel + internal/kio implement the Synthesis kernel on
//     it: per-thread synthesized context switches chained through the
//     executable ready queue, system calls synthesized by open,
//     procedure chaining, lazy floating-point contexts, and the
//     stream I/O servers. internal/sunos is the traditional baseline
//     kernel the paper compares against, and internal/bench
//     regenerates Tables 1-5 of the evaluation.
//
//   - On the library plane, internal/queue provides the paper's
//     optimistic lock-free queues (Figures 1 and 2: SP-SC, MP-SC with
//     atomic multi-item insert, MP-MC) as Go code, and internal/net
//     builds the fleet fabric's signalling packet ring on the MP-SC.
//
// See DESIGN.md for the system inventory and the per-experiment index,
// EXPERIMENTS.md for paper-versus-measured results, and the examples/
// directory for runnable programs. The benchmarks in bench_test.go
// regenerate every table with `go test -bench=.`.
package synthesis
