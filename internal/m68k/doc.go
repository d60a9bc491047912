// Package m68k implements the Quamachine: a cycle-accounted virtual
// machine in the style of the Motorola 68020 CPU used by the Synthesis
// kernel (Massalin & Pu, SOSP 1989). The machine models the features
// the paper's measurements depend on: a register architecture with
// data/address registers, big-endian byte-addressable memory with
// configurable wait states, prioritized vectored interrupts dispatched
// through a relocatable vector base register (one vector table per
// Synthesis thread), TRAP/RTE kernel entry and exit, compare-and-swap
// for optimistic synchronization, MOVEM block register transfer for
// context switching, lazy floating-point context via a trap on first
// FP use, memory-mapped devices, and hardware measurement facilities
// (instruction counter, memory-reference counter, microsecond clock,
// and the Probe hook internal/prof records the execution trace
// through) matching Section 6.1 of the paper.
//
// Code is held in a separate code space addressed by instruction index
// rather than encoded bytes; this keeps run-time code synthesis (the
// point of the exercise) structured while preserving the quantity the
// paper measures, which is path length in instructions and cycles.
//
// Two clocks govern the package. The simulated cycle clock
// (Machine.Cycles, read via Clock) is deterministic and
// host-independent: it is the clock every paper-facing table is
// denominated in. The host-side cost of advancing it is separate, and
// is kept low by a threaded-code dispatcher (dispatch.go): each code
// slot is translated once into a specialized Go closure, cached per
// PC, and invalidated by any code-space write (SetCode, PatchCode) —
// so self-modifying synthesized code stays bit-identical to the
// reference switch interpreter in exec.go while executing several
// times faster on the host. See docs/PERFORMANCE.md for the
// measurement story and DESIGN.md §3b for the design narrative.
package m68k
