// Package queue implements the Synthesis kernel's optimistic queues
// (Massalin & Pu, SOSP 1989, Section 3.2) as a production Go library.
//
// The paper classifies queues by their operating environment —
// single- or multiple-producer crossed with single- or multiple-
// consumer — and, applying the principle of frugality, uses the
// cheapest implementation that is safe for each case:
//
//   - SPSC (Figure 1): producer and consumer touch disjoint variables
//     (Code Isolation); the only synchronization is the ordering of
//     the final index store.
//   - MPSC (Figure 2): producers stake a claim to buffer space with a
//     single compare-and-swap and a retry loop; a valid-flag array
//     tells the consumer which claimed slots have been filled, which
//     also yields atomic multi-item insert (PutBatch).
//   - SPMC: the mirror image, consumers claim with compare-and-swap.
//   - MPMC: both ends claim with compare-and-swap; per-slot sequence
//     numbers generalize the valid-flag array and make the queue safe
//     across index wraparound.
//
// All optimistic queues are lock-free and non-blocking: TryPut and
// TryGet return false instead of waiting. Of the paper's other two
// kinds, the "synchronous" (blocking) queue is Locked, a
// mutex-and-condition queue that doubles as the traditional baseline
// the ablation benchmarks compare against; the "asynchronous"
// (signalling) queue has one user and lives with it: net.PacketRing
// puts a wake-up channel beside an MPSC, and the fleet's consumers
// sleep on it.
//
// What each kind is kept for: SPSC is Figure 1, MPSC and PutBatch are
// Figure 2 and the fleet fabric's rings, MPMC against Locked is the
// ablation row and examples/lockfree. SPMC has no caller outside this
// package's tests.
package queue
