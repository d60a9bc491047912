package bench

import (
	"errors"
	"fmt"

	"synthesis/internal/asmkit"
	"synthesis/internal/kernel"
	"synthesis/internal/m68k"
	"synthesis/internal/synth"
)

// Figure 2 path lengths: "the current implementation of MP-SC has a
// normal execution path length of 11 instructions (on the MC68020
// processor) through Q_put ... The thread that succeeds consumes 11
// instructions. The failing thread goes once around the retry loop
// for a total of 20 instructions."
//
// The routine below is Figure 2 transliterated (single-item insert:
// AddWrap, the space check, the compare-and-swap claim with its retry
// loop, the slot fill and the valid-flag set), synthesized with the
// queue geometry folded in. The instruction counter of the Quamachine
// counts the exact path.

// queueGeom lays out an MP-SC queue. A nonzero retries cell counts
// failed claims: the puts bump it on the retry path only, so the
// normal path is the same instructions with or without it.
type queueGeom struct {
	head, tail, buf, flags uint32
	size                   int32
	retries                uint32
}

// retryLabel is where a failed claim branches: back to retry, or
// through countRetries' block when g has a counter.
func (g queueGeom) retryLabel() string {
	if g.retries == 0 {
		return "retry"
	}
	return "retried"
}

// countRetries emits the retryLabel block after a put's last RTS.
func (g queueGeom) countRetries(e *synth.Emitter) {
	if g.retries != 0 {
		e.Label("retried")
		e.AddL(m68k.Imm(1), m68k.Abs(g.retries))
		e.Bra("retry")
	}
}

// newQueueGeom lays out a queue of size slots on k's fresh heap, with
// no retry counter. One slot stays empty, so it holds size-1 items.
func newQueueGeom(k *kernel.Kernel, size int32) queueGeom {
	alloc := func(n uint32) uint32 { a, _ := k.Heap.Alloc(n); return a }
	return queueGeom{head: alloc(4), tail: alloc(4), buf: alloc(uint32(size)), flags: alloc(uint32(size)), size: size}
}

// synthFig2Put emits Q_put(data=D1) for one item; returns in D0 the
// value 1 on success, 0 on queue-full. A nonzero interfere places a
// KCALL to that service between the read of Q_head and the CAS: the
// point where a competing processor's claim forces one retry. masked
// emits the twin that claims under the interrupt mask with a plain
// store instead of the CAS, so nothing can run inside its claim and it
// has no retry loop; its fill and flag set run unmasked, as the CAS
// put's do.
func synthFig2Put(c *synth.Creator, g queueGeom, interfere uint8, masked bool) uint32 {
	name := "fig2_qput"
	if interfere != 0 {
		name += "_interfered"
	}
	if masked {
		name += "_masked"
	}
	return c.Synthesize(nil, name, nil, func(e *synth.Emitter) {
		if masked {
			e.OrSR(kernel.SRIPLMask)
		}
		e.Label("retry")
		e.MoveL(m68k.Abs(g.head), m68k.D(0)) // h = Q_head
		e.MoveL(m68k.D(0), m68k.D(2))        // hi = AddWrap(h, 1)
		e.AddL(m68k.Imm(1), m68k.D(2))
		e.CmpL(m68k.Imm(g.size), m68k.D(2))
		e.Bne("nowrap")
		e.Clr(4, m68k.D(2))
		e.Label("nowrap")
		e.Cmp(4, m68k.Abs(g.tail), m68k.D(2)) // SpaceLeft(h) > 0 ?
		e.Beq("full")
		if interfere != 0 {
			e.Kcall(interfere) // not counted: see pathLengths
		}
		if masked {
			e.MoveL(m68k.D(2), m68k.Abs(g.head)) // the claim
			e.AndSR(^uint16(kernel.SRIPLMask))
		} else {
			e.Cas(4, 0, 2, m68k.Abs(g.head)) // stake the claim
			e.Bne(g.retryLabel())
		}
		// Fill the claimed slot, then publish it through the flag
		// array ("as the producers fill each queue element, they also
		// set a flag in the associated array").
		e.Lea(m68k.Abs(g.buf), 0)
		e.MoveB(m68k.D(1), m68k.Idx(0, 0, 0, 1))
		e.Lea(m68k.Abs(g.flags), 0)
		e.MoveB(m68k.Imm(1), m68k.Idx(0, 0, 0, 1))
		e.MoveL(m68k.Imm(1), m68k.D(0))
		e.Rts()
		e.Label("full")
		if masked {
			e.AndSR(^uint16(kernel.SRIPLMask))
		}
		e.Clr(4, m68k.D(0))
		e.Rts()
		g.countRetries(e)
	})
}

// pathLengths measures the Figure 2 claims: instructions through
// Q_put on the uncontended path and with exactly one CAS retry
// (interference injected by a KCALL hook that bumps Q_head between
// the producer's read and its compare-and-swap, standing in for the
// competing processor), and through the multi-item atomic insert,
// Figure 2 verbatim, whose one CAS claims 8 slots before the fill loop
// sets data and flags, so the claim amortizes.
func pathLengths(mt *meter) []Row {
	k := synthRig().K
	m := k.M
	g := newQueueGeom(k, 64)
	stack, _ := k.Heap.Alloc(256)
	stack += 256

	// Instruction-count a call: a mark pair brackets the jsr, so the
	// interval is the jsr and the routine through its rts.
	countPut := func(put uint32) float64 {
		b := asmkit.New()
		b.MoveL(m68k.Imm('x'), m68k.D(1))
		mark(b)
		b.Jsr(put)
		mark(b)
		b.Halt()
		m.PC = b.Link(m)
		m.ClearHalt()
		m.A[7] = stack
		m.SR = m68k.FlagS | 7<<8 // measure the bare path, no interrupts
		m.Marks = nil
		if err := m.Run(runaway); !errors.Is(err, m68k.ErrHalted) {
			mt.fail(fmt.Errorf("pathlen: %w", err))
			return 0
		}
		return float64(m.MarkInstrs()[0] - 1) // less the jsr
	}
	uncontended := countPut(synthFig2Put(k.C, g, 0, false))

	// One retry: a hook on the CAS instruction's first execution
	// advances Q_head underneath the producer, exactly what a
	// competing processor's successful claim does.
	const competitor = 120 // the KCALL service standing in for the other processor
	interfered := false
	m.RegisterService(competitor, func(mm *m68k.Machine) uint64 {
		if !interfered {
			interfered = true
			h := mm.Peek(g.head, 4)
			hi := h + 1
			if int32(hi) == g.size {
				hi = 0
			}
			mm.Poke(g.head, 4, hi)
		}
		return 0
	})
	// The two KCALL probe instructions are not part of the algorithm.
	retry := countPut(synthFig2Put(k.C, g, competitor, false)) - 2
	batch := countPut(synthFig2PutBatch(k.C, g, 8))
	return []Row{
		{"Q_put, no interference", 11, uncontended, "instr", "space check + CAS claim + fill + flag set"},
		{"Q_put, one CAS retry", 20, retry, "instr", "competing claim between the read and the CAS"},
		{"Q_put, 8-item atomic batch", 0, batch, "instr", fmt.Sprintf("%.1f instructions/item: the claim amortizes", batch/8)},
	}
}

// synthFig2PutBatch emits the multi-item Q_put of Figure 2: stake a
// claim for H slots with one compare-and-swap, then fill them while
// setting the valid flags. Items are H copies of D1's low byte.
func synthFig2PutBatch(c *synth.Creator, g queueGeom, h int32) uint32 {
	return c.Synthesize(nil, "fig2_qput_batch", nil, func(e *synth.Emitter) {
		e.Label("retry")
		e.MoveL(m68k.Abs(g.head), m68k.D(0)) // h = Q_head
		e.MoveL(m68k.D(0), m68k.D(2))        // hi = AddWrap(h, H)
		e.AddL(m68k.Imm(h), m68k.D(2))
		e.CmpL(m68k.Imm(g.size), m68k.D(2))
		e.Bcs("nowrap")
		e.SubL(m68k.Imm(g.size), m68k.D(2))
		e.Label("nowrap")
		// SpaceLeft(h) >= H: the h - t mod size slots in use and the H
		// claimed must leave one slot empty.
		e.MoveL(m68k.D(0), m68k.D(3))
		e.SubL(m68k.Abs(g.tail), m68k.D(3))
		e.Bcc("nofix")
		e.AddL(m68k.Imm(g.size), m68k.D(3))
		e.Label("nofix")
		e.AddL(m68k.Imm(h), m68k.D(3))
		e.CmpL(m68k.Imm(g.size), m68k.D(3))
		e.Bcc("full")
		e.Cas(4, 0, 2, m68k.Abs(g.head)) // one claim for the whole batch
		e.Bne(g.retryLabel())
		// Fill the claimed span: "the producer then proceeds to fill
		// the space, at the same time as other producers are filling
		// theirs", publishing each slot through its flag.
		e.MoveL(m68k.Imm(h-1), m68k.D(3))
		e.Label("fill")
		e.Lea(m68k.Abs(g.buf), 0)
		e.MoveB(m68k.D(1), m68k.Idx(0, 0, 0, 1))
		e.Lea(m68k.Abs(g.flags), 0)
		e.MoveB(m68k.Imm(1), m68k.Idx(0, 0, 0, 1))
		e.AddL(m68k.Imm(1), m68k.D(0)) // AddWrap(h, i)
		e.CmpL(m68k.Imm(g.size), m68k.D(0))
		e.Bne("nw2")
		e.Clr(4, m68k.D(0))
		e.Label("nw2")
		e.Dbra(3, "fill")
		e.MoveL(m68k.Imm(1), m68k.D(0))
		e.Rts()
		e.Label("full")
		e.Clr(4, m68k.D(0))
		e.Rts()
		g.countRetries(e)
	})
}
