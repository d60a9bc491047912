package kio

import (
	"synthesis/internal/kernel"
	"synthesis/internal/m68k"
	"synthesis/internal/synth"
)

// The A/D device server (Section 5.4): the sampler interrupts 44,100
// times per second, far too often to pay a full queue insert per
// sample, so the synthesized handler packs eight 32-bit words into
// each queue element — a buffered queue whose per-sample insert is "a
// couple of instructions", with the real queue-advance cost amortized
// by the blocking factor.

// ADBlockingFactor is the samples packed per queue element.
const ADBlockingFactor = 8

// adChunks is the queue depth in elements.
const adChunks = 32

// ADQueue is the buffered sample queue (host-side mirror).
//
// Memory layout:
//
//	+0  wrptr  — write cursor inside the current element
//	+4  count  — samples remaining until the element is full
//	+8  head   — producer element index
//	+12 tail   — consumer element index
//	+16 rwait  — reader wait cell
//	+20 gauge  — element completion count
//	+24 buf    — adChunks elements of ADBlockingFactor words
type ADQueue struct {
	Addr uint32
}

const (
	adWrPtr = 0
	adCount = 4
	adHead  = 8
	adTail  = 12
	adRWait = 16
	adGauge = 20
	adBuf   = 24
)

const adChunkBytes = ADBlockingFactor * 4

// installAD allocates the buffered queue and synthesizes the
// interrupt handler (Table 5: "Service raw A/D interrupt: 3 usec" —
// the fast path below is the couple-of-instructions insert plus the
// interrupt envelope).
func (io *IO) installAD() {
	k := io.K
	addr, err := k.Heap.Alloc(adBuf + adChunks*adChunkBytes)
	if err != nil {
		panic("kio: cannot allocate A/D queue")
	}
	q := &ADQueue{Addr: addr}
	io.adQ = q
	m := k.M
	m.Poke(addr+adWrPtr, 4, addr+adBuf)
	m.Poke(addr+adCount, 4, ADBlockingFactor)
	m.Poke(addr+adHead, 4, 0)
	m.Poke(addr+adTail, 4, 0)
	m.Poke(addr+adRWait, 4, 0)
	m.Poke(addr+adGauge, 4, 0)

	wr := addr + adWrPtr
	cnt := addr + adCount
	headC := addr + adHead
	rwait := addr + adRWait
	gauge := addr + adGauge
	bufBase := addr + adBuf

	io.adIntH = k.C.Synthesize(nil, "ad_intr", nil, func(e *synth.Emitter) {
		e.MoveL(m68k.D(0), m68k.PreDec(7))
		e.MoveL(m68k.A(0), m68k.PreDec(7))
		// The couple-of-instructions fast path: store the sample
		// through the write cursor and count down.
		e.MoveL(m68k.Abs(m68k.ADBase+m68k.ADRegData), m68k.D(0))
		e.MoveL(m68k.Abs(wr), m68k.A(0))
		e.MoveL(m68k.D(0), m68k.PostInc(0))
		e.MoveL(m68k.A(0), m68k.Abs(wr))
		e.SubL(m68k.Imm(1), m68k.Abs(cnt))
		e.Bne("ad_done")
		// Element complete (every eighth sample): advance the queue.
		e.MoveL(m68k.Imm(ADBlockingFactor), m68k.Abs(cnt))
		e.MoveL(m68k.Abs(headC), m68k.D(0))
		e.AddL(m68k.Imm(1), m68k.D(0))
		e.CmpL(m68k.Imm(adChunks), m68k.D(0))
		e.Bne("ad_nowrap")
		e.Clr(4, m68k.D(0))
		e.MoveL(m68k.Imm(int32(bufBase)), m68k.Abs(wr))
		e.Label("ad_nowrap")
		e.MoveL(m68k.D(0), m68k.Abs(headC))
		e.AddL(m68k.Imm(1), m68k.Abs(gauge))
		e.MoveL(m68k.A(1), m68k.PreDec(7))
		e.Lea(m68k.Abs(rwait), 0)
		e.Jsr(k.WakeCellRoutine())
		e.MoveL(m68k.PostInc(7), m68k.A(1))
		e.Label("ad_done")
		e.MoveL(m68k.PostInc(7), m68k.A(0))
		e.MoveL(m68k.PostInc(7), m68k.D(0))
		e.Rte()
	})
	k.SetVector(m68k.VecAutovector+m68k.IRQAD, io.adIntH)
}

// SynthUnbufferedADHandler builds the ablation comparison for the
// buffered queue: the same A/D interrupt handler but with a full
// queue-element advance on EVERY sample (blocking factor 1), i.e.
// what Section 5.4 says is too expensive at 44,100 interrupts per
// second. Returns the handler's code address.
func (io *IO) SynthUnbufferedADHandler() uint32 {
	k := io.K
	q := io.adQ
	wr := q.Addr + adWrPtr
	headC := q.Addr + adHead
	rwait := q.Addr + adRWait
	gauge := q.Addr + adGauge
	bufBase := q.Addr + adBuf

	return k.C.Synthesize(nil, "ad_intr_unbuffered", nil, func(e *synth.Emitter) {
		e.MoveL(m68k.D(0), m68k.PreDec(7))
		e.MoveL(m68k.A(0), m68k.PreDec(7))
		e.MoveL(m68k.Abs(m68k.ADBase+m68k.ADRegData), m68k.D(0))
		e.MoveL(m68k.Abs(wr), m68k.A(0))
		e.MoveL(m68k.D(0), m68k.PostInc(0))
		e.MoveL(m68k.A(0), m68k.Abs(wr))
		// Advance the queue every sample: head bump, wrap check,
		// gauge, wake — the per-element work the blocking factor
		// amortizes away.
		e.MoveL(m68k.Abs(headC), m68k.D(0))
		e.AddL(m68k.Imm(1), m68k.D(0))
		e.CmpL(m68k.Imm(adChunks*ADBlockingFactor), m68k.D(0))
		e.Bne("nowrap")
		e.Clr(4, m68k.D(0))
		e.MoveL(m68k.Imm(int32(bufBase)), m68k.Abs(wr))
		e.Label("nowrap")
		e.MoveL(m68k.D(0), m68k.Abs(headC))
		e.AddL(m68k.Imm(1), m68k.Abs(gauge))
		e.MoveL(m68k.A(1), m68k.PreDec(7))
		e.Lea(m68k.Abs(rwait), 0)
		e.Jsr(k.WakeCellRoutine())
		e.MoveL(m68k.PostInc(7), m68k.A(1))
		e.MoveL(m68k.PostInc(7), m68k.A(0))
		e.MoveL(m68k.PostInc(7), m68k.D(0))
		e.Rte()
	})
}

// ADQ exposes the buffered queue for tests and benchmarks.
func (io *IO) ADQ() *ADQueue { return io.adQ }

// Completed returns how many elements the handler has completed.
func (q *ADQueue) Completed(m *m68k.Machine) uint32 {
	return m.Peek(q.Addr+adGauge, 4)
}

// synthAD builds the /dev/ad read: whole elements only — each read
// transfers as many completed 32-byte elements as fit the caller's
// buffer, blocking until at least one is available.
// read(d1=buf, d2=len) -> d0 = bytes.
func (io *IO) synthAD(t *kernel.Thread) entries {
	q := io.adQ
	headC := q.Addr + adHead
	tailC := q.Addr + adTail
	rwait := q.Addr + adRWait
	bufBase := q.Addr + adBuf

	return io.once(&io.adRead, io.K.C.Build(t.Q, "ad_read"), rw(func(e *synth.Emitter) {
		// Fewer than one element's worth requested: nothing to do.
		e.CmpL(m68k.Imm(adChunkBytes), m68k.D(2))
		e.Bcc("ar_ok")
		e.Clr(4, m68k.D(0))
		e.Rte()
		e.Label("ar_ok")
		e.MoveL(m68k.D(1), m68k.A(1)) // dst
		e.MoveL(m68k.D(1), m68k.PreDec(7))

		e.Label("ar_loop")
		e.CmpL(m68k.Imm(adChunkBytes), m68k.D(2))
		e.Bcs("ar_done") // no room for another element
		// Wait for a completed element.
		e.Label("ar_wait")
		e.OrSR(kernel.SRIPLMask)
		e.MoveL(m68k.Abs(headC), m68k.D(0))
		e.Cmp(4, m68k.Abs(tailC), m68k.D(0))
		e.Bne("ar_have")
		// Return what we already moved rather than park if we have
		// at least one element.
		e.Cmp(4, m68k.Ind(7), m68k.A(1))
		e.Bhi("ar_doneMasked")
		e.MoveL(m68k.A(1), m68k.PreDec(7))
		e.Lea(m68k.Abs(rwait), 0)
		e.Jsr(io.K.BlockOnRoutine())
		e.MoveL(m68k.PostInc(7), m68k.A(1))
		e.AndSR(^uint16(kernel.SRIPLMask))
		e.Bra("ar_wait")
		e.Label("ar_have")
		e.AndSR(^uint16(kernel.SRIPLMask))
		// src = buf + tail*chunkBytes
		e.MoveL(m68k.Abs(tailC), m68k.D(0))
		e.MoveL(m68k.D(0), m68k.D(1))
		e.LslL(m68k.Imm(5), m68k.D(1)) // *32
		e.Lea(m68k.Abs(bufBase), 0)
		e.AddL(m68k.D(1), m68k.A(0))
		// Copy one element.
		e.MoveL(m68k.Imm(adChunkBytes), m68k.D(1))
		e.MoveL(m68k.D(0), m68k.PreDec(7))
		emitCopy(e, longCopy, 0)
		e.MoveL(m68k.PostInc(7), m68k.D(0))
		// tail = (tail+1) % chunks
		e.AddL(m68k.Imm(1), m68k.D(0))
		e.CmpL(m68k.Imm(adChunks), m68k.D(0))
		e.Bne("ar_nw")
		e.Clr(4, m68k.D(0))
		e.Label("ar_nw")
		e.MoveL(m68k.D(0), m68k.Abs(tailC))
		e.SubL(m68k.Imm(adChunkBytes), m68k.D(2))
		e.Bra("ar_loop")

		e.Label("ar_doneMasked")
		e.AndSR(^uint16(kernel.SRIPLMask))
		e.Label("ar_done")
		e.MoveL(m68k.A(1), m68k.D(0))
		e.SubL(m68k.PostInc(7), m68k.D(0)) // bytes = cursor - base
		e.Rte()
	}))
}
