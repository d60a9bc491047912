package kio

import (
	"synthesis/internal/kernel"
	"synthesis/internal/m68k"
	"synthesis/internal/synth"
)

// Kernel byte queues: the SP-SC queue of Figure 1 laid out in machine
// memory, moved by synthesized code. Each stream's queue geometry is
// a synthesis-time constant, so the emitted put/get code addresses
// the buffer with folded immediates — no queue descriptor is ever
// dereferenced at run time (Factoring Invariants).
//
// Blocking follows the paper's synchronous-queue semantics: the only
// synchronization in the data path is the ordering of the final index
// store (Code Isolation between the producer's head and the
// consumer's tail); the empty/full edge raises the interrupt level
// across the re-check-and-park sequence so a producer running from an
// interrupt handler cannot slip a wakeup in between (the uniprocessor
// equivalent of the paper's brief masked sections).
//
// Layout of a kernel queue in memory (all offsets in bytes):
const (
	KQHead  = 0  // next byte the producer fills
	KQTail  = 4  // next byte the consumer drains
	KQRWait = 8  // reader wait cell (thread blocked for data)
	KQWWait = 12 // writer wait cell (thread blocked for space)
	KQGauge = 16 // bytes the producer has put, ever (the consumer leaves it alone)
	KQBuf   = 20 // the byte buffer
)

// KQueue describes one kernel queue (host-side mirror).
type KQueue struct {
	Addr uint32 // base address in machine memory
	Size int32  // buffer bytes, a power of two (capacity is Size-1)
}

// newKQueue allocates a kernel queue, or returns nil when the heap is
// exhausted. The one-byte paths wrap an index with one AND, so size
// must be a power of two.
func (io *IO) newKQueue(size int32) *KQueue {
	if size <= 0 || size&(size-1) != 0 {
		panic("kio: queue size is not a power of two")
	}
	k := io.K
	addr, err := k.Heap.Alloc(uint32(KQBuf + size))
	if err != nil {
		return nil
	}
	for off := uint32(0); off < KQBuf; off += 4 {
		k.M.Poke(addr+off, 4, 0)
	}
	return &KQueue{Addr: addr, Size: size}
}

// Len returns the current queue depth (host view).
func (q *KQueue) Len(m *m68k.Machine) int32 {
	h := int32(m.Peek(q.Addr+KQHead, 4))
	t := int32(m.Peek(q.Addr+KQTail, 4))
	d := h - t
	if d < 0 {
		d += q.Size
	}
	return d
}

// Gauge returns the queue's I/O gauge (host view).
func (q *KQueue) Gauge(m *m68k.Machine) uint32 {
	return m.Peek(q.Addr+KQGauge, 4)
}

// emitCopy's forms. The block and summing forms move their groups
// through D3-D7/A3-A5, saved around the group loop; the summing one
// keeps its sum in D2.
const longCopy, blockCopy, sumCopy, copyRegs = 0, 1, 2, m68k.MovemCopyRegs

// emitCopy emits a byte copier: D1 bytes from (A0)+ to (A1)+, 32-byte
// groups first, then leftover long words, then bytes. After the groups
// one test of D1 & 31 leaves a copy with no tail at once, so only a
// tail pays the long and byte tests: every 64-byte datagram and every
// kilobyte block skips them. Clobbers D0 and D1. This is the block transfer of Section 6.2 ("the generated code
// loads long words from one quaspace into registers and stores them
// back in the other quaspace").
//
// The block form moves its groups by a JSR to groups, the
// kio.block_copy routine (emitBlockGroups). The group loop reads only
// registers, so it has no invariant to fold, and one unrolled copy of
// it serves every caller. The long form moves a group inline as eight
// MOVE.L (A0)+,(A1)+ and a DBRA, 102 cycles at the SUN 3/160 point,
// against the shared routine's 79 plus about 120 once per copy for the
// call, the register save and restore and the pass count: the block
// form pays from the eighth group. Bulk file and pipe streams take it;
// a socket's read (two groups at 64 bytes), A/D elements (one) and
// /proc reads keep the long form, and pass groups 0, as the summing
// form does. Every form keeps its long-word and byte tail inline, so a
// copy shorter than a group pays no call. On the host all three group
// loops collapse, a pass run as one copy (m68k's copyLoop), so host time
// does not tell the forms apart; the choice between them stays priced
// in guest cycles alone.
//
// The summing form is Clark and Tennenhouse's integrated
// copy-and-checksum, taken by the send that stages a datagram and the
// receive interrupt that deposits one: it also leaves in D2 the wire
// checksum of the bytes zero-padded to a long. A group's eight longs
// are added from the registers the MOVEM pair moved them through, a
// leftover long from where it landed, and the byte tail's long, zeroed
// first, once after its bytes (A1 is left at that long).
func emitCopy(e *synth.Emitter, form int, groups uint32) {
	sum := form == sumCopy
	if sum {
		e.Clr(4, m68k.D(2))
	}
	e.MoveL(m68k.D(1), m68k.D(0))
	e.LsrL(m68k.Imm(5), m68k.D(0))
	e.Beq("kcp_longs")
	switch form {
	case blockCopy:
		e.Jsr(groups)
	case longCopy:
		e.SubL(m68k.Imm(1), m68k.D(0))
		e.Label("kcp_32")
		for i := 0; i < 8; i++ {
			e.MoveL(m68k.PostInc(0), m68k.PostInc(1))
		}
		e.Dbra(0, "kcp_32")
	case sumCopy:
		e.MovemSave(copyRegs, m68k.PreDec(7))
		e.SubL(m68k.Imm(1), m68k.D(0))
		e.Label("kcp_32")
		emitGroup(e, 0)
		for r := uint8(3); r < 8; r++ {
			e.AddL(m68k.D(r), m68k.D(2))
		}
		for r := uint8(3); r < 6; r++ {
			e.AddL(m68k.A(r), m68k.D(2))
		}
		e.Lea(m68k.Disp(32, 1), 1)
		e.Dbra(0, "kcp_32")
		e.MovemRest(m68k.PostInc(7), copyRegs)
	}
	e.AndL(m68k.Imm(31), m68k.D(1))
	e.Beq("kcp_done")
	e.Label("kcp_longs")
	e.MoveL(m68k.D(1), m68k.D(0))
	e.LsrL(m68k.Imm(2), m68k.D(0))
	e.Beq("kcp_tail")
	e.SubL(m68k.Imm(1), m68k.D(0))
	e.Label("kcp_4")
	if sum {
		e.MoveL(m68k.PostInc(0), m68k.Ind(1))
		e.AddL(m68k.PostInc(1), m68k.D(2))
	} else {
		e.MoveL(m68k.PostInc(0), m68k.PostInc(1))
	}
	e.Dbra(0, "kcp_4")
	e.Label("kcp_tail")
	e.AndL(m68k.Imm(3), m68k.D(1))
	e.Beq("kcp_done")
	if sum {
		e.Clr(4, m68k.Ind(1))
		e.MoveL(m68k.A(1), m68k.D(0))
	}
	e.SubL(m68k.Imm(1), m68k.D(1))
	e.Label("kcp_b")
	e.MoveB(m68k.PostInc(0), m68k.PostInc(1))
	e.Dbra(1, "kcp_b")
	if sum {
		e.MoveL(m68k.D(0), m68k.A(1))
		e.AddL(m68k.Ind(1), m68k.D(2))
	}
	e.Label("kcp_done")
}

// emitGroup emits one 32-byte group through copyRegs: the MOVEM that
// loads it from (A0)+ and the one that stores it at off(A1).
func emitGroup(e *synth.Emitter, off int32) {
	e.MovemRest(m68k.PostInc(0), copyRegs)
	dst := m68k.Disp(off, 1)
	if off == 0 {
		dst = m68k.Ind(1)
	}
	e.MovemSave(copyRegs, dst)
}

// emitBlockGroups is kio.block_copy, the group loop of emitCopy's block
// form, synthesized once per kernel (Install): D0 groups, at least one,
// from (A0)+ to (A1)+, where D1 is the whole copy's length in bytes.
// It saves copyRegs once and moves eight groups a pass, the stores at
// (A1), 32(A1) ... 224(A1) and then one LEA and one DBRA, then the
// leftover D1/32 mod 8 groups one at a time. Clobbers D0 and nothing
// else; returns with RTS.
func emitBlockGroups(e *synth.Emitter) {
	e.MovemSave(copyRegs, m68k.PreDec(7))
	e.LsrL(m68k.Imm(3), m68k.D(0)) // passes of eight
	e.Beq("bc_left")
	e.SubL(m68k.Imm(1), m68k.D(0))
	e.Label("bc_pass")
	for i := int32(0); i < 8; i++ {
		emitGroup(e, 32*i)
	}
	e.Lea(m68k.Disp(256, 1), 1)
	e.Dbra(0, "bc_pass")
	e.Label("bc_left")
	e.MoveL(m68k.D(1), m68k.D(0))
	e.LsrL(m68k.Imm(5), m68k.D(0))
	e.AndL(m68k.Imm(7), m68k.D(0))
	e.Beq("bc_done")
	e.SubL(m68k.Imm(1), m68k.D(0))
	e.Label("bc_1")
	emitGroup(e, 0)
	e.Lea(m68k.Disp(32, 1), 1)
	e.Dbra(0, "bc_1")
	e.Label("bc_done")
	e.MovemRest(m68k.PostInc(7), copyRegs)
	e.Rts()
}

// emitWake wakes the thread parked on the wait cell, loading it into D0
// and branching to skip, which the caller defines, when it is empty; a
// set cell enters wake_cell past its test. It follows the store that
// publishes the data, and a reader arms its cell only in a masked
// section that re-checks the queue first, so an empty cell means that
// re-check will see the data. Clobbers D0 and A0-A1.
func emitWake(e *synth.Emitter, k *kernel.Kernel, cell m68k.Operand, skip string) {
	e.MoveL(cell, m68k.D(0))
	e.Beq(skip)
	e.Lea(cell, 0)
	e.Jsr(k.WakeLoadedRoutine())
}

// emitPut1 emits Figure 1's put in its shortest form, behind the
// paper's one-byte pipe numbers: the byte at the address in Dsrc into
// the queue, the new head formed in Dnh; a full queue branches to full.
// Counts the byte on the queue and the descriptor, wakes a reader and
// returns 1. p prefixes its labels.
func (io *IO) emitPut1(e *synth.Emitter, q *KQueue, fdGauge uint32, src, nh uint8, full, p string) {
	e.MoveL(m68k.Abs(q.Addr+KQHead), m68k.D(0))
	e.MoveL(m68k.D(0), m68k.D(nh))
	e.AddL(m68k.Imm(1), m68k.D(nh))
	e.AndL(m68k.Imm(q.Size-1), m68k.D(nh))
	e.Cmp(4, m68k.Abs(q.Addr+KQTail), m68k.D(nh))
	e.Beq(full)
	e.MoveL(m68k.D(src), m68k.A(0))
	e.Lea(m68k.Abs(q.Addr+KQBuf), 1)
	e.MoveB(m68k.Ind(0), m68k.Idx(0, 1, 0, 1))   // buf[head] = *src
	e.MoveL(m68k.D(nh), m68k.Abs(q.Addr+KQHead)) // publish
	e.AddL(m68k.Imm(1), m68k.Abs(q.Addr+KQGauge))
	e.AddL(m68k.Imm(1), m68k.Abs(fdGauge))
	emitWake(e, io.K, m68k.Abs(q.Addr+KQRWait), p+"_woke")
	e.Label(p + "_woke")
	e.MoveL(m68k.Imm(1), m68k.D(0))
	e.Rte()
}

// emitGet1 is Figure 1's get: one byte to the address in Ddst. An
// empty queue is re-checked under the mask so no producer can slip in
// before the park, and the get retried masked (the RTE restores the
// caller's level); block_on keeps every data register. Counts the byte
// on the descriptor alone, wakes a writer and returns 1.
func (io *IO) emitGet1(e *synth.Emitter, q *KQueue, fdGauge uint32, dst uint8, p string) {
	head, tail := q.Addr+KQHead, q.Addr+KQTail
	e.Label(p + "_get")
	e.MoveL(m68k.Abs(tail), m68k.D(0))
	e.Cmp(4, m68k.Abs(head), m68k.D(0))
	e.Beq(p + "_empty")
	e.MoveL(m68k.D(dst), m68k.A(1))
	e.Lea(m68k.Abs(q.Addr+KQBuf), 0)
	e.MoveB(m68k.Idx(0, 0, 0, 1), m68k.Ind(1)) // *dst = buf[tail]
	e.AddL(m68k.Imm(1), m68k.D(0))
	e.AndL(m68k.Imm(q.Size-1), m68k.D(0))
	e.MoveL(m68k.D(0), m68k.Abs(tail))
	e.AddL(m68k.Imm(1), m68k.Abs(fdGauge))
	emitWake(e, io.K, m68k.Abs(q.Addr+KQWWait), p+"_woke")
	e.Label(p + "_woke")
	e.MoveL(m68k.Imm(1), m68k.D(0))
	e.Rte()
	e.Label(p + "_empty")
	e.OrSR(kernel.SRIPLMask)
	e.MoveL(m68k.Abs(tail), m68k.D(0))
	e.Cmp(4, m68k.Abs(head), m68k.D(0))
	e.Bne(p + "_get")
	e.Lea(m68k.Abs(q.Addr+KQRWait), 0)
	e.Jsr(io.K.BlockOnRoutine())
	e.Bra(p + "_get")
}

// emitQueueWrite emits a blocking bulk write into the queue with both
// descriptor entries (synth.Builder.EmitEntries): the native one, D1 =
// source buffer and D2 = length, and the UNIX one, fd in D1, buffer in
// D2 and length in D3. Returns D0 = bytes written (the full length)
// and ends with RTE. Clobbers D0-D2, A0, A1 (the system-call scratch
// set). Must be emitted into a trap or interrupt handler (it
// manipulates the interrupt mask).
func (io *IO) emitQueueWrite(e *synth.Emitter, q *KQueue, fdGauge uint32) {
	head := q.Addr + KQHead
	tail := q.Addr + KQTail
	buf := q.Addr + KQBuf
	rwait := q.Addr + KQRWait
	wwait := q.Addr + KQWWait
	gauge := q.Addr + KQGauge
	size := q.Size

	// The single-byte fast path, the overwhelmingly common case for
	// character streams, once per entry on that entry's registers. A
	// UNIX call that misses it shuffles its registers into the native
	// ones and joins the general path.
	e.Entry(synth.EntryAlt)
	e.CmpL(m68k.Imm(1), m68k.D(3))
	e.Bne("qw_unix")
	io.emitPut1(e, q, fdGauge, 2, 1, "qw_unix", "qu")
	e.Entry(synth.EntryMain)
	e.CmpL(m68k.Imm(1), m68k.D(2))
	e.Bne("qw_general")
	io.emitPut1(e, q, fdGauge, 1, 2, "qw_slow1", "qw")
	e.Label("qw_slow1")
	e.MoveL(m68k.Imm(1), m68k.D(2)) // restore the length
	e.Bra("qw_general")
	e.Label("qw_unix")
	e.MoveL(m68k.D(2), m68k.D(1))
	e.MoveL(m68k.D(3), m68k.D(2))

	e.Label("qw_general")
	e.TstL(m68k.D(2))
	e.Beq("qw_zero")
	e.MoveL(m68k.D(2), m68k.PreDec(7)) // original length
	e.MoveL(m68k.D(1), m68k.A(0))      // source cursor

	e.Label("qw_outer")
	e.OrSR(kernel.SRIPLMask) // space check and park are atomic vs producers/consumers
	e.TstL(m68k.D(2))
	e.Beq("qw_done")
	e.MoveL(m68k.Abs(head), m68k.D(0))
	e.MoveL(m68k.Abs(tail), m68k.D(1))
	// Contiguous space from head: tail > head ? tail-head-1
	//                                          : size-head (-1 if tail==0)
	e.Cmp(4, m68k.D(0), m68k.D(1)) // flags = tail - head
	e.Bhi("qw_caseA")
	e.TstL(m68k.D(1))
	e.Bne("qw_b1")
	e.MoveL(m68k.Imm(size-1), m68k.D(1))
	e.SubL(m68k.D(0), m68k.D(1))
	e.Bra("qw_have")
	e.Label("qw_b1")
	e.MoveL(m68k.Imm(size), m68k.D(1))
	e.SubL(m68k.D(0), m68k.D(1))
	e.Bra("qw_have")
	e.Label("qw_caseA")
	e.SubL(m68k.D(0), m68k.D(1))
	e.SubL(m68k.Imm(1), m68k.D(1))
	e.Label("qw_have")
	e.TstL(m68k.D(1))
	e.Bne("qw_space")
	// Full: the synchronous queue blocks at queue-full. The mask is
	// still raised, so no consumer can have drained between the
	// check and the park; the switch-out frame carries the raised
	// level and the resume path lowers it.
	e.MoveL(m68k.A(0), m68k.PreDec(7))
	e.Lea(m68k.Abs(wwait), 0)
	e.Jsr(io.K.BlockOnRoutine())
	e.MoveL(m68k.PostInc(7), m68k.A(0))
	e.AndSR(^uint16(kernel.SRIPLMask))
	e.Bra("qw_outer")
	e.Label("qw_space")
	e.AndSR(^uint16(kernel.SRIPLMask)) // data movement runs unmasked
	// chunk = min(contig, remaining)
	e.Cmp(4, m68k.D(2), m68k.D(1))
	e.Bls("qw_c1")
	e.MoveL(m68k.D(2), m68k.D(1))
	e.Label("qw_c1")
	e.Lea(m68k.Abs(buf), 1)
	e.AddL(m68k.D(0), m68k.A(1)) // dst = buf + head
	e.SubL(m68k.D(1), m68k.D(2)) // remaining -= chunk
	e.AddL(m68k.D(1), m68k.D(0)) // head += chunk
	e.CmpL(m68k.Imm(size), m68k.D(0))
	e.Bne("qw_w1")
	e.Clr(4, m68k.D(0))
	e.Label("qw_w1")
	e.MoveL(m68k.D(0), m68k.PreDec(7))    // save wrapped head
	emitCopy(e, blockCopy, io.copyGroups) // chunk bytes, clobbers D0/D1
	e.MoveL(m68k.PostInc(7), m68k.D(0))
	e.MoveL(m68k.D(0), m68k.Abs(head)) // publish: last store, as in Figure 1
	// Wake a reader blocked for data.
	e.MoveL(m68k.A(0), m68k.PreDec(7))
	e.Lea(m68k.Abs(rwait), 0)
	e.Jsr(io.K.WakeCellRoutine())
	e.MoveL(m68k.PostInc(7), m68k.A(0))
	e.Bra("qw_outer")

	e.Label("qw_done")
	e.AndSR(^uint16(kernel.SRIPLMask))
	e.MoveL(m68k.PostInc(7), m68k.D(0))
	// The gauges measure data-flow rate in bytes (Section 4.4: "the
	// rate at which I/O data flows"), charged once per call: the
	// queue's own gauge plus the opener's descriptor gauge that the
	// fine-grain scheduler reads.
	e.AddL(m68k.D(0), m68k.Abs(gauge))
	e.AddL(m68k.D(0), m68k.Abs(fdGauge))
	e.Rte()
	e.Label("qw_zero")
	e.Clr(4, m68k.D(0))
	e.Rte()
}

// emitQueueRead emits a blocking bulk read with both descriptor
// entries, as emitQueueWrite does: native D1 = destination buffer and
// D2 = length, UNIX fd D1, buffer D2, length D3. Returns D0 = bytes
// read (at least one, up to length — UNIX semantics) and ends with
// RTE. Clobbers D0-D2, A0, A1. The queue's gauge is the producer's:
// a read counts its bytes on the descriptor alone.
func (io *IO) emitQueueRead(e *synth.Emitter, q *KQueue, fdGauge uint32) {
	head := q.Addr + KQHead
	tail := q.Addr + KQTail
	buf := q.Addr + KQBuf
	rwait := q.Addr + KQRWait
	wwait := q.Addr + KQWWait
	size := q.Size

	// The single-byte fast path, once per entry (see emitQueueWrite).
	e.Entry(synth.EntryAlt)
	e.CmpL(m68k.Imm(1), m68k.D(3))
	e.Bne("qr_unix")
	io.emitGet1(e, q, fdGauge, 2, "qu")
	e.Entry(synth.EntryMain)
	e.CmpL(m68k.Imm(1), m68k.D(2))
	e.Bne("qr_general")
	io.emitGet1(e, q, fdGauge, 1, "qr")
	e.Label("qr_unix")
	e.MoveL(m68k.D(2), m68k.D(1))
	e.MoveL(m68k.D(3), m68k.D(2))

	// General path.
	e.Label("qr_general")
	e.TstL(m68k.D(2))
	e.Beq("qr_zero")
	e.MoveL(m68k.D(2), m68k.PreDec(7)) // original length
	e.MoveL(m68k.D(1), m68k.A(1))      // destination cursor

	e.Label("qr_outer")
	e.OrSR(kernel.SRIPLMask)
	e.TstL(m68k.D(2))
	e.Beq("qr_done")
	e.MoveL(m68k.Abs(head), m68k.D(0))
	e.MoveL(m68k.Abs(tail), m68k.D(1))
	// Contiguous data from tail: head >= tail ? head-tail : size-tail
	e.Cmp(4, m68k.D(1), m68k.D(0)) // flags = head - tail
	e.Bcc("qr_fwd")
	e.MoveL(m68k.Imm(size), m68k.D(0))
	e.Label("qr_fwd")
	e.SubL(m68k.D(1), m68k.D(0)) // contig in D0; tail stays in D1
	e.Bne("qr_data")
	// Empty: if something was already read, return it; else park for
	// data with the mask still raised (no producer can slip in).
	e.Cmp(4, m68k.Ind(7), m68k.D(2))
	e.Bne("qr_done") // partial read satisfied
	e.MoveL(m68k.A(1), m68k.PreDec(7))
	e.Lea(m68k.Abs(rwait), 0)
	e.Jsr(io.K.BlockOnRoutine())
	e.MoveL(m68k.PostInc(7), m68k.A(1))
	e.AndSR(^uint16(kernel.SRIPLMask))
	e.Bra("qr_outer")
	e.Label("qr_data")
	e.AndSR(^uint16(kernel.SRIPLMask))
	// A0 = buf + tail (source), then swap so D1 = contig for min().
	e.Lea(m68k.Abs(buf), 0)
	e.AddL(m68k.D(1), m68k.A(0))
	e.EorL(m68k.D(1), m68k.D(0)) // swap D0 (contig) <-> D1 (tail)
	e.EorL(m68k.D(0), m68k.D(1))
	e.EorL(m68k.D(1), m68k.D(0)) // now D0 = tail, D1 = contig
	e.Cmp(4, m68k.D(2), m68k.D(1))
	e.Bls("qr_c1")
	e.MoveL(m68k.D(2), m68k.D(1))
	e.Label("qr_c1")
	e.SubL(m68k.D(1), m68k.D(2)) // remaining -= chunk
	e.AddL(m68k.D(1), m68k.D(0)) // tail += chunk
	e.CmpL(m68k.Imm(size), m68k.D(0))
	e.Bne("qr_w1")
	e.Clr(4, m68k.D(0))
	e.Label("qr_w1")
	e.MoveL(m68k.D(0), m68k.PreDec(7)) // save wrapped tail
	emitCopy(e, blockCopy, io.copyGroups)
	e.MoveL(m68k.PostInc(7), m68k.D(0))
	e.MoveL(m68k.D(0), m68k.Abs(tail))
	// Wake a writer blocked for space.
	e.MoveL(m68k.A(1), m68k.PreDec(7))
	e.Lea(m68k.Abs(wwait), 0)
	e.Jsr(io.K.WakeCellRoutine())
	e.MoveL(m68k.PostInc(7), m68k.A(1))
	e.Bra("qr_outer")

	e.Label("qr_done")
	e.AndSR(^uint16(kernel.SRIPLMask))
	e.MoveL(m68k.PostInc(7), m68k.D(0))
	e.SubL(m68k.D(2), m68k.D(0)) // bytes read = requested - remaining
	e.AddL(m68k.D(0), m68k.Abs(fdGauge))
	e.Rte()
	e.Label("qr_zero")
	e.Clr(4, m68k.D(0))
	e.Rte()
}
