package kernel

import (
	"synthesis/internal/fs"
	"synthesis/internal/m68k"
	"synthesis/internal/synth"
)

// Shared kernel routines, synthesized at boot. Unlike the per-thread
// procedures these are used by every thread ("although in principle
// each thread may have a completely different set of interrupt
// handlers, currently the majority of them are shared by all
// threads", Section 5.3).
//
// Register conventions:
//   - system calls (trap #1) may clobber D0-D2 and A0-A1; D0 (and D1
//     for pipe) carry results;
//   - block_on takes its wait cell in A0 and clobbers only A1;
//     wake_cell takes its cell in A0 and clobbers D0 and A0-A1; its
//     second entry takes the cell's waiter in D0 as well;
//   - the ready ring (the one structure shared by every context, so
//     Code Isolation cannot apply to it) is edited only at IPL 7, a
//     raised IPL being the uniprocessor equivalent of the paper's
//     brief critical sections. Its surgery is emitted inline by the
//     helpers below, not called: emitUnlink and emitInsert take the
//     TTE in A0, emitLeave the running thread's; all three need the
//     caller to hold IPL 7 already, and clobber A1 only;
//   - interrupt handlers save and restore every register they touch.

// SRIPLMask is the status register's interrupt-level field: OR it in
// to mask every device, AND its complement out to reopen them.
const SRIPLMask = 0x0700

// emitUnlink emits the unlink of the TTE in A0, which must be in the
// ring: its neighbours are joined and its predecessor's switch steered
// past it, into the successor's sw_in that A0's own TTENextSw already
// names (the ring keeps every member's TTENextSw equal to its
// successor's TTESwinPtr; CheckReadyRing states the rest of its
// invariant). A0 is marked unlinked (TTENext = 0) but keeps its TTENextSw,
// so a thread that unlinks itself still switches to its old successor.
// This is the core of block, stop and destroy: Table 4's "Block
// thread: 4 usec". Needs IPL 7; clobbers A1.
func emitUnlink(e *synth.Emitter) {
	e.MoveL(m68k.Disp(TTENext, 0), m68k.A(1))                 // next
	e.MoveL(m68k.Disp(TTEPrev, 0), m68k.Disp(TTEPrev, 1))     // next.prev = prev
	e.MoveL(m68k.Disp(TTEPrev, 0), m68k.A(1))                 // prev
	e.MoveL(m68k.Disp(TTENext, 0), m68k.Disp(TTENext, 1))     // prev.next = next
	e.MoveL(m68k.Disp(TTENextSw, 0), m68k.Disp(TTENextSw, 1)) // prev.nextsw = entry(next)
	e.Clr(4, m68k.Disp(TTENext, 0))
}

// emitInsert emits the insert of the TTE in A0, which must be off the
// ring, right after the running thread: the front of the ready queue,
// "giving it immediate access to the CPU" (Section 4.4). Table 4's
// "Unblock thread: 4 usec". Needs IPL 7; clobbers A1.
func emitInsert(e *synth.Emitter) {
	e.MoveL(m68k.Abs(GCurTTE), m68k.A(1))                      // cur
	e.MoveL(m68k.Disp(TTENext, 1), m68k.Disp(TTENext, 0))      // new.next = oldnext
	e.MoveL(m68k.A(1), m68k.Disp(TTEPrev, 0))                  // new.prev = cur
	e.MoveL(m68k.Disp(TTENextSw, 1), m68k.Disp(TTENextSw, 0))  // new.nextsw = entry(oldnext)
	e.MoveL(m68k.Disp(TTESwinPtr, 0), m68k.Disp(TTENextSw, 1)) // cur.nextsw = entry(new)
	e.MoveL(m68k.A(0), m68k.Disp(TTENext, 1))                  // cur.next = new
	e.MoveL(m68k.Disp(TTENext, 0), m68k.A(1))                  // oldnext
	e.MoveL(m68k.A(0), m68k.Disp(TTEPrev, 1))                  // oldnext.prev = new
	e.Clr(4, m68k.Disp(TTEWaitsOn, 0))
}

// emitUnpark emits the clear of the wait cell the TTE in A0 is parked
// on, if any, for a start or destroy that takes it out of its park
// without a wake: left naming it, the cell's next wake would insert a
// thread that has run on, or a freed TTE. An unparked TTE pays the
// test and the branch to done. Needs IPL 7; clobbers A1.
func emitUnpark(e *synth.Emitter, done string) {
	e.Tst(4, m68k.Disp(TTEWaitsOn, 0))
	e.Beq(done)
	e.MoveL(m68k.Disp(TTEWaitsOn, 0), m68k.A(1))
	e.Clr(4, m68k.Ind(1))
}

// emitLeave emits the running thread's step out of the ready ring, A0
// = its TTE, ahead of its switch trap. Alone in the ring, it leaves the
// idle thread alone in it instead, and switches to it, so the ring
// never empties. Every self-removal (block, stop-self, exit,
// destroy-self, trace stop, the bus trap's kill) runs it; p prefixes
// its labels. Needs IPL 7, held through the switch trap; clobbers A1.
func emitLeave(e *synth.Emitter, p string) {
	e.Cmp(4, m68k.Disp(TTENext, 0), m68k.A(0)) // alone?
	e.Bne(p + "_unlink")
	e.MoveL(m68k.Abs(GIdleTTE), m68k.A(1))
	e.MoveL(m68k.A(1), m68k.Disp(TTENext, 1)) // idle, a ring of one
	e.MoveL(m68k.A(1), m68k.Disp(TTEPrev, 1))
	e.MoveL(m68k.Disp(TTESwinPtr, 1), m68k.Disp(TTENextSw, 1))
	e.MoveL(m68k.Disp(TTESwinPtr, 1), m68k.Disp(TTENextSw, 0)) // self.nextsw = entry(idle)
	e.Clr(4, m68k.Disp(TTENext, 0))
	e.Bra(p + "_left")
	e.Label(p + "_unlink")
	emitUnlink(e)
	e.Label(p + "_left")
}

// synthesizeShared builds all shared routines and the prototype
// vector table.
func (k *Kernel) synthesizeShared() {
	c := k.C
	m := k.M

	kq := c.NewQuaject("kernel-shared")

	// --- panic stub: any unexpected exception lands here.
	k.rtPanicVec = c.Synthesize(kq, "panic", nil, func(e *synth.Emitter) {
		e.Kcall(SvcPanic)
		e.Halt()
	})

	// --- unlink and insert as routines, A0 = TTE: the ring surgery
	// under its own mask, for callers that measure it (Table 4's block
	// and unblock rows). Both are idempotent, as the stop and start
	// bodies below are: a TTE off the ring is not unlinked, one on it
	// is not inserted twice.
	k.rtUnlink = c.Synthesize(kq, "rq_unlink", nil, func(e *synth.Emitter) {
		e.MoveFromSR(m68k.PreDec(7))
		e.OrSR(SRIPLMask)
		e.Tst(4, m68k.Disp(TTENext, 0))
		e.Beq("out")
		emitUnlink(e)
		e.Label("out")
		e.MoveToSR(m68k.PostInc(7))
		e.Rts()
	})
	k.rtInsert = c.Synthesize(kq, "rq_insert", nil, func(e *synth.Emitter) {
		e.MoveFromSR(m68k.PreDec(7))
		e.OrSR(SRIPLMask)
		e.Tst(4, m68k.Disp(TTENext, 0))
		e.Bne("out")
		emitInsert(e)
		e.Label("out")
		e.MoveToSR(m68k.PostInc(7))
		e.Rts()
	})

	// --- blockOn: park the current thread on the single-waiter cell
	// in A0 and switch away. Resumed when some wake path re-inserts
	// it. "Spreading the waiting threads makes blocking and
	// unblocking faster. Since we have eliminated the general blocked
	// queue, we do not have to traverse it" (Section 4.1). Preserves
	// A0 and every data register; clobbers A1.
	k.rtBlockOn = c.Synthesize(kq, "block_on", nil, func(e *synth.Emitter) {
		// The whole park runs with interrupts masked, cell-arm through
		// context save. A wake interrupt landing half-way would either
		// find the cell armed while the thread is still in the ring (a
		// lost wakeup) or — after the unlink, before the switch trap —
		// find GCurTTE pointing at a TTE already unlinked, and the
		// ISR's insert would splice against its zeroed TTENext and
		// poison the ring. The trap's stacked SR carries the mask
		// through the park; the caller's level is restored on resume.
		e.MoveFromSR(m68k.PreDec(7))
		e.OrSR(SRIPLMask)
		e.MoveL(m68k.A(0), m68k.PreDec(7))
		e.MoveL(m68k.Abs(GCurTTE), m68k.A(1))
		e.MoveL(m68k.A(1), m68k.Ind(0)) // cell = self
		e.MoveL(m68k.A(0), m68k.Disp(TTEWaitsOn, 1))
		e.MoveL(m68k.A(1), m68k.A(0))
		emitLeave(e, "leave")
		e.Trap(TrapSwitch)                  // save context, run someone else
		e.MoveL(m68k.PostInc(7), m68k.A(0)) // resumed here after wake
		e.MoveToSR(m68k.PostInc(7))
		e.Rts()
	})

	// --- wakeCell: unblock the thread parked on the cell in A0, if
	// any. Interrupt handlers chain this to hand data to waiting
	// threads. Clobbers D0 and A0-A1. The second entry, past the load
	// and test, takes a set cell's waiter in D0 (kio's emitWake).
	k.rtWakeCell, k.rtWakeLoaded = c.Build(kq, "wake_cell").EmitEntries(func(e *synth.Emitter) {
		e.Entry(synth.EntryMain)
		e.MoveL(m68k.Ind(0), m68k.D(0))
		e.Beq("empty")
		e.Entry(synth.EntryAlt)
		e.Clr(4, m68k.Ind(0))
		e.MoveL(m68k.D(0), m68k.A(0))
		e.MoveFromSR(m68k.PreDec(7))
		e.OrSR(SRIPLMask)
		// Started while it waited? Then it is in the ring already.
		e.Tst(4, m68k.Disp(TTENext, 0))
		e.Bne("out")
		emitInsert(e)
		e.Label("out")
		e.MoveToSR(m68k.PostInc(7))
		e.Label("empty")
		e.Rts()
	})

	// --- procedure chaining (Section 3.1): serialize a procedure
	// after the current handler by swapping the return address on the
	// stack. Caller is a handler with the exception frame directly
	// above its JSR return address: [ret][SR][PC].
	k.rtChain = c.Synthesize(kq, "chain_proc", nil, func(e *synth.Emitter) {
		e.MoveL(m68k.Disp(8, 7), m68k.D(0)) // original resume PC
		e.MoveL(m68k.D(0), m68k.Abs(GChainPC))
		e.MoveL(m68k.D(1), m68k.Disp(8, 7)) // resume into the chained proc
		e.Rts()
	})

	// The optimistic variant: claim the frame slot with a compare-
	// and-swap and retry on interference (Table 5: 4 usec without,
	// 7 usec with one retry).
	k.rtChainCAS = c.Synthesize(kq, "chain_proc_cas", nil, func(e *synth.Emitter) {
		e.Label("retry")
		e.MoveL(m68k.Disp(8, 7), m68k.D(0))
		e.MoveL(m68k.D(0), m68k.Abs(GChainPC))
		e.Cas(4, 0, 1, m68k.Disp(8, 7))
		e.Bne("retry")
		e.Rts()
	})

	// --- signal return (trap #3): resume at the interrupted PC
	// stashed by signal delivery, and clear it: the thread is in no
	// handler (kio's open reads it, DESIGN.md Section 2a).
	k.rtSigRet = c.Synthesize(kq, "sig_return", nil, func(e *synth.Emitter) {
		e.MoveL(m68k.A(0), m68k.PreDec(7))
		e.MoveL(m68k.D(0), m68k.PreDec(7))
		e.MoveL(m68k.Abs(GCurTTE), m68k.A(0))
		e.MoveL(m68k.Disp(TTESigOld, 0), m68k.D(0))
		e.Clr(4, m68k.Disp(TTESigOld, 0))
		e.MoveL(m68k.D(0), m68k.Disp(12, 7)) // frame PC slot
		e.MoveL(m68k.PostInc(7), m68k.D(0))
		e.MoveL(m68k.PostInc(7), m68k.A(0))
		e.Rte()
	})

	// --- trace handler: implements the step system call. The traced
	// instruction has executed; stop the thread where it stands. The
	// trace bit stays set in the stacked SR, so each subsequent
	// start/step resumes for exactly one more instruction.
	k.rtTraceStop = c.Synthesize(kq, "trace_stop", nil, func(e *synth.Emitter) {
		// Masked across leave-ring -> switch (see block_on); the Rte
		// restores the traced thread's own level on restart.
		e.OrSR(SRIPLMask)
		e.MoveL(m68k.A(0), m68k.PreDec(7))
		e.MoveL(m68k.A(1), m68k.PreDec(7))
		e.MoveL(m68k.Abs(GCurTTE), m68k.A(0))
		emitLeave(e, "leave")
		e.MoveL(m68k.PostInc(7), m68k.A(1))
		e.MoveL(m68k.PostInc(7), m68k.A(0))
		e.Trap(TrapSwitch) // park; restart continues below
		e.Rte()
	})

	// --- alarm interrupt (IRQAlarm): dispatch to the registered
	// procedure (Table 5: "Alarm interrupt: 7 usec").
	k.rtAlarm = c.Synthesize(kq, "alarm_int", nil, func(e *synth.Emitter) {
		e.MoveL(m68k.D(0), m68k.PreDec(7))
		e.MoveL(m68k.Abs(GAlarmProc), m68k.D(0))
		e.Beq("none")
		e.JsrVia(m68k.Abs(GAlarmProc))
		e.Label("none")
		e.MoveL(m68k.PostInc(7), m68k.D(0))
		e.Rte()
	})

	// --- error traps (Section 4.3): reflect synchronous faults into
	// a user-mode error signal; with no handler registered, panic.
	// Frame after the two saves: [D0][A0][SR][PC].
	k.rtErrTrap = c.Synthesize(kq, "error_trap", nil, func(e *synth.Emitter) {
		e.MoveL(m68k.A(0), m68k.PreDec(7))
		e.MoveL(m68k.D(0), m68k.PreDec(7))
		e.MoveL(m68k.Abs(GCurTTE), m68k.A(0))
		e.TstL(m68k.Disp(TTEErrPC, 0))
		e.Beq("panic")
		e.MoveL(m68k.Disp(12, 7), m68k.D(0)) // faulting PC
		e.MoveL(m68k.D(0), m68k.Disp(TTESigOld, 0))
		e.MoveL(m68k.Disp(TTEErrPC, 0), m68k.D(0))
		e.MoveL(m68k.D(0), m68k.Disp(12, 7)) // return-from-exception enters the handler
		e.MoveL(m68k.PostInc(7), m68k.D(0))
		e.MoveL(m68k.PostInc(7), m68k.A(0))
		e.Rte()
		e.Label("panic")
		e.Kcall(SvcPanic)
		e.Halt()
	})

	// --- bus/address error: the asynchronous-world variant of the
	// error trap. A thread that touches a bad bus address with a
	// handler registered gets the same reflection as rtErrTrap; one
	// without a handler is reaped — the fault kills the thread, not
	// the machine. The kill path is the exit path of the system-call
	// dispatcher with SvcThreadFault doing the bookkeeping (and
	// recording the post-mortem) in place of SvcExit.
	k.rtBusTrap = c.Synthesize(kq, "bus_trap", nil, func(e *synth.Emitter) {
		e.MoveL(m68k.A(0), m68k.PreDec(7))
		e.MoveL(m68k.D(0), m68k.PreDec(7))
		e.MoveL(m68k.Abs(GCurTTE), m68k.A(0))
		e.TstL(m68k.Disp(TTEErrPC, 0))
		e.Beq("kill")
		e.MoveL(m68k.Disp(12, 7), m68k.D(0)) // faulting PC
		e.MoveL(m68k.D(0), m68k.Disp(TTESigOld, 0))
		e.MoveL(m68k.Disp(TTEErrPC, 0), m68k.D(0))
		e.MoveL(m68k.D(0), m68k.Disp(12, 7)) // return-from-exception enters the handler
		e.MoveL(m68k.PostInc(7), m68k.D(0))
		e.MoveL(m68k.PostInc(7), m68k.A(0))
		e.Rte()
		e.Label("kill")
		e.Kcall(SvcThreadFault) // reads the frame: [D0][A0][SR][PC]
		e.Tst(4, m68k.Abs(GLiveThreads))
		e.Bne("killsw")
		e.Halt() // the faulting thread was the last one
		e.Label("killsw")
		e.OrSR(SRIPLMask) // masked across leave-ring -> switch (see block_on)
		e.MoveL(m68k.Abs(GCurTTE), m68k.A(0))
		e.MoveL(m68k.A(0), m68k.D(1))
		emitLeave(e, "leave")
		e.Kcall(SvcFreeTTE)
		e.Trap(TrapSwitch) // never resumed
		e.Halt()
	})

	// --- spurious interrupt: an interrupt at a level no driver has
	// claimed. Count it and return; glitching buses are weather, not
	// an emergency.
	k.rtSpurious = c.Synthesize(kq, "spurious_int", nil, func(e *synth.Emitter) {
		e.AddL(m68k.Imm(1), m68k.Abs(GSpuriousIRQ))
		e.Rte()
	})

	// --- line-F: first FP use; resynthesize the thread's context
	// switch with FP save/restore and retry the instruction.
	k.rtLineF = c.Synthesize(kq, "linef_fp", nil, func(e *synth.Emitter) {
		e.Kcall(SvcFPResynth)
		e.Rte()
	})

	// The prototype vector table address is folded into kcreate's
	// copy loop as a synthesis-time invariant, so it must be
	// allocated before the routines are synthesized. The prototype
	// TTEUnixRW cells follow it, so the copy runs on into them.
	k.protoVec = k.alloc(m68k.VectorTableBytes + TTESize - TTEUnixRW)

	k.rtLookup = k.synthesizeLookup(kq)
	k.rtCreate = k.synthesizeCreate(kq)
	sysDisp := k.synthesizeDispatch(kq)
	for off := uint32(0); off < m68k.VectorTableBytes+TTESize-TTEUnixRW; off += 4 {
		m.Poke(k.protoVec+off, 4, k.rtPanicVec)
	}
	set := func(vec int, addr uint32) { m.Poke(k.protoVec+uint32(vec)*4, 4, addr) }
	// Interrupt levels default to the spurious counter; drivers that
	// claim a level (alarm below, the I/O layer via ProtoVectors)
	// overwrite their slot.
	for lvl := 1; lvl <= 7; lvl++ {
		set(m68k.VecAutovector+lvl, k.rtSpurious)
	}
	set(m68k.VecTrapBase+TrapSys, sysDisp)
	set(m68k.VecTrapBase+TrapSig, k.rtSigRet)
	set(m68k.VecAutovector+m68k.IRQAlarm, k.rtAlarm)
	set(m68k.VecTrace, k.rtTraceStop)
	set(m68k.VecLineF, k.rtLineF)
	set(m68k.VecBusError, k.rtBusTrap)
	set(m68k.VecAddressError, k.rtBusTrap)
	set(m68k.VecIllegal, k.rtErrTrap)
	set(m68k.VecZeroDivide, k.rtErrTrap)
	set(m68k.VecPrivilege, k.rtErrTrap)
}

// synthesizeLookup builds the open path's name resolution over
// "hashed string names stored backwards" (Section 6.3). The name at D1
// is read a byte at a time once, by strlen; from its end it is hashed
// by one long (fs.Hash) and compared by longs, backwards, so /dev/null
// and /dev/tty differ at the first compare. Returns the directory
// entry in D0, or 0, for the open service. Clobbers D0, D2, A0, A1.
func (k *Kernel) synthesizeLookup(kq *synth.Quaject) uint32 {
	return k.C.Synthesize(kq, "fs_lookup", nil, func(e *synth.Emitter) {
		e.MoveL(m68k.D(3), m68k.PreDec(7))
		e.MoveL(m68k.D(4), m68k.PreDec(7))

		// strlen: D0 = length, A0 just past the NUL.
		e.MoveL(m68k.D(1), m68k.A(0))
		e.Label("len")
		e.Tst(1, m68k.PostInc(0))
		e.Bne("len")
		e.MoveL(m68k.A(0), m68k.D(0))
		e.SubL(m68k.D(1), m68k.D(0))
		e.SubL(m68k.Imm(1), m68k.D(0))
		e.Beq("out") // the empty name: D0 = 0, no entry

		// D2 = the last four bytes (a shorter name's right-aligned),
		// XOR the length, folded to the bucket index.
		e.CmpL(m68k.Imm(4), m68k.D(0))
		e.Bcs("short")
		e.MoveL(m68k.Disp(-5, 0), m68k.D(2))
		e.Label("hash")
		e.EorL(m68k.D(0), m68k.D(2))
		for _, sh := range []int32{16, 6} {
			e.MoveL(m68k.D(2), m68k.D(4))
			e.LsrL(m68k.Imm(sh), m68k.D(4))
			e.EorL(m68k.D(4), m68k.D(2))
		}
		e.AndL(m68k.Imm(fs.NBuckets-1), m68k.D(2))

		// A0 = first entry of the bucket chain; the bucket table base
		// is a boot-time invariant, folded in.
		e.Lea(m68k.Abs(k.FS.Buckets), 0)
		e.MoveL(m68k.Idx(0, 0, 2, 4), m68k.A(0))

		// Walk the chain; D2 keeps the entry under comparison.
		e.Label("walk")
		e.MoveL(m68k.A(0), m68k.D(2))
		e.Beq("found") // the chain's end: D2 = 0, no entry
		e.Cmp(4, m68k.Disp(fs.EntNameLen, 0), m68k.D(0))
		e.Bne("next")
		// Compare backwards: the name from its end by longs, then its
		// leading len%4 bytes, against the entry's name in stored order.
		e.Lea(m68k.Disp(fs.EntName, 0), 1)
		e.MoveL(m68k.D(1), m68k.A(0))
		e.AddL(m68k.D(0), m68k.A(0))
		e.MoveL(m68k.D(0), m68k.D(3))
		e.LsrL(m68k.Imm(2), m68k.D(3))
		e.Bra("lend")
		e.Label("lcmp")
		e.MoveL(m68k.PreDec(0), m68k.D(4))
		e.Cmp(4, m68k.PostInc(1), m68k.D(4))
		e.Bne("differ")
		e.Label("lend")
		e.Dbra(3, "lcmp")
		e.MoveL(m68k.D(0), m68k.D(3))
		e.AndL(m68k.Imm(3), m68k.D(3))
		e.Bra("bend")
		e.Label("bcmp")
		e.MoveB(m68k.PreDec(0), m68k.D(4))
		e.Cmp(1, m68k.PostInc(1), m68k.D(4))
		e.Bne("differ")
		e.Label("bend")
		e.Dbra(3, "bcmp")
		e.Label("found")
		e.MoveL(m68k.D(2), m68k.D(0)) // the entry, or 0
		e.Label("out")
		e.MoveL(m68k.PostInc(7), m68k.D(4))
		e.MoveL(m68k.PostInc(7), m68k.D(3))
		e.Rts()
		e.Label("differ")
		e.MoveL(m68k.D(2), m68k.A(0))
		e.Label("next")
		e.MoveL(m68k.Disp(fs.EntNext, 0), m68k.A(0))
		e.Bra("walk")

		// A name of one to three bytes, right-aligned in D2.
		e.Label("short")
		e.Clr(4, m68k.D(2))
		e.MoveL(m68k.D(1), m68k.A(1))
		e.MoveL(m68k.D(0), m68k.D(3))
		e.SubL(m68k.Imm(1), m68k.D(3))
		e.Label("sbyte")
		e.LslL(m68k.Imm(8), m68k.D(2))
		e.MoveB(m68k.PostInc(1), m68k.D(2))
		e.Dbra(3, "sbyte")
		e.Bra("hash")
	})
}

// synthesizeCreate builds kcreate: the measured thread-creation path.
// "Of these, about 100 [microseconds] are needed to fill
// approximately 1KBytes in the TTE and the rest are used by code
// synthesis" (Section 6.3). D1 = entry PC, D2 = user stack; returns
// the new TTE address in D0, or -1 when the heap is exhausted.
func (k *Kernel) synthesizeCreate(kq *synth.Quaject) uint32 {
	return k.C.Synthesize(kq, "kcreate", nil, func(e *synth.Emitter) {
		e.Kcall(SvcAllocTTE) // D0 = raw TTE memory, or -1
		e.TstL(m68k.D(0))
		e.Bmi("fail")
		e.MoveL(m68k.D(0), m68k.PreDec(7))
		// Fill the TTE with unrolled clears, all but the vector area
		// and the UNIX cells, which the copy right after overwrites.
		e.MoveL(m68k.D(0), m68k.A(0))
		e.MoveL(m68k.Imm(TTEVec/16-1), m68k.D(0))
		e.Label("clr1")
		for i := 0; i < 4; i++ {
			e.Clr(4, m68k.PostInc(0))
		}
		e.Dbra(0, "clr1")
		e.MoveL(m68k.Ind(7), m68k.A(0))
		e.Lea(m68k.Disp(TTEVec+m68k.VectorTableBytes, 0), 0)
		e.MoveL(m68k.Imm((TTEUnixRW-TTEVec-m68k.VectorTableBytes)/16-1), m68k.D(0))
		e.Label("clr2")
		for i := 0; i < 4; i++ {
			e.Clr(4, m68k.PostInc(0))
		}
		e.Dbra(0, "clr2")
		// Copy the prototype vector table into the TTE, unrolled.
		e.MoveL(m68k.Ind(7), m68k.A(1))
		e.Lea(m68k.Disp(TTEVec, 1), 1)
		e.Lea(m68k.Abs(k.protoVec), 0)
		e.MoveL(m68k.Imm(m68k.NumVectors/4-1), m68k.D(0))
		e.Label("cpy")
		for i := 0; i < 4; i++ {
			e.MoveL(m68k.PostInc(0), m68k.PostInc(1))
		}
		e.Dbra(0, "cpy")
		// Then the prototype UNIX cells, which follow it.
		e.Lea(m68k.Disp(TTEUnixRW-TTEVec-m68k.VectorTableBytes, 1), 1)
		e.MoveL(m68k.Imm((TTESize-TTEUnixRW)/16-1), m68k.D(0))
		e.Label("cpyu")
		for i := 0; i < 4; i++ {
			e.MoveL(m68k.PostInc(0), m68k.PostInc(1))
		}
		e.Dbra(0, "cpyu")
		// Register: Go wires the fields and synthesizes (and charges)
		// the per-thread procedures.
		e.MoveL(m68k.PostInc(7), m68k.D(0))
		e.Kcall(SvcRegister)
		e.Label("fail")
		e.Rts()
	})
}

// sysBodies labels the body of each native function code, by code.
var sysBodies = [NumSys]string{
	SysOpen: "open", SysClose: "close", SysCreate: "create", SysDestroy: "destroy",
	SysStop: "stop", SysStart: "start", SysStep: "step", SysSignal: "signal",
	SysSetAlarm: "alarm", SysExit: "exit", SysPipe: "pipe", SysYield: "yield",
	SysSeek: "seek", SysSock: "sock",
}

// synthesizeDispatch builds the trap #1 native system call
// dispatcher: one unsigned bound check on the function code, then a
// jump through GSysTable, the vector of per-call bodies, so every call
// pays the same four instructions.
func (k *Kernel) synthesizeDispatch(kq *synth.Quaject) uint32 {
	timerAlarm := int32(m68k.TimerBase + m68k.TimerRegAlarm)
	return k.C.Build(kq, "sys_dispatch").Table(GSysTable, sysBodies[:]).Emit(func(e *synth.Emitter) {
		e.CmpL(m68k.Imm(NumSys), m68k.D(0))
		e.Bcc("bad") // unsigned: negative codes are out of range too
		e.Lea(m68k.Abs(GSysTable), 1)
		e.JmpVia(m68k.Idx(0, 1, 0, 4)) // [GSysTable + 4*D0]
		e.Label("bad")
		e.Kcall(SvcPanic)
		e.Halt()

		e.Label("open")
		e.Jsr(k.rtLookup)
		e.TstL(m68k.D(0))
		e.Beq("fail")
		e.Kcall(SvcOpen) // D0 = entry found; returns D0 = fd (synthesis charged)
		e.Rte()
		e.Label("fail")
		e.MoveL(m68k.Imm(-1), m68k.D(0))
		e.Rte()

		e.Label("close")
		e.Kcall(SvcClose)
		e.Rte()

		e.Label("create")
		e.Jsr(k.rtCreate)
		e.Rte()

		// Stop and destroy mask before they compare the target with
		// the running thread: on another thread they unlink it if it
		// is in the ring, on this one they step out of the ring and
		// switch away, masked through the trap. The RTE restores the
		// caller's level.
		e.Label("destroy")
		e.MoveL(m68k.D(1), m68k.A(0))
		e.OrSR(SRIPLMask)
		e.Cmp(4, m68k.Abs(GCurTTE), m68k.D(1))
		e.Beq("selfdestroy")
		e.Tst(4, m68k.Disp(TTENext, 0))
		e.Bne("destroyon")
		emitUnpark(e, "free")
		e.Bra("free")
		e.Label("destroyon")
		emitUnlink(e)
		e.Label("free")
		e.Kcall(SvcFreeTTE)
		e.Rte()

		e.Label("exit")
		e.Kcall(SvcExit)
		e.Tst(4, m68k.Abs(GLiveThreads))
		e.Bne("exitsw")
		e.Halt() // simulation over: every user thread is done
		e.Label("exitsw")
		e.OrSR(SRIPLMask)
		e.MoveL(m68k.Abs(GCurTTE), m68k.A(0))
		e.MoveL(m68k.A(0), m68k.D(1))
		e.Label("selfdestroy") // masked; A0 = D1 = the running TTE
		emitLeave(e, "selfleave")
		e.Kcall(SvcFreeTTE)
		e.Trap(TrapSwitch) // never resumed
		e.Halt()

		e.Label("stop")
		e.MoveL(m68k.D(1), m68k.A(0))
		e.OrSR(SRIPLMask)
		e.Cmp(4, m68k.Abs(GCurTTE), m68k.D(1))
		e.Beq("stopself")
		e.Tst(4, m68k.Disp(TTENext, 0))
		e.Beq("stopped")
		emitUnlink(e)
		e.Label("stopped")
		e.Rte()
		e.Label("stopself")
		emitLeave(e, "stopleave")
		e.Trap(TrapSwitch) // parked until start
		e.Rte()

		e.Label("step")
		// Arm the trace bit in the target's stacked SR and start it:
		// it executes one instruction and the trace handler stops it
		// again (Section 4.3).
		e.MoveL(m68k.D(1), m68k.A(0))
		e.MoveL(m68k.Disp(TTESSP, 0), m68k.A(1))
		e.OrL(m68k.Imm(int32(m68k.FlagT)), m68k.Ind(1))
		e.Label("start")
		e.MoveL(m68k.D(1), m68k.A(0))
		e.OrSR(SRIPLMask)
		e.Tst(4, m68k.Disp(TTENext, 0)) // started twice: in the ring already
		e.Bne("started")
		emitUnpark(e, "insert")
		e.Label("insert")
		emitInsert(e)
		e.Label("started")
		e.Rte()

		e.Label("signal")
		// "The signal system call alters the general registers area
		// of the receiving thread's TTE to make the receiving thread
		// call the signal handler when activated" — here: rewrite the
		// resume PC in the target's saved exception frame.
		e.MoveL(m68k.D(1), m68k.A(0))
		e.MoveL(m68k.Disp(TTESSP, 0), m68k.A(1))
		e.MoveL(m68k.Disp(4, 1), m68k.D(0)) // saved resume PC
		e.MoveL(m68k.D(0), m68k.Disp(TTESigOld, 0))
		e.MoveL(m68k.D(2), m68k.Disp(4, 1)) // resume into the handler
		e.Rte()

		e.Label("alarm")
		// D1 = cycles until alarm, D2 = procedure. Table 5: "Set
		// alarm: 9 usec".
		e.MoveL(m68k.D(2), m68k.Abs(GAlarmProc))
		e.MoveL(m68k.D(1), m68k.Abs(uint32(timerAlarm)))
		e.Rte()

		e.Label("pipe")
		e.Kcall(SvcPipe)
		e.Rte()

		e.Label("sock")
		e.Kcall(SvcSock)
		e.Rte()

		e.Label("yield")
		e.Trap(TrapSwitch)
		e.Rte()

		e.Label("seek")
		// Set the descriptor's position cell: curTTE + fd table +
		// fd*slot + pos. One unsigned compare keeps the store inside
		// the descriptor table.
		e.CmpL(m68k.Imm(MaxFD), m68k.D(1))
		e.Bcc("fail")
		e.MoveL(m68k.Abs(GCurTTE), m68k.A(0))
		e.LslL(m68k.Imm(5), m68k.D(1)) // fd * FDSlotSize(32)
		e.AddL(m68k.D(1), m68k.A(0))
		e.MoveL(m68k.D(2), m68k.Disp(TTEFDBase+FDPos, 0))
		e.MoveL(m68k.D(2), m68k.D(0))
		e.Rte()
	})
}
