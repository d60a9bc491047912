package kio

import (
	"synthesis/internal/fs"
	"synthesis/internal/kernel"
	"synthesis/internal/m68k"
	"synthesis/internal/synth"
)

// The tty device server (Section 5.1): a raw server wrapping the
// hardware — its interrupt handler is the single producer of a
// dedicated input queue ("dedicated queues use the knowledge that
// only one producer is using the queue and omit the synchronization
// code") — and a cooked filter that interprets the erase and kill
// control characters. At boot the kernel collapses the layers: the
// cooked read inlines the raw get-character sequence instead of
// calling through a pipe (Section 5.4).

const (
	ttyQueueBytes = 256
	charErase     = 0x08 // backspace
	charKill      = 0x15 // ^U
	charNewline   = 0x0a
)

// installTTY builds the raw server: the input queue and the
// interrupt handler (Table 5: "Service raw TTY interrupt: 16 usec"),
// installed at IRQTTY in the prototype vectors and all live threads.
func (io *IO) installTTY() {
	k := io.K
	q := io.newKQueue(ttyQueueBytes)
	if q == nil {
		panic("kio: cannot allocate tty queue")
	}
	io.ttyQ = q.Addr

	head := q.Addr + KQHead
	tail := q.Addr + KQTail
	buf := q.Addr + KQBuf
	rwait := q.Addr + KQRWait
	gauge := q.Addr + KQGauge
	size := q.Size

	io.ttyIntH = k.C.Build(nil, "tty_intr").Named("kio.tty_intr").Emit(func(e *synth.Emitter) {
		e.MoveL(m68k.D(0), m68k.PreDec(7))
		e.MoveL(m68k.D(1), m68k.PreDec(7))
		e.MoveL(m68k.A(0), m68k.PreDec(7))
		e.MoveL(m68k.A(1), m68k.PreDec(7))
		// Pick up the character (the act of reading clears the
		// interrupt condition).
		e.MoveL(m68k.Abs(m68k.TTYBase+m68k.TTYRegData), m68k.D(0))
		// Echoing shares the output with user writes, which is why the
		// paper routes echo through an optimistic queue; our output
		// register accepts interleaved bytes, so the echo is a single
		// store.
		e.MoveB(m68k.D(0), m68k.Abs(m68k.TTYBase+m68k.TTYRegData))
		// Dedicated-queue insert: this handler is the only producer.
		e.MoveL(m68k.Abs(head), m68k.D(1))
		e.Lea(m68k.Abs(buf), 0)
		e.MoveB(m68k.D(0), m68k.Idx(0, 0, 1, 1)) // buf[head] = char
		e.AddL(m68k.Imm(1), m68k.D(1))
		e.CmpL(m68k.Imm(size), m68k.D(1))
		e.Bne("nowrap")
		e.Clr(4, m68k.D(1))
		e.Label("nowrap")
		e.Cmp(4, m68k.Abs(tail), m68k.D(1))
		e.Beq("overflow") // queue full: drop the character
		e.MoveL(m68k.D(1), m68k.Abs(head))
		e.AddL(m68k.Imm(1), m68k.Abs(gauge))
		// "A waiting thread's unblocking procedure is chained to the
		// end of the interrupt handling" (Section 4.1).
		e.Lea(m68k.Abs(rwait), 0)
		e.Jsr(k.WakeCellRoutine())
		e.Label("overflow")
		e.MoveL(m68k.PostInc(7), m68k.A(1))
		e.MoveL(m68k.PostInc(7), m68k.A(0))
		e.MoveL(m68k.PostInc(7), m68k.D(1))
		e.MoveL(m68k.PostInc(7), m68k.D(0))
		e.Rte()
	})
	k.SetVector(m68k.VecAutovector+m68k.IRQTTY, io.ttyIntH)

	// A raw device node alongside the cooked one.
	mustCreate(k.FS.CreateSpecial("/dev/rawtty", fs.SpecialRawTTY))
}

// synthTTYWrite emits the output path: write(d1=buf, d2=len) -> d0.
// Output goes byte by byte to the device register.
func (io *IO) synthTTYWrite(t *kernel.Thread) entries {
	return io.once(&io.ttyWrite, io.K.C.Build(t.Q, "tty_write"), rw(func(e *synth.Emitter) {
		e.MoveL(m68k.D(2), m68k.D(0)) // return count
		e.TstL(m68k.D(2))
		e.Beq("tw_done")
		e.MoveL(m68k.D(1), m68k.A(0))
		e.MoveL(m68k.D(2), m68k.D(1))
		e.SubL(m68k.Imm(1), m68k.D(1))
		e.Label("tw_loop")
		e.MoveB(m68k.PostInc(0), m68k.Abs(m68k.TTYBase+m68k.TTYRegData))
		e.Dbra(1, "tw_loop")
		e.Label("tw_done")
		e.Rte()
	}))
}

// emitRawGetChar emits the raw server's get-character: wait for the
// input queue to hold a character, take it, leave it in D0. The park is
// protected by the interrupt mask (the producer is the tty interrupt).
// Clobbers D1 and A0; A1 survives the park.
func (io *IO) emitRawGetChar(e *synth.Emitter) {
	head, tail := io.ttyQ+KQHead, io.ttyQ+KQTail

	e.Label("gc_wait")
	e.OrSR(kernel.SRIPLMask)
	e.MoveL(m68k.Abs(head), m68k.D(0))
	e.Cmp(4, m68k.Abs(tail), m68k.D(0))
	e.Bne("gc_have")
	e.MoveL(m68k.A(1), m68k.PreDec(7))
	e.Lea(m68k.Abs(io.ttyQ+KQRWait), 0)
	e.Jsr(io.K.BlockOnRoutine())
	e.MoveL(m68k.PostInc(7), m68k.A(1))
	e.AndSR(^uint16(kernel.SRIPLMask))
	e.Bra("gc_wait")
	e.Label("gc_have")
	e.AndSR(^uint16(kernel.SRIPLMask))
	e.MoveL(m68k.Abs(tail), m68k.D(1))
	e.Lea(m68k.Abs(io.ttyQ+KQBuf), 0)
	e.Clr(4, m68k.D(0))
	e.MoveB(m68k.Idx(0, 0, 1, 1), m68k.D(0)) // char = buf[tail]
	e.AddL(m68k.Imm(1), m68k.D(1))
	e.CmpL(m68k.Imm(ttyQueueBytes), m68k.D(1))
	e.Bne("gc_nw")
	e.Clr(4, m68k.D(1))
	e.Label("gc_nw")
	e.MoveL(m68k.D(1), m68k.Abs(tail))
}

// synthCooked returns /dev/tty's read: the cooked read with the raw
// get-character inlined rather than called — Collapsing Layers,
// exactly the boot-time optimization Section 5.4 describes for this
// filter.
func (io *IO) synthCooked(t *kernel.Thread) entries {
	return io.once(&io.cookedRead, io.K.C.Build(t.Q, "cooked_read"), io.cookedTemplate(0))
}

// cookedTemplate is the cooked (line-discipline) read: gather
// characters into the caller's buffer, interpreting erase and kill,
// until a newline or the buffer fills. read(d1=buf, d2=len) -> d0 =
// line length. The layer boundary is the parameter: with getchar 0 the
// raw get-character is emitted in place, otherwise it is a call to the
// routine at that address.
func (io *IO) cookedTemplate(getchar uint32) func(*synth.Emitter) {
	return rw(func(e *synth.Emitter) {
		// Stack: [orig len][buf base] (top to bottom).
		e.MoveL(m68k.D(1), m68k.A(1)) // cursor
		e.MoveL(m68k.D(1), m68k.PreDec(7))
		e.MoveL(m68k.D(2), m68k.PreDec(7))

		e.Label("cr_loop")
		e.TstL(m68k.D(2))
		e.Beq("cr_done")
		if getchar == 0 {
			io.emitRawGetChar(e)
		} else {
			e.Jsr(getchar)
		}
		// Line discipline.
		e.CmpL(m68k.Imm(charErase), m68k.D(0))
		e.Beq("cr_erase")
		e.CmpL(m68k.Imm(charKill), m68k.D(0))
		e.Beq("cr_kill")
		e.MoveB(m68k.D(0), m68k.PostInc(1))
		e.SubL(m68k.Imm(1), m68k.D(2))
		e.CmpL(m68k.Imm(charNewline), m68k.D(0))
		e.Beq("cr_done")
		e.Bra("cr_loop")
		e.Label("cr_erase")
		e.Cmp(4, m68k.Disp(4, 7), m68k.A(1)) // cursor vs base
		e.Bls("cr_loop")                     // nothing to erase
		e.SubL(m68k.Imm(1), m68k.A(1))
		e.AddL(m68k.Imm(1), m68k.D(2))
		e.Bra("cr_loop")
		e.Label("cr_kill")
		e.MoveL(m68k.Disp(4, 7), m68k.A(1)) // cursor = base
		e.MoveL(m68k.Ind(7), m68k.D(2))     // remaining = orig len
		e.Bra("cr_loop")

		e.Label("cr_done")
		e.MoveL(m68k.A(1), m68k.D(0))
		e.SubL(m68k.Disp(4, 7), m68k.D(0)) // count = cursor - base
		e.Lea(m68k.Disp(8, 7), 7)          // drop the two saves
		e.Rte()
	})
}

// SynthLayeredCookedRead builds the UN-collapsed cooked read for the
// ablation benchmarks: the same template, but every character is
// fetched by calling a separate raw get-character routine — the
// layered structure Collapsing Layers eliminates. Returns the read
// routine's code address (installable on a descriptor by tests).
func (io *IO) SynthLayeredCookedRead(t *kernel.Thread) uint32 {
	c := io.K.C
	getchar := io.once(&io.rawGetChar, c.Build(t.Q, "rawtty_getchar"), func(e *synth.Emitter) {
		e.Label(synth.EntryAlt)
		e.Label(synth.EntryMain)
		io.emitRawGetChar(e)
		e.Rts()
	}).native
	return io.once(&io.layeredRead, c.Build(t.Q, "cooked_read_layered"), io.cookedTemplate(getchar)).native
}
