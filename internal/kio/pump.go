package kio

import (
	"synthesis/internal/kernel"
	"synthesis/internal/m68k"
	"synthesis/internal/synth"
)

// Kernel pump threads (Sections 2.1, 2.3 and 5.2): "Some threads
// never execute user-level code, but run entirely within the kernel
// to provide additional concurrency for some kernel operations" — and
// "a pump contains a thread that actively copies its input into its
// output. Pumps connect passive producers with passive consumers."
//
// SpawnPump synthesizes such a thread: a loop that reads from one
// pipe and writes everything it got to another, blocking on either
// side's wait cells like any stream client. The pump's own descriptor
// routines are synthesized by the same open machinery, so the loop
// body is just two traps and the bookkeeping.

// SpawnPump creates a kernel thread moving bytes from the read end of
// src to the write end of dst, using a transfer buffer of bufBytes.
// The pump runs forever (it is a kernel service thread and does not
// count toward the live-thread total).
func (io *IO) SpawnPump(name string, src, dst *KQueue, bufBytes int32) *kernel.Thread {
	k := io.K
	buf, err := k.Heap.Alloc(uint32(bufBytes))
	if err != nil {
		panic("kio: cannot allocate pump buffer")
	}

	// The thread is created first so its descriptors exist before the
	// body is synthesized (the trap numbers are compile-time
	// constants of the body).
	body := k.C.Synthesize(nil, "pump:"+name, nil, func(e *synth.Emitter) {
		e.Label("loop")
		// n = read(src fd 0, buf, bufBytes): blocks when dry.
		e.MoveL(m68k.Imm(int32(buf)), m68k.D(1))
		e.MoveL(m68k.Imm(bufBytes), m68k.D(2))
		e.Trap(kernel.TrapRead + 0)
		e.TstL(m68k.D(0))
		e.Beq("loop")
		// write(dst fd 1, buf, n): blocks when full.
		e.MoveL(m68k.D(0), m68k.D(2))
		e.MoveL(m68k.Imm(int32(buf)), m68k.D(1))
		e.Trap(kernel.TrapWrite + 1)
		e.Bra("loop")
	})
	t := k.SpawnKernelStopped(name, body)
	if io.OpenPipeEnd(t, src, false) != 0 {
		panic("kio: pump read fd")
	}
	if io.OpenPipeEnd(t, dst, true) != 1 {
		panic("kio: pump write fd")
	}
	k.Link(t, k.Idle)
	return t
}
