// Package unixemu is the UNIX emulator of Section 6.1: a thin layer
// that services SUNOS-style system calls on top of native Synthesis
// kernel calls, so that the same "binary" (Quamachine program built
// against the UNIX trap convention) runs on both the Synthesis kernel
// and the traditional baseline kernel.
//
// "In the simplest case, the emulator translates the UNIX kernel call
// into an equivalent Synthesis kernel call." The translation is a
// register shuffle followed by a tail-jump into the native
// synthesized routine — the measured emulation-trap overhead of about
// 2 microseconds in Table 2.
package unixemu

import (
	"synthesis/internal/kernel"
	"synthesis/internal/m68k"
	"synthesis/internal/synth"
)

// SUNOS system call numbers (the subset the benchmarks use).
const (
	SysExit   = 1
	SysRead   = 3
	SysWrite  = 4
	SysOpen   = 5
	SysClose  = 6
	SysLseek  = 19
	SysPipe   = 42
	SysSocket = 97 // 4.2BSD socket: D1 = local port, D2 = remote port
)

// UNIX trap convention: trap #0 with the syscall number in D0 and
// arguments in D1-D3. read/write: fd D1, buffer D2, length D3.
// open: name pointer D1 (flags ignored — the memory file system has
// no modes). Results come back in D0 (and D1 for pipe's second
// descriptor), -1 on error.

// Install synthesizes the emulator gate and installs it at trap #0 in
// the prototype vector table and every live thread.
//
// When the kernel has a metrics registry attached, the gate is emitted
// with one per-syscall counter cell bumped inside each branch, served
// as unixemu.sys.<name>.calls sampled metrics — the same stitched-cell
// self-measurement the synthesizer's Counted() option uses. Without a
// registry no cells exist and the generated gate is byte-identical to
// the uninstrumented one, so the Table 2 emulation-overhead numbers
// are unaffected.
func Install(k *kernel.Kernel) uint32 {
	count := func(e *synth.Emitter, name string) {}
	if k.Metrics != nil {
		m := k.M
		cells := make(map[string]uint32)
		for _, n := range []string{
			"exit", "read", "write", "open", "close",
			"lseek", "pipe", "socket", "unknown",
		} {
			cell, err := k.Heap.Alloc(4)
			if err != nil {
				break
			}
			m.Poke(cell, 4, 0)
			cells[n] = cell
			c := cell
			k.Metrics.Sample("unixemu.sys."+n+".calls", func() uint64 {
				return uint64(m.Peek(c, 4))
			})
		}
		count = func(e *synth.Emitter, name string) {
			if cell := cells[name]; cell != 0 {
				e.AddL(m68k.Imm(1), m68k.Abs(cell))
			}
		}
	}

	gate := k.C.Synthesize(nil, "unix_gate", nil, func(e *synth.Emitter) {
		// read: shuffle (fd,buf,len) from D1-D3 to the native
		// convention (buf D1, len D2) and tail-jump into the
		// thread's synthesized read routine through its own vector
		// table — the emulator "translates the UNIX kernel call into
		// an equivalent Synthesis kernel call".
		e.CmpL(m68k.Imm(SysRead), m68k.D(0))
		e.Bne("notread")
		count(e, "read")
		e.MoveL(m68k.Abs(kernel.GCurTTE), m68k.A(0))
		e.MoveL(m68k.D(1), m68k.D(0)) // fd
		e.MoveL(m68k.D(2), m68k.D(1)) // buf
		e.MoveL(m68k.D(3), m68k.D(2)) // len
		e.JmpVia(m68k.Idx(
			int32(kernel.TTEVec+uint32(m68k.VecTrapBase+kernel.TrapRead)*4),
			0, 0, 4)) // [TTE.vec[32+TrapRead+fd]]
		e.Label("notread")

		e.CmpL(m68k.Imm(SysWrite), m68k.D(0))
		e.Bne("notwrite")
		count(e, "write")
		e.MoveL(m68k.Abs(kernel.GCurTTE), m68k.A(0))
		e.MoveL(m68k.D(1), m68k.D(0))
		e.MoveL(m68k.D(2), m68k.D(1))
		e.MoveL(m68k.D(3), m68k.D(2))
		e.JmpVia(m68k.Idx(
			int32(kernel.TTEVec+uint32(m68k.VecTrapBase+kernel.TrapWrite)*4),
			0, 0, 4))
		e.Label("notwrite")

		// The remaining calls translate one-to-one: load the native
		// function code and fall into the native dispatcher (its RTE
		// pops our trap frame — Collapsing Layers applied to the
		// emulation layer itself).
		e.CmpL(m68k.Imm(SysOpen), m68k.D(0))
		e.Bne("notopen")
		count(e, "open")
		e.MoveL(m68k.Imm(kernel.SysOpen), m68k.D(0))
		e.Jmp(k.DispatchRoutine())
		e.Label("notopen")

		e.CmpL(m68k.Imm(SysClose), m68k.D(0))
		e.Bne("notclose")
		count(e, "close")
		e.MoveL(m68k.Imm(kernel.SysClose), m68k.D(0))
		e.Jmp(k.DispatchRoutine())
		e.Label("notclose")

		e.CmpL(m68k.Imm(SysPipe), m68k.D(0))
		e.Bne("notpipe")
		count(e, "pipe")
		e.MoveL(m68k.Imm(kernel.SysPipe), m68k.D(0))
		e.Jmp(k.DispatchRoutine())
		e.Label("notpipe")

		e.CmpL(m68k.Imm(SysExit), m68k.D(0))
		e.Bne("notexit")
		count(e, "exit")
		e.MoveL(m68k.Imm(kernel.SysExit), m68k.D(0))
		e.Jmp(k.DispatchRoutine())
		e.Label("notexit")

		e.CmpL(m68k.Imm(SysLseek), m68k.D(0))
		e.Bne("notseek")
		count(e, "lseek")
		e.MoveL(m68k.Imm(kernel.SysSeek), m68k.D(0))
		e.Jmp(k.DispatchRoutine())
		e.Label("notseek")

		e.CmpL(m68k.Imm(SysSocket), m68k.D(0))
		e.Bne("notsock")
		count(e, "socket")
		e.MoveL(m68k.Imm(kernel.SysSock), m68k.D(0))
		e.Jmp(k.DispatchRoutine())
		e.Label("notsock")

		// Unknown syscall: error return.
		count(e, "unknown")
		e.MoveL(m68k.Imm(-1), m68k.D(0))
		e.Rte()
	})

	vec := uint32(m68k.VecTrapBase+kernel.TrapUnix) * 4
	k.M.Poke(k.ProtoVectors()+vec, 4, gate)
	for _, t := range k.Threads {
		k.M.Poke(t.TTE+kernel.TTEVec+vec, 4, gate)
	}
	return gate
}
