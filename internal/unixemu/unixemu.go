// Package unixemu is the UNIX emulator of Section 6.1: a thin layer
// that services SUNOS-style system calls on top of native Synthesis
// kernel calls, so that the same "binary" (Quamachine program built
// against the UNIX trap convention) runs on both the Synthesis kernel
// and the traditional baseline kernel.
//
// "In the simplest case, the emulator translates the UNIX kernel call
// into an equivalent Synthesis kernel call." For read and write the
// translation is a tail-jump into the descriptor's own synthesized
// routine, at the second entry open built into it for the UNIX
// registers — the measured emulation-trap overhead of about 2
// microseconds in Table 2.
package unixemu

import (
	"slices"

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

// numSys bounds the SUNOS numbers the gate's table covers.
const numSys = SysSocket + 1

// UNIX trap convention: trap #0 with the syscall number in D0 and
// arguments in D1-D3. read/write: fd D1, buffer D2, length D3.
// open: name pointer D1 (flags ignored — the memory file system has
// no modes). Results come back in D0 (and D1 for pipe's second
// descriptor), -1 on error.

// translated are the calls other than read and write: each is its
// native counterpart with the arguments already in the native
// registers, so the gate's table can point straight at the native body.
var translated = []struct {
	no   int32
	name string
	fn   int32
}{
	{SysExit, "exit", kernel.SysExit}, {SysOpen, "open", kernel.SysOpen},
	{SysClose, "close", kernel.SysClose}, {SysLseek, "lseek", kernel.SysSeek},
	{SysPipe, "pipe", kernel.SysPipe}, {SysSocket, "socket", kernel.SysSock},
}

// Install synthesizes the emulator gate and installs it at trap #0 in
// the prototype vector table and every live thread.
//
// When the kernel has a metrics registry attached, the gate is emitted
// with one per-syscall counter cell bumped on each call's path (a
// counting stub in front of each native body), served as
// unixemu.sys.<name>.calls sampled metrics — the same stitched-cell
// self-measurement the synthesizer's Counted() option uses. Without a
// registry no cells or stubs exist, so Table 2 is unaffected.
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

	// The jump table, one cell per SUNOS number below numSys: read's
	// and write's stubs, a translated call's counting stub (without
	// counters its native body, written below), else "unknown".
	table, err := k.Heap.Alloc(numSys * 4)
	if err != nil {
		panic("unixemu: cannot allocate the gate's jump table")
	}
	targets := slices.Repeat([]string{"unknown"}, numSys)
	targets[SysRead], targets[SysWrite] = "read", "write"
	if k.Metrics != nil {
		for _, c := range translated {
			targets[c.no] = c.name
		}
	}

	gate := k.C.Build(nil, "unix_gate").Table(table, targets).Emit(func(e *synth.Emitter) {
		// Every call through the table (unsigned: negatives fail too).
		e.CmpL(m68k.Imm(numSys), m68k.D(0))
		e.Bcc("unknown")
		e.Lea(m68k.Abs(table), 1)
		e.JmpVia(m68k.Idx(0, 1, 0, 4)) // [table + 4*D0]

		// read and write: check the fd the same way and tail-jump,
		// (fd,buf,len) still in D1-D3, into the UNIX entry of the
		// thread's synthesized routine, through its TTE's TTEUnixRW
		// cells — the emulator "translates the UNIX kernel call into an
		// equivalent Synthesis kernel call", and the routine does the
		// translating.
		rw := func(name string, trap int) {
			e.Label(name)
			count(e, name)
			e.CmpL(m68k.Imm(kernel.MaxFD), m68k.D(1))
			e.Bcc("fail")
			e.MoveL(m68k.Abs(kernel.GCurTTE), m68k.A(0))
			e.JmpVia(m68k.Idx(int32(kernel.UnixRWOff(trap)), 0, 1, 4)) // [TTE.unixrw[trap-8+fd]]
		}
		rw("read", kernel.TrapRead)
		rw("write", kernel.TrapWrite)

		// Every other call lands straight in the native body, whose RTE
		// pops our trap frame (Collapsing Layers applied to the
		// emulation layer itself); with counters, through a stub.
		if k.Metrics != nil {
			for _, c := range translated {
				e.Label(c.name)
				count(e, c.name)
				e.Jmp(k.SysEntry(c.fn))
			}
		}

		// Unknown syscall or bad descriptor: error return.
		e.Label("unknown")
		count(e, "unknown")
		e.Label("fail")
		e.MoveL(m68k.Imm(-1), m68k.D(0))
		e.Rte()
	})
	if k.Metrics == nil {
		for _, c := range translated {
			k.M.Poke(table+uint32(c.no)*4, 4, k.SysEntry(c.fn))
		}
	}

	k.SetVector(m68k.VecTrapBase+kernel.TrapUnix, gate)
	return gate
}
