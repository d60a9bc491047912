package bench

import (
	"synthesis/internal/asmkit"
	"synthesis/internal/m68k"
	"synthesis/internal/unixemu"
)

// The Appendix A benchmark programs, rebuilt as Quamachine binaries
// against the UNIX trap convention (trap #0, syscall number in D0,
// arguments in D1-D3). The identical instruction stream runs on both
// kernels — the comparison discipline of Section 6.1.

func unixCall(b *asmkit.Builder, no int32) {
	b.MoveL(m68k.Imm(no), m68k.D(0))
	b.Trap(0)
}

func progExit(b *asmkit.Builder) {
	b.MoveL(m68k.Imm(0), m68k.D(1))
	unixCall(b, unixemu.SysExit)
}

func mark(b *asmkit.Builder) { b.Kcall(100) }

// BuildCompute emits program 1: the compute-bound calibration test, a
// Hofstadter Q-style chaotic sequence Q(n) = Q(n-Q(n-1)) + Q(n-Q(n-2))
// that "touches a large array at non-contiguous points".
func BuildCompute(b *asmkit.Builder, n int32) {
	q := int32(addrQArray)
	b.MoveL(m68k.Imm(1), m68k.Abs(uint32(q+4)))
	b.MoveL(m68k.Imm(1), m68k.Abs(uint32(q+8)))
	mark(b)
	b.Lea(m68k.Abs(uint32(q)), 0)
	b.MoveL(m68k.Imm(3), m68k.D(3)) // n
	b.Label("loop")
	b.MoveL(m68k.D(3), m68k.D(4))
	b.SubL(m68k.Imm(1), m68k.D(4))
	b.MoveL(m68k.Idx(0, 0, 4, 4), m68k.D(5)) // Q[n-1]
	b.MoveL(m68k.D(3), m68k.D(6))
	b.SubL(m68k.D(5), m68k.D(6))
	b.MoveL(m68k.Idx(0, 0, 6, 4), m68k.D(5)) // Q[n-Q[n-1]]
	b.MoveL(m68k.D(3), m68k.D(4))
	b.SubL(m68k.Imm(2), m68k.D(4))
	b.MoveL(m68k.Idx(0, 0, 4, 4), m68k.D(6)) // Q[n-2]
	b.MoveL(m68k.D(3), m68k.D(7))
	b.SubL(m68k.D(6), m68k.D(7))
	b.MoveL(m68k.Idx(0, 0, 7, 4), m68k.D(6)) // Q[n-Q[n-2]]
	b.AddL(m68k.D(6), m68k.D(5))
	b.MoveL(m68k.D(3), m68k.D(4))
	b.MoveL(m68k.D(5), m68k.Idx(0, 0, 4, 4)) // Q[n] = sum
	b.AddL(m68k.Imm(1), m68k.D(3))
	b.CmpL(m68k.Imm(n+1), m68k.D(3))
	b.Bne("loop")
	mark(b)
	progExit(b)
}

// BuildPipeRW emits programs 2-4: create a pipe, then iters times
// write and read back a chunk of the given size.
func BuildPipeRW(b *asmkit.Builder, iters, chunk int32) {
	unixCall(b, unixemu.SysPipe) // D0 = rfd, D1 = wfd
	b.MoveL(m68k.D(0), m68k.D(6))
	b.MoveL(m68k.D(1), m68k.D(7))
	mark(b)
	b.MoveL(m68k.Imm(iters), m68k.D(5))
	b.Label("loop")
	b.MoveL(m68k.D(7), m68k.D(1))
	b.MoveL(m68k.Imm(addrBufA), m68k.D(2))
	b.MoveL(m68k.Imm(chunk), m68k.D(3))
	unixCall(b, unixemu.SysWrite)
	b.MoveL(m68k.D(6), m68k.D(1))
	b.MoveL(m68k.Imm(addrBufB), m68k.D(2))
	b.MoveL(m68k.Imm(chunk), m68k.D(3))
	unixCall(b, unixemu.SysRead)
	b.SubL(m68k.Imm(1), m68k.D(5))
	b.Bne("loop")
	mark(b)
	progExit(b)
}

// BuildFileRW emits program 5: open the benchmark file and iters
// times rewind-write-rewind-read one kilobyte (the file stays in the
// cache / memory-resident file system on both kernels).
func BuildFileRW(b *asmkit.Builder, iters int32) {
	b.MoveL(m68k.Imm(addrNameFile), m68k.D(1))
	unixCall(b, unixemu.SysOpen) // fd 0
	mark(b)
	b.MoveL(m68k.Imm(iters), m68k.D(5))
	b.Label("loop")
	b.MoveL(m68k.Imm(0), m68k.D(1))
	b.MoveL(m68k.Imm(0), m68k.D(2))
	unixCall(b, unixemu.SysLseek)
	b.MoveL(m68k.Imm(0), m68k.D(1))
	b.MoveL(m68k.Imm(addrBufA), m68k.D(2))
	b.MoveL(m68k.Imm(1024), m68k.D(3))
	unixCall(b, unixemu.SysWrite)
	b.MoveL(m68k.Imm(0), m68k.D(1))
	b.MoveL(m68k.Imm(0), m68k.D(2))
	unixCall(b, unixemu.SysLseek)
	b.MoveL(m68k.Imm(0), m68k.D(1))
	b.MoveL(m68k.Imm(addrBufB), m68k.D(2))
	b.MoveL(m68k.Imm(1024), m68k.D(3))
	unixCall(b, unixemu.SysRead)
	b.SubL(m68k.Imm(1), m68k.D(5))
	b.Bne("loop")
	mark(b)
	unixCall(b, unixemu.SysClose)
	progExit(b)
}

// BuildOpenClose emits programs 6-7: iters times open and close the
// named file (descriptor 0 is reused every round).
func BuildOpenClose(b *asmkit.Builder, iters int32, nameAddr uint32) {
	mark(b)
	b.MoveL(m68k.Imm(iters), m68k.D(5))
	b.Label("loop")
	b.MoveL(m68k.Imm(int32(nameAddr)), m68k.D(1))
	unixCall(b, unixemu.SysOpen)
	b.MoveL(m68k.Imm(0), m68k.D(1))
	unixCall(b, unixemu.SysClose)
	b.SubL(m68k.Imm(1), m68k.D(5))
	b.Bne("loop")
	mark(b)
	progExit(b)
}

// BuildSockEcho emits the socket echo loop: iters times, one 64-byte
// datagram bounced 5 -> 9 -> 5 between two loopback sockets, each leg
// a write and a read through the UNIX gate. An iteration is two sends,
// two receives, two frames through the receive handler and four gate
// calls.
func BuildSockEcho(b *asmkit.Builder, iters int32) {
	const payload = 64
	sockPair(b)
	rw := func(no int32, fd uint8, buf uint32) {
		b.MoveL(m68k.D(fd), m68k.D(1))
		b.MoveL(m68k.Imm(int32(buf)), m68k.D(2))
		b.MoveL(m68k.Imm(payload), m68k.D(3))
		unixCall(b, no)
	}
	mark(b)
	b.MoveL(m68k.Imm(iters), m68k.D(5))
	b.Label("loop")
	rw(unixemu.SysWrite, 6, addrBufA)
	rw(unixemu.SysRead, 7, addrBufB)
	rw(unixemu.SysWrite, 7, addrBufB)
	rw(unixemu.SysRead, 6, addrBufA)
	b.SubL(m68k.Imm(1), m68k.D(5))
	b.Bne("loop")
	mark(b)
	progExit(b)
}
