package cluster

import (
	"synthesis/internal/asmkit"
	"synthesis/internal/m68k"
	"synthesis/internal/net"
	"synthesis/internal/unixemu"
)

// Guest scratch buffers: one per echo thread, below the kernel heap
// (the same region the bench programs use for their staging buffers).
const (
	guestBufBase   = 0xB000
	guestBufStride = 0x100 // > net.MTU, one slot per socket
)

// buildEchoThread emits one echo server thread against the UNIX trap
// convention: open the socket (local -> reply), then read/write
// forever. The socket open synthesizes this thread's send and recv
// routines with the ports folded in as immediates — the guest code
// here is the only generic part of the path.
//
// With churnEvery > 0 the thread closes and reopens its socket after
// that many echoes, exercising the demux patch (each open and close
// rewrites its socket's compare cell in the receive handler) under
// live fleet traffic. A
// failed open (port still open, descriptors or the socket table full;
// sockets take no heap) exits the thread rather than spinning on a bad
// fd.
func buildEchoThread(b *asmkit.Builder, local, reply, buf uint32, churnEvery int32) {
	call := func(no int32) {
		b.MoveL(m68k.Imm(no), m68k.D(0))
		b.Trap(0)
	}
	b.Label("open")
	b.MoveL(m68k.Imm(int32(local)), m68k.D(1))
	b.MoveL(m68k.Imm(int32(reply)), m68k.D(2))
	call(unixemu.SysSocket)
	b.TstL(m68k.D(0))
	b.Bmi("exit") // open failed: fd = -1
	b.MoveL(m68k.D(0), m68k.D(6))
	if churnEvery > 0 {
		b.MoveL(m68k.Imm(churnEvery), m68k.D(5))
	}
	b.Label("loop")
	// Read one datagram: D0 returns the payload length.
	b.MoveL(m68k.D(6), m68k.D(1))
	b.MoveL(m68k.Imm(int32(buf)), m68k.D(2))
	b.MoveL(m68k.Imm(net.MTU), m68k.D(3))
	call(unixemu.SysRead)
	b.MoveL(m68k.D(0), m68k.D(4))
	// Echo it back at the same length.
	b.MoveL(m68k.D(6), m68k.D(1))
	b.MoveL(m68k.Imm(int32(buf)), m68k.D(2))
	b.MoveL(m68k.D(4), m68k.D(3))
	call(unixemu.SysWrite)
	if churnEvery > 0 {
		b.SubL(m68k.Imm(1), m68k.D(5))
		b.Bne("loop")
		b.MoveL(m68k.D(6), m68k.D(1))
		call(unixemu.SysClose)
		b.Bra("open")
	} else {
		b.Bra("loop")
	}
	b.Label("exit")
	b.MoveL(m68k.Imm(0), m68k.D(1))
	call(unixemu.SysExit)
}
