// Network echo: boot both kernels, open a loopback socket pair
// (ports 5 <-> 9), bounce a datagram through the full stack and
// report the per-packet cost — the synthesized Synthesis path (frames
// DMA through the memory-mapped NIC, the receive interrupt deposits
// into the destination socket's optimistic queue) against the generic
// layered baseline (descriptor validation, table-scan demultiplexing
// and a sleep-locked ring on every call).
//
//	go run ./examples/netecho
package main

import (
	"fmt"
	"os"

	"synthesis/internal/asmkit"
	"synthesis/internal/bench"
	"synthesis/internal/kernel"
	"synthesis/internal/m68k"
	"synthesis/internal/unixemu"
)

const (
	wbuf    = 0xB000 // the outbound message
	rbuf    = 0xD000 // where the echo lands
	rounds  = 50
	message = "Hello, Quamachine!"
)

// buildEcho emits the echo program against the UNIX trap convention
// (identical binary for both kernels): open the pair, then rounds
// times send the message 5->9, receive it on 9, send it back 9->5 and
// receive the echo on 5, with marks around the loop.
func buildEcho(b *asmkit.Builder) {
	call := func(no int32) {
		b.MoveL(m68k.Imm(no), m68k.D(0))
		b.Trap(0)
	}
	xfer := func(fdReg int, sysno int32, buf int32) {
		b.MoveL(m68k.D(uint8(fdReg)), m68k.D(1))
		b.MoveL(m68k.Imm(buf), m68k.D(2))
		b.MoveL(m68k.Imm(int32(len(message))), m68k.D(3))
		call(sysno)
	}
	b.MoveL(m68k.Imm(5), m68k.D(1))
	b.MoveL(m68k.Imm(9), m68k.D(2))
	call(unixemu.SysSocket)
	b.MoveL(m68k.D(0), m68k.D(6))
	b.MoveL(m68k.Imm(9), m68k.D(1))
	b.MoveL(m68k.Imm(5), m68k.D(2))
	call(unixemu.SysSocket)
	b.MoveL(m68k.D(0), m68k.D(7))
	b.Kcall(m68k.SvcMark)
	b.MoveL(m68k.Imm(rounds), m68k.D(5))
	b.Label("loop")
	xfer(6, unixemu.SysWrite, wbuf) // 5 -> 9
	xfer(7, unixemu.SysRead, rbuf)
	xfer(7, unixemu.SysWrite, rbuf) // echo 9 -> 5
	xfer(6, unixemu.SysRead, rbuf)
	b.SubL(m68k.Imm(1), m68k.D(5))
	b.Bne("loop")
	b.Kcall(m68k.SvcMark)
	b.MoveL(m68k.Imm(0), m68k.D(1))
	call(unixemu.SysExit)
}

// run executes the echo program on a rig and returns the per-packet
// microseconds (four packets cross the stack per round trip... two
// datagrams, each sent and received once).
func run(r bench.Rig) (float64, error) {
	m := r.Machine()
	for i, c := range []byte(message) {
		m.Poke(uint32(wbuf)+uint32(i), 1, uint32(c))
	}
	b := asmkit.New()
	buildEcho(b)
	entry := b.Link(m)
	if err := r.Run(entry, 4_000_000_000); err != nil {
		return 0, fmt.Errorf("%s: %w", r.Name(), err)
	}
	marks := m.MarkMicros()
	if len(marks) != 1 {
		return 0, fmt.Errorf("%s: %d marked intervals, want 1", r.Name(), len(marks))
	}
	echoed := make([]byte, len(message))
	for i := range echoed {
		echoed[i] = byte(m.Peek(uint32(rbuf)+uint32(i), 1))
	}
	if string(echoed) != message {
		return 0, fmt.Errorf("%s: echoed %q, want %q", r.Name(), echoed, message)
	}
	return marks[0] / (2 * rounds), nil
}

func main() {
	fmt.Printf("echoing %q over the loopback pair 5 <-> 9, %d round trips\n\n", message, rounds)

	synth, err := run(bench.NewSynthRig(kernel.Config{}))
	if err != nil {
		fmt.Fprintln(os.Stderr, "netecho:", err)
		os.Exit(1)
	}
	fmt.Printf("synthesis (synthesized sockets, NIC DMA + rx interrupt): %7.1f usec/packet\n", synth)

	sun, err := run(bench.NewSunRig())
	if err != nil {
		fmt.Fprintln(os.Stderr, "netecho:", err)
		os.Exit(1)
	}
	fmt.Printf("sunos baseline (generic layers, no NIC in the path):     %7.1f usec/packet\n", sun)
	fmt.Printf("\nspeedup: %.2fx — the open-time synthesis pays off per packet\n", sun/synth)
}
