// Network echo: run the bench list's socket echo, one 64-byte datagram
// bounced over a loopback socket pair (ports 5 <-> 9), on both kernels
// and report the per-packet cost — the synthesized Synthesis path
// (frames DMA through the memory-mapped NIC, the receive interrupt
// deposits into the destination socket's optimistic queue) against the
// generic layered baseline (descriptor validation, table-scan
// demultiplexing and a sleep-locked ring on every call).
//
//	go run ./examples/netecho
package main

import (
	"fmt"
	"os"

	"synthesis/internal/asmkit"
	"synthesis/internal/bench"
	"synthesis/internal/kernel"
)

const (
	program            = "sock echo 64 B"
	sent, echoed, size = 0xB000, 0xD000, 64 // the rigs' two scratch buffers; the datagram
)

// run runs the echo on r and returns its microseconds per packet: a
// round trip, one of the program's loops, is two datagrams, each sent
// and received once.
func run(r bench.Rig) (float64, error) {
	build, rounds, _, err := bench.Program(program)
	if err != nil {
		return 0, err
	}
	m := r.Machine()
	b := asmkit.New()
	build(b)
	if err := r.Run(bench.Link(m, b), 4_000_000_000); err != nil {
		return 0, fmt.Errorf("%s: %w", r.Name(), err)
	}
	marks := m.MarkMicros()
	if len(marks) != 1 {
		return 0, fmt.Errorf("%s: %d marked intervals, want 1", r.Name(), len(marks))
	}
	for i := uint32(0); i < size; i++ {
		if m.Peek(echoed+i, 1) != m.Peek(sent+i, 1) {
			return 0, fmt.Errorf("%s: byte %d echoed to %#x differs from the one sent from %#x",
				r.Name(), i, echoed, sent)
		}
	}
	return marks[0] / float64(2*rounds), nil
}

func main() {
	fmt.Printf("running %q over the loopback pair 5 <-> 9\n\n", program)
	synth := must(run(bench.NewSynthRig(kernel.Config{})))
	fmt.Printf("synthesis (synthesized sockets, NIC DMA + rx interrupt): %7.1f usec/packet\n", synth)
	sun := must(run(bench.NewSunRig()))
	fmt.Printf("sunos baseline (generic layers, no NIC in the path):     %7.1f usec/packet\n", sun)
	fmt.Printf("\nspeedup: %.2fx — the open-time synthesis pays off per packet\n", sun/synth)
}

// must exits nonzero on a failed run or self-check.
func must(us float64, err error) float64 {
	if err != nil {
		fmt.Fprintln(os.Stderr, "netecho:", err)
		os.Exit(1)
	}
	return us
}
