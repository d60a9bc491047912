// Audio: the Section 5.4 workload — the A/D converter interrupts the
// machine 44,100 times per second and the synthesized handler packs
// eight samples per queue element, so the per-sample cost is a couple
// of instructions. A reader thread drains whole elements through the
// synthesized /dev/ad read and computes a running peak level, all on
// the simulated machine.
//
//	go run ./examples/audio
package main

import (
	"fmt"
	"log"

	"synthesis/internal/kernel"
	"synthesis/internal/kio"
	"synthesis/internal/m68k"
	"synthesis/internal/synth"
	"synthesis/internal/unixemu"
)

func main() {
	// The 44.1 kHz sampler is the paper's native-mode workload: run
	// the Quamachine at its full 50 MHz so the handler keeps up.
	k := kernel.Boot(kernel.Config{Machine: m68k.NativeConfig(), ChargeSynthesis: true})
	io := kio.Install(k)
	unixemu.Install(k)

	const (
		nameAddr = 0xA000
		buf      = 0xB000
		peakCell = 0x9000
		sumCell  = 0x9004
		gotCell  = 0x9008
		chunks   = 64 // read 64 elements = 512 samples (~11.6 ms of audio)
	)
	for i, c := range []byte("/dev/ad\x00") {
		k.M.Poke(nameAddr+uint32(i), 1, uint32(c))
	}

	prog := k.C.Synthesize(nil, "audio", nil, func(e *synth.Emitter) {
		e.MoveL(m68k.Imm(kernel.SysOpen), m68k.D(0))
		e.MoveL(m68k.Imm(nameAddr), m68k.D(1))
		e.Trap(kernel.TrapSys)
		// Start the sampler.
		e.MoveL(m68k.Imm(1), m68k.Abs(m68k.ADBase+m68k.ADRegCtl))
		e.Kcall(kernel.SvcMark)
		// Drain `chunks` elements, folding a peak detector over the
		// channel-0 samples.
		e.MoveL(m68k.Imm(chunks*32), m68k.D(6)) // bytes wanted
		e.Label("more")
		e.MoveL(m68k.Imm(buf), m68k.D(1))
		e.MoveL(m68k.D(6), m68k.D(2))
		e.Trap(kernel.TrapRead + 0)
		e.SubL(m68k.D(0), m68k.D(6))
		// Scan what arrived: D0 bytes at buf.
		e.Lea(m68k.Abs(buf), 0)
		e.LsrL(m68k.Imm(2), m68k.D(0)) // samples
		e.Beq("checkdone")
		e.SubL(m68k.Imm(1), m68k.D(0))
		e.Label("scan")
		e.MoveL(m68k.PostInc(0), m68k.D(1))
		e.LsrL(m68k.Imm(16), m68k.D(1)) // channel 0
		e.AddL(m68k.Imm(1), m68k.Abs(gotCell))
		e.AddL(m68k.D(1), m68k.Abs(sumCell))
		e.Cmp(4, m68k.Abs(peakCell), m68k.D(1))
		e.Bls("nopeak")
		e.MoveL(m68k.D(1), m68k.Abs(peakCell))
		e.Label("nopeak")
		e.Dbra(0, "scan")
		e.Label("checkdone")
		e.TstL(m68k.D(6))
		e.Bne("more")
		e.Kcall(kernel.SvcMark)
		// Stop the sampler and exit.
		e.MoveL(m68k.Imm(0), m68k.Abs(m68k.ADBase+m68k.ADRegCtl))
		e.MoveL(m68k.Imm(kernel.SysExit), m68k.D(0))
		e.Trap(kernel.TrapSys)
	})
	th := k.SpawnKernel("audio", prog)
	k.Start(th)
	if err := k.Run(5_000_000_000); err != nil {
		log.Fatal(err)
	}

	d := k.M.MarkMicros()
	samples := k.M.Peek(0x9008, 4)
	fmt.Println("A/D buffered-queue audio capture (simulated SUN 3/160):")
	fmt.Printf("  %d samples captured in %.1f ms simulated (rate %.0f Hz; device nominal 44100)\n",
		samples, d[0]/1000, float64(samples)/(d[0]/1e6))
	fmt.Printf("  channel-0 peak %d, mean %.1f\n",
		k.M.Peek(0x9000, 4), float64(k.M.Peek(0x9004, 4))/float64(samples))
	fmt.Printf("  elements completed by the interrupt handler: %d (blocking factor %d)\n",
		io.ADQ().Completed(k.M), kio.ADBlockingFactor)
	fmt.Printf("  samples dropped by the device: %d\n", k.AD.Dropped)
}
