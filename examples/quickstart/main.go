// Quickstart: boot a Synthesis kernel on the simulated Quamachine,
// create a file, and watch open synthesize the read/write routines
// that later calls jump straight into.
//
//	go run ./examples/quickstart
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
	// Boot at the paper's SUN 3/160 emulation point: 16 MHz, one
	// memory wait state, code-synthesis time charged to the machine
	// clock.
	k := kernel.Boot(kernel.Config{
		Machine:         m68k.Sun3Config(),
		ChargeSynthesis: true,
	})
	kio.Install(k)
	unixemu.Install(k)

	if _, err := k.FS.CreateSized("/notes/hello", []byte("hello from the synthesis kernel\n"), 256); err != nil {
		log.Fatal(err)
	}

	// Stage the file name and a buffer in machine memory.
	const nameAddr, buf = 0xA000, 0xB000
	for i, c := range []byte("/notes/hello\x00") {
		k.M.Poke(nameAddr+uint32(i), 1, uint32(c))
	}

	// A program using native Synthesis calls: open (which synthesizes
	// the read), read, close, exit — with microsecond marks around
	// each step.
	prog := k.C.Synthesize(nil, "main", nil, func(e *synth.Emitter) {
		e.Kcall(kernel.SvcMark)
		e.MoveL(m68k.Imm(kernel.SysOpen), m68k.D(0))
		e.MoveL(m68k.Imm(nameAddr), m68k.D(1))
		e.Trap(kernel.TrapSys)
		e.Kcall(kernel.SvcMark)

		e.Kcall(kernel.SvcMark)
		e.MoveL(m68k.Imm(buf), m68k.D(1))
		e.MoveL(m68k.Imm(64), m68k.D(2))
		e.Trap(kernel.TrapRead + 0)
		e.Kcall(kernel.SvcMark)
		e.MoveL(m68k.D(0), m68k.D(5))

		e.Kcall(kernel.SvcMark)
		e.MoveL(m68k.Imm(kernel.SysClose), m68k.D(0))
		e.MoveL(m68k.Imm(0), m68k.D(1))
		e.Trap(kernel.TrapSys)
		e.Kcall(kernel.SvcMark)

		e.MoveL(m68k.Imm(kernel.SysExit), m68k.D(0))
		e.Trap(kernel.TrapSys)
	})
	th := k.SpawnKernel("main", prog)
	k.Start(th)
	if err := k.Run(50_000_000); err != nil {
		log.Fatal(err)
	}

	d := k.M.MarkMicros()
	fmt.Println("Synthesis quickstart (simulated SUN 3/160):")
	fmt.Printf("  open  (name lookup + code synthesis): %6.2f usec\n", d[0])
	fmt.Printf("  read  (open-specialized routine):     %6.2f usec\n", d[1])
	fmt.Printf("  close:                                %6.2f usec\n", d[2])
	fmt.Printf("  file contents: %q\n", string(k.M.PeekBytes(buf, 32)))
	fmt.Printf("  machine: %d instructions, %d memory references, %.0f usec simulated\n",
		k.M.Instrs, k.M.MemRefs, k.M.Now())

	// Show what open synthesized for this thread.
	fmt.Println("\nsynthesized read routine (installed in the thread's trap vector):")
	addr := th.Q.Entries["file_read"]
	fmt.Print(m68k.Disassemble(k.M.Code, addr, 12))
}
