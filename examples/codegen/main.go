// Codegen: watch the quaject creator work. The same code template is
// instantiated twice — once with its holes bound to memory cells (the
// generic kernel routine a traditional system would ship) and once
// with the invariants bound to constants, which the template folds
// into its code as it is emitted (what the Synthesis open
// synthesizes) — and both versions run on the Quamachine so the cycle
// counts are directly comparable.
//
//	go run ./examples/codegen
package main

import (
	"errors"
	"fmt"
	"math/bits"
	"os"

	"synthesis/internal/asmkit"
	"synthesis/internal/m68k"
	"synthesis/internal/synth"
)

func main() {
	m := m68k.New(m68k.Sun3Config())
	stub := m.Emit([]m68k.Instr{{Op: m68k.HALT}})
	m.VBR = 0x100
	for v := 0; v < m68k.NumVectors; v++ {
		m.Poke(m.VBR+uint32(v)*4, 4, stub)
	}
	m.A[7] = 0x8000
	m.SSP = 0x8000
	c := synth.NewCreator(m)

	// Parameter cells for the generic instantiation.
	const cells = 0x4000
	m.Poke(cells+0, 4, 0x5000) // buffer address
	m.Poke(cells+4, 4, 16)     // element count
	m.Poke(cells+8, 4, 3)      // scale factor
	for i := uint32(0); i < 16; i++ {
		m.Poke(0x5000+i*4, 4, i+1)
	}

	// The template: sum scale*buf[i] over the elements. Factoring
	// Invariants happens here, as in the kernel's own templates: a
	// constant count is decremented before it is emitted, and a
	// constant power-of-two scale makes the multiply a shift.
	tmpl := func(e *synth.Emitter) {
		e.LeaHole("buf", 0)
		e.Clr(4, m68k.D(0)) // sum
		if e.IsConst("count") {
			e.MoveL(m68k.Imm(int32(e.ConstVal("count"))-1), m68k.D(1))
		} else {
			e.LoadHole("count", m68k.D(1))
			e.SubL(m68k.Imm(1), m68k.D(1))
		}
		e.Label("loop")
		e.MoveL(m68k.PostInc(0), m68k.D(2))
		if e.IsConst("scale") && bits.OnesCount32(e.ConstVal("scale")) == 1 {
			e.LslL(m68k.Imm(int32(bits.TrailingZeros32(e.ConstVal("scale")))), m68k.D(2))
		} else {
			e.Mulu(e.HoleOperand("scale"), m68k.D(2))
		}
		e.AddL(m68k.D(2), m68k.D(0))
		e.Dbra(1, "loop")
		e.Rts()
	}

	generic := synth.Env{
		"buf":   synth.CellAt(cells + 0),
		"count": synth.CellAt(cells + 4),
		"scale": synth.CellAt(cells + 8),
	}
	special := synth.Env{
		"buf":   synth.ConstOf(0x5000),
		"count": synth.ConstOf(16),
		"scale": synth.ConstOf(4), // power of two: the multiply becomes a shift
	}

	gAddr := c.Synthesize(nil, "sum_generic", generic, tmpl)
	gStats := c.LastStats
	sAddr := c.Synthesize(nil, "sum_special", special, tmpl)
	sStats := c.LastStats

	fmt.Println("generic instantiation (holes bound to memory cells):")
	fmt.Print(m68k.Disassemble(m.Code, gAddr, gStats.InstrsAfter))
	fmt.Printf("  %d instructions, %d bytes\n\n", gStats.InstrsAfter, gStats.BytesAfter)

	fmt.Println("specialized instantiation (invariants folded by the template):")
	fmt.Print(m68k.Disassemble(m.Code, sAddr, sStats.InstrsAfter))
	fmt.Printf("  %d instructions, %d bytes\n\n", sStats.InstrsAfter, sStats.BytesAfter)

	run := func(addr uint32) (uint32, uint64) {
		b := asmkit.New()
		b.Jsr(addr)
		b.Halt()
		entry := b.Link(m)
		m.ClearHalt()
		m.PC = entry
		start := m.Cycles
		if err := m.Run(1_000_000); !errors.Is(err, m68k.ErrHalted) {
			panic(err)
		}
		return m.D[0], m.Cycles - start
	}
	// Scale cell says 3, the specialized one folded 4: align them.
	m.Poke(cells+8, 4, 4)
	gSum, gCycles := run(gAddr)
	sSum, sCycles := run(sAddr)
	fmt.Printf("generic:     sum=%d in %d cycles (%.2f usec at 16 MHz)\n", gSum, gCycles, m.Micros(gCycles))
	fmt.Printf("specialized: sum=%d in %d cycles (%.2f usec at 16 MHz)\n", sSum, sCycles, m.Micros(sCycles))
	speedup := float64(gCycles) / float64(sCycles)
	fmt.Printf("speedup: %.2fx for identical results\n", speedup)
	if gSum != sSum || speedup < 2 {
		fmt.Println("FAIL: want equal sums and at least 2x")
		os.Exit(1)
	}
}
