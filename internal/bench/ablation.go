package bench

import (
	"fmt"

	"synthesis/internal/asmkit"
	"synthesis/internal/kernel"
	"synthesis/internal/m68k"
	"synthesis/internal/synth"
	"synthesis/internal/unixemu"
)

// Ablations: each isolates one design choice DESIGN.md calls out and
// measures both sides on the same machine: (1) a synthesized against
// the generic 1 KB file read; (2) the executable ready queue against a
// traditional swtch(); (3) the lazy FP context, the FP-carrying switch
// being what every thread would pay without the line-F resynthesis;
// (4) the buffered against the unbuffered A/D handler; (5) the
// collapsed against the layered cooked tty read; (6) fine-grain
// scheduling, adaptive against fixed quanta for a pipe transfer
// competing with a compute-bound thread; (7) env binding, constants
// against cells: the path length of the same template (the row names
// are the golden table's; the optimizer removes nothing from either
// variant).
func ablations(mt *meter) []Row {
	readUS := mt.one(synthRig(), bracket(addrNameFile, func(b *asmkit.Builder) { nativeRead(b, 0, addrBufB, 1024) }))
	sunReadUS := mt.one(NewSunRig(), sunFileRead1K)
	swSynth := switchBetween(mt, false)
	sun := NewSunRig()
	swSun := mt.one(sun, bracket(0, func(b *asmkit.Builder) {
		b.MoveL(m68k.Imm(1), m68k.D(1))
		b.MoveL(m68k.Imm(1), m68k.D(2))
		b.Jsr(sun.K.SwitchRoutine())
	}))
	swFP := switchBetween(mt, true)
	rig := synthRig()
	unbuf := rig.IO.SynthUnbufferedADHandler()
	ad := mt.run(rig, 2, func(b *asmkit.Builder) {
		fakeFrameCall(b, rig.IO.ADIntHandler(), "r1")
		fakeFrameCall(b, unbuf, "r2")
		progExit(b)
	})
	collapsed, layered := cookedRead(mt, false), cookedRead(mt, true)
	fgOn, fgOff := fineGrainPipe(mt, true), fineGrainPipe(mt, false)
	onUS, offUS, onLen, offLen := constVsCellBinding(mt)
	return []Row{
		{"read 1 KB: synthesized (Synthesis)", 0, readUS, "usec", "open-specialized routine, folded cache address"},
		{"read 1 KB: generic layers (baseline)", 0, sunReadUS, "usec",
			fmt.Sprintf("getf+f_ops+readi+bread+uiomove; %.1fx", sunReadUS/readUS)},
		{"context switch: executable ready queue", 0, swSynth, "usec", "jmp-chained sw_out/sw_in"},
		{"context switch: traditional swtch()", 0, swSun, "usec",
			fmt.Sprintf("full save + proc-table copy + run-queue scan + eager FP; %.1fx", swSun/swSynth)},
		{"switch without FP context (lazy default)", 0, swSynth, "usec", ""},
		{"switch with FP context (post-upgrade)", 0, swFP, "usec",
			fmt.Sprintf("the cost non-FP threads avoid: %.1f usec", swFP-swSynth)},
		{"A/D interrupt: buffered queue (factor 8)", 0, ad[0], "usec", "per-sample fast path"},
		{"A/D interrupt: unbuffered (factor 1)", 0, ad[1], "usec",
			fmt.Sprintf("full queue advance every sample; %.1fx", ad[1]/ad[0])},
		{"cooked tty read: collapsed layers", 0, collapsed, "usec", "get-character inlined (boot-time optimization)"},
		{"cooked tty read: layered", 0, layered, "usec",
			fmt.Sprintf("jsr to the raw server per character; %.1fx", layered/collapsed)},
		{"64 KB pipe transfer, fine-grain scheduling", 0, fgOn, "usec", "I/O threads earn larger quanta from their gauges"},
		{"64 KB pipe transfer, fixed quanta", 0, fgOff, "usec",
			fmt.Sprintf("equal 500 usec round-robin slices; %.2fx", fgOff/fgOn)},
		{"32 B element put, invariants folded + optimized", 0, onUS, "usec", fmt.Sprintf("%d instructions", onLen)},
		{"32 B element put, cell-bound + unoptimized", 0, offUS, "usec", fmt.Sprintf("%d instructions", offLen)},
	}
}

// sunFileRead1K is the baseline's generic 1 KB read (cache warm).
func sunFileRead1K(b *asmkit.Builder) {
	b.MoveL(m68k.Imm(addrNameFile), m68k.D(1))
	unixCall(b, unixemu.SysOpen)
	// Warm the buffer cache with one untimed read.
	b.MoveL(m68k.Imm(0), m68k.D(1))
	b.MoveL(m68k.Imm(addrBufB), m68k.D(2))
	b.MoveL(m68k.Imm(1024), m68k.D(3))
	unixCall(b, unixemu.SysRead)
	b.MoveL(m68k.Imm(0), m68k.D(1))
	b.MoveL(m68k.Imm(0), m68k.D(2))
	unixCall(b, unixemu.SysLseek) // rewind
	mark(b)
	b.MoveL(m68k.Imm(0), m68k.D(1))
	b.MoveL(m68k.Imm(addrBufB), m68k.D(2))
	b.MoveL(m68k.Imm(1024), m68k.D(3))
	unixCall(b, unixemu.SysRead)
	mark(b)
	progExit(b)
}

// cookedRead measures one cooked line read through the collapsed or
// the layered filter. The layered routine is installed on a
// descriptor slot that open never touches (the line discipline keeps
// no per-descriptor state).
func cookedRead(mt *meter, layered bool) float64 {
	rig := synthRig()
	k := rig.K
	k.TTY.InputString("hello, tty\n", 0, 0)
	name, fd := uint32(addrNameTTY), 0 // fd 0: collapsed cooked read
	if layered {
		name, fd = 0, 9
	}
	b := asmkit.New()
	bracket(name, func(b *asmkit.Builder) { nativeRead(b, fd, addrBufB, 64) })(b)
	th := k.SpawnKernel("bench", b.Link(k.M))
	if layered {
		k.M.Poke(th.TTE+kernel.TTEVec+uint32(m68k.VecTrapBase+kernel.TrapRead+9)*4, 4, rig.IO.SynthLayeredCookedRead(th))
	}
	return mt.runThread(k, th, 1)[0]
}

// constVsCellBinding compares the quaject creator's factorization
// against the same template bound to run-time cells: a block-copy
// routine whose geometry (source, length in 32-byte groups) is either
// folded in as constants or fetched from memory each call. This is the
// specialization the open path performs on every read routine it
// synthesizes.
func constVsCellBinding(mt *meter) (onUS, offUS float64, onLen, offLen int) {
	rig := synthRig()
	k := rig.K
	cells, _ := k.Heap.Alloc(16)
	k.M.Poke(cells, 4, addrBufA) // source
	k.M.Poke(cells+4, 4, 1)      // groups: one 32-byte element per call
	// The template bypasses the loop machinery entirely when the
	// group count is invariant — Factoring Invariants changes the
	// shape of the code, not just its operands.
	tmpl := func(e *synth.Emitter) {
		e.LeaHole("src", 0)
		e.Lea(m68k.Abs(addrBufB), 1)
		if e.IsConst("groups") {
			for g := uint32(0); g < e.ConstVal("groups"); g++ {
				for i := 0; i < 8; i++ {
					e.MoveL(m68k.PostInc(0), m68k.PostInc(1))
				}
			}
		} else {
			e.LoadHole("groups", m68k.D(0))
			e.SubL(m68k.Imm(1), m68k.D(0))
			e.Label("cp")
			for i := 0; i < 8; i++ {
				e.MoveL(m68k.PostInc(0), m68k.PostInc(1))
			}
			e.Dbra(0, "cp")
		}
		e.Rts()
	}
	genericEnv := synth.Env{"src": synth.CellAt(cells), "groups": synth.CellAt(cells + 4)}
	constEnv := synth.Env{"src": synth.ConstOf(addrBufA), "groups": synth.ConstOf(1)}

	generic := k.C.Synthesize(nil, "copy_generic", genericEnv, tmpl)
	offLen = k.C.LastStats.InstrsAfter
	special := k.C.Synthesize(nil, "copy_special", constEnv, tmpl)
	onLen = k.C.LastStats.InstrsAfter

	// A short routine called often is where specialization pays:
	// time 64 calls of each variant.
	d := mt.run(rig, 2, func(b *asmkit.Builder) {
		callLoop := func(target uint32, label string) {
			b.MoveL(m68k.Imm(63), m68k.D(7))
			b.Label(label)
			b.Jsr(target)
			b.Dbra(7, label)
		}
		mark(b)
		callLoop(special, "ls")
		mark(b)
		mark(b)
		callLoop(generic, "lg")
		mark(b)
		progExit(b)
	})
	return d[0] / 64, d[1] / 64, onLen, offLen
}

// fineGrainPipe measures a cross-thread pipe transfer competing with
// a compute-bound thread, with and without the fine-grain scheduler's
// quantum adaptation (Section 4.4): when the policy sees the I/O rate
// it grows the pipe threads' quanta, so the transfer loses less time
// to the compute thread's round-robin slices.
func fineGrainPipe(mt *meter, adaptive bool) float64 {
	rig := synthRig()
	k := rig.K
	io := rig.IO

	// A deep pipe keeps both stream threads runnable most of the
	// time, so CPU time is genuinely contended with the compute
	// thread and the quantum assignment is what decides the transfer
	// time.
	const total = 64 * 1024
	const chunk = 1024
	p := io.NewPipe(16 * 1024)

	writer := k.C.Synthesize(nil, "writer", nil, func(e *synth.Emitter) {
		e.Kcall(kernel.SvcMark)
		e.MoveL(m68k.Imm(total/chunk), m68k.D(5))
		e.Label("loop")
		e.MoveL(m68k.Imm(addrBufA), m68k.D(1))
		e.MoveL(m68k.Imm(chunk), m68k.D(2))
		e.Trap(kernel.TrapWrite + 0)
		e.SubL(m68k.Imm(1), m68k.D(5))
		e.Bne("loop")
		e.MoveL(m68k.Imm(kernel.SysExit), m68k.D(0))
		e.Trap(kernel.TrapSys)
	})
	reader := k.C.Synthesize(nil, "reader", nil, func(e *synth.Emitter) {
		e.MoveL(m68k.Imm(total), m68k.D(5))
		e.Label("loop")
		e.MoveL(m68k.Imm(addrBufB), m68k.D(1))
		e.MoveL(m68k.Imm(chunk), m68k.D(2))
		e.Trap(kernel.TrapRead + 0)
		e.SubL(m68k.D(0), m68k.D(5))
		e.Bne("loop")
		e.Kcall(kernel.SvcMark)
		e.MoveL(m68k.Imm(kernel.SysExit), m68k.D(0))
		e.Trap(kernel.TrapSys)
	})
	compute := k.C.Synthesize(nil, "compute", nil, func(e *synth.Emitter) {
		e.Label("loop")
		e.AddL(m68k.Imm(1), m68k.D(3))
		e.Bra("loop")
	})

	tw := k.SpawnKernel("writer", writer)
	tr := k.SpawnKernel("reader", reader)
	k.SpawnKernel("compute", compute)
	if io.OpenPipeEnd(tw, p, true) != 0 || io.OpenPipeEnd(tr, p, false) != 0 {
		mt.fail(fmt.Errorf("finegrain: pipe ends not descriptor 0"))
	}
	if adaptive {
		k.OnAlarm(2000, k.Adapt)
	}
	k.Start(tw)
	for mt.err == nil && len(k.M.Marks) < 2 {
		err := k.Run(5_000_000)
		if err == nil {
			break // halted: both exited
		}
		if err != m68k.ErrCycleLimit {
			mt.fail(err)
		} else if k.M.Cycles > 5_000_000_000 {
			mt.fail(fmt.Errorf("finegrain: transfer never completed"))
		}
	}
	return mt.marks(k.M, 1)[0]
}
