package bench

import (
	"fmt"

	"synthesis/internal/asmkit"
	"synthesis/internal/kernel"
	"synthesis/internal/m68k"
	"synthesis/internal/synth"
)

// Ablations: each isolates one design choice DESIGN.md calls out and
// measures both sides on the same machine.

// Ablations runs the full ablation suite.
func Ablations() (Table, error) {
	t := Table{
		Title: "Ablations: Synthesis design choices isolated",
		Note:  "pairs of measurements at the SUN 3/160 point (paper column empty: these are ours)",
	}
	add := func(name string, measured float64, note string) {
		t.Rows = append(t.Rows, Row{Name: name, Measured: measured, Unit: "usec", Note: note})
	}

	// 1. Synthesized vs generic 1 KB file read on identical hardware.
	synthUS, err := measureSynth(func(b *asmkit.Builder) {
		nativeOpen(b, addrNameFile)
		mark(b)
		nativeRead(b, 0, addrBufB, 1024)
		mark(b)
		progExit(b)
	})
	if err != nil {
		return t, err
	}
	sunUS, err := sunFileRead1K()
	if err != nil {
		return t, err
	}
	add("read 1 KB: synthesized (Synthesis)", synthUS, "open-specialized routine, folded cache address")
	add("read 1 KB: generic layers (baseline)", sunUS,
		fmt.Sprintf("getf+f_ops+readi+bread+uiomove; %.1fx", sunUS/synthUS))

	// 2. Executable ready queue vs traditional swtch().
	swSynth, err := switchBetween(false)
	if err != nil {
		return t, err
	}
	swSun, err := sunSwitch()
	if err != nil {
		return t, err
	}
	add("context switch: executable ready queue", swSynth, "jmp-chained sw_out/sw_in")
	add("context switch: traditional swtch()", swSun,
		fmt.Sprintf("full save + proc-table copy + run-queue scan + eager FP; %.1fx", swSun/swSynth))

	// 3. Lazy vs eager FP context: the FP-carrying switch is what
	// every thread would pay without the line-F resynthesis.
	swFP, err := switchBetween(true)
	if err != nil {
		return t, err
	}
	add("switch without FP context (lazy default)", swSynth, "")
	add("switch with FP context (post-upgrade)", swFP,
		fmt.Sprintf("the cost non-FP threads avoid: %.1f usec", swFP-swSynth))

	// 4. Buffered vs unbuffered A/D interrupt handler.
	bufUS, unbufUS, err := adHandlers()
	if err != nil {
		return t, err
	}
	add("A/D interrupt: buffered queue (factor 8)", bufUS, "per-sample fast path")
	add("A/D interrupt: unbuffered (factor 1)", unbufUS,
		fmt.Sprintf("full queue advance every sample; %.1fx", unbufUS/bufUS))

	// 5. Collapsed vs layered cooked tty read.
	colUS, layUS, err := cookedVariants()
	if err != nil {
		return t, err
	}
	add("cooked tty read: collapsed layers", colUS, "get-character inlined (boot-time optimization)")
	add("cooked tty read: layered", layUS,
		fmt.Sprintf("jsr to the raw server per character; %.1fx", layUS/colUS))

	// 6. Fine-grain scheduling: adaptive quanta vs fixed quanta for a
	// pipe transfer competing with a compute-bound thread.
	fgOn, err := FineGrainPipe(true)
	if err != nil {
		return t, err
	}
	fgOff, err := FineGrainPipe(false)
	if err != nil {
		return t, err
	}
	add("64 KB pipe transfer, fine-grain scheduling", fgOn, "I/O threads earn larger quanta from their gauges")
	add("64 KB pipe transfer, fixed quanta", fgOff,
		fmt.Sprintf("equal 500 usec round-robin slices; %.2fx", fgOff/fgOn))

	// 7. Env binding, constants against cells: path length of the same
	// template. The row names are the golden table's; the optimizer
	// removes nothing from either variant.
	onUS, offUS, onLen, offLen, err := constVsCellBinding()
	if err != nil {
		return t, err
	}
	add("32 B element put, invariants folded + optimized", onUS, fmt.Sprintf("%d instructions", onLen))
	add("32 B element put, cell-bound + unoptimized", offUS, fmt.Sprintf("%d instructions", offLen))

	return t, nil
}

// sunFileRead1K measures the baseline's generic 1 KB read (cache
// warm).
func sunFileRead1K() (float64, error) {
	d, err := runMarks(NewSunRig(), 100_000_000, 1, func(b *asmkit.Builder) {
		b.MoveL(m68k.Imm(addrNameFile), m68k.D(1))
		unixCall(b, 5)
		// Warm the buffer cache with one untimed read.
		b.MoveL(m68k.Imm(0), m68k.D(1))
		b.MoveL(m68k.Imm(addrBufB), m68k.D(2))
		b.MoveL(m68k.Imm(1024), m68k.D(3))
		unixCall(b, 3)
		b.MoveL(m68k.Imm(0), m68k.D(1))
		b.MoveL(m68k.Imm(0), m68k.D(2))
		unixCall(b, 19) // rewind
		mark(b)
		b.MoveL(m68k.Imm(0), m68k.D(1))
		b.MoveL(m68k.Imm(addrBufB), m68k.D(2))
		b.MoveL(m68k.Imm(1024), m68k.D(3))
		unixCall(b, 3)
		mark(b)
		progExit(b)
	})
	return d[0], err
}

// sunSwitch measures the baseline's full context switch round trip.
func sunSwitch() (float64, error) {
	r := NewSunRig()
	d, err := runMarks(r, 50_000_000, 1, func(b *asmkit.Builder) {
		mark(b)
		b.MoveL(m68k.Imm(1), m68k.D(1))
		b.MoveL(m68k.Imm(1), m68k.D(2))
		b.Jsr(r.K.SwitchRoutine())
		mark(b)
		progExit(b)
	})
	return d[0], err
}

// adHandlers measures the buffered and unbuffered A/D handler bodies.
func adHandlers() (buffered, unbuffered float64, err error) {
	rig := NewSynthRig()
	unbuf := rig.IO.SynthUnbufferedADHandler()
	d, err := runMarks(rig, 50_000_000, 2, func(b *asmkit.Builder) {
		fakeFrameCall(b, rig.IO.ADIntHandler(), "r1")
		fakeFrameCall(b, unbuf, "r2")
		progExit(b)
	})
	return d[0], d[1], err
}

// cookedVariants measures one cooked line read through the collapsed
// and the layered filter. The layered routine is installed on a
// descriptor slot that open never touches (the line discipline keeps
// no per-descriptor state).
func cookedVariants() (collapsed, layered float64, err error) {
	measure := func(useLayered bool) (float64, error) {
		rig := NewSynthRig()
		k := rig.K
		k.TTY.InputString("hello, tty\n", 0, 0)
		fd := 0
		b := asmkit.New()
		if useLayered {
			fd = 9
		} else {
			nativeOpen(b, addrNameTTY) // fd 0: collapsed cooked read
		}
		mark(b)
		nativeRead(b, fd, addrBufB, 64)
		mark(b)
		progExit(b)
		entry := b.Link(k.M)
		th := k.SpawnKernel("bench", entry)
		if useLayered {
			layeredRead := rig.IO.SynthLayeredCookedRead(th)
			k.M.Poke(th.TTE+kernel.TTEVec+uint32(m68k.VecTrapBase+kernel.TrapRead+9)*4, 4, layeredRead)
		}
		k.Start(th)
		k.ResetMarks()
		if err := k.Run(200_000_000); err != nil {
			return 0, err
		}
		d := k.MarkDeltasMicros()
		if len(d) != 1 {
			return 0, errMarks(len(d), 1)
		}
		return d[0], nil
	}
	collapsed, err = measure(false)
	if err != nil {
		return 0, 0, err
	}
	layered, err = measure(true)
	return collapsed, layered, err
}

// constVsCellBinding compares the quaject creator's factorization
// against the same template bound to run-time cells: a block-copy
// routine whose geometry (source, length in 32-byte groups) is either
// folded in as constants or fetched from memory each call. This is the
// specialization the open path performs on every read routine it
// synthesizes.
func constVsCellBinding() (onUS, offUS float64, onLen, offLen int, err error) {
	rig := NewSynthRig()
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
	d, err := runMarks(rig, 100_000_000, 2, func(b *asmkit.Builder) {
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
	return d[0] / 64, d[1] / 64, onLen, offLen, err
}

// FineGrainPipe measures a cross-thread pipe transfer competing with
// a compute-bound thread, with and without the fine-grain scheduler's
// quantum adaptation (Section 4.4): when the policy sees the I/O rate
// it grows the pipe threads' quanta, so the transfer loses less time
// to the compute thread's round-robin slices.
func FineGrainPipe(adaptive bool) (float64, error) {
	rig := NewSynthRig()
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
	if io.OpenPipeEnd(tw, p, true) != 0 {
		return 0, fmt.Errorf("finegrain: writer fd")
	}
	if io.OpenPipeEnd(tr, p, false) != 0 {
		return 0, fmt.Errorf("finegrain: reader fd")
	}
	if adaptive {
		k.OnAlarm(2000, k.Adapt)
	}
	k.Start(tw)
	k.ResetMarks()
	for len(k.Marks) < 2 {
		err := k.Run(5_000_000)
		if err == nil {
			break // halted: both exited
		}
		if err != m68k.ErrCycleLimit {
			return 0, err
		}
		if k.M.Cycles > 5_000_000_000 {
			return 0, fmt.Errorf("finegrain: transfer never completed")
		}
	}
	d := k.MarkDeltasMicros()
	if len(d) < 1 {
		return 0, errMarks(len(d), 1)
	}
	return d[0], nil
}
