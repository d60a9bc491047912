package bench

import (
	"synthesis/internal/asmkit"
	"synthesis/internal/kernel"
	"synthesis/internal/m68k"
	"synthesis/internal/synth"
)

// Table 4: dispatcher and scheduler operations.

// Table4 measures context switches through the executable ready
// queue, the partial-context coroutine handoff, and the ready-ring
// block/unblock operations.
func Table4() (Table, error) {
	t := Table{
		Title: "Table 4: Dispatcher/Scheduler (microseconds)",
		Note:  "executable-data-structure context switching at the SUN 3/160 point",
	}

	// Full switch, integer-only threads.
	full, err := switchBetween(false)
	if err != nil {
		return t, err
	}
	t.Rows = append(t.Rows, Row{
		Name: "full context switch", Paper: 11, Measured: full, Unit: "usec",
		Note: "quantum interrupt -> sw_out -> jmp -> sw_in -> rte",
	})

	// Full switch after both threads touched the FP co-processor:
	// the line-F trap resynthesized their switch code to carry the
	// FP context.
	fp, err := switchBetween(true)
	if err != nil {
		return t, err
	}
	t.Rows = append(t.Rows, Row{
		Name: "full context switch (FP registers)", Paper: 21, Measured: fp, Unit: "usec",
		Note: "lazily resynthesized switch with fmovem save/restore",
	})

	// Partial context switch: a synthesized coroutine handoff that
	// moves only the registers in use.
	partial, err := partialSwitch()
	if err != nil {
		return t, err
	}
	t.Rows = append(t.Rows, Row{
		Name: "partial context switch", Paper: 3, Measured: partial, Unit: "usec",
		Note: "coroutine handoff, 5 live registers + stack",
	})

	// Block/unblock: ready-ring unlink and insert of a third thread.
	blockUS, unblockUS, err := blockUnblock()
	if err != nil {
		return t, err
	}
	t.Rows = append(t.Rows, Row{
		Name: "block thread", Paper: 4, Measured: blockUS, Unit: "usec",
		Note: "ready-ring unlink (per-resource wait cells, no blocked-queue search)",
	})
	t.Rows = append(t.Rows, Row{
		Name: "unblock thread", Paper: 4, Measured: unblockUS, Unit: "usec",
		Note: "insert at the front of the ready queue",
	})
	return t, nil
}

// switchBetween spawns two spinning kernel threads (optionally FP
// users) and measures a quantum-driven context switch.
func switchBetween(useFP bool) (float64, error) {
	rig := NewSynthRig()
	k := rig.K
	spin := func(name string) *kernel.Thread {
		prog := k.C.Synthesize(nil, name, nil, func(e *synth.Emitter) {
			if useFP {
				e.FmoveTo(m68k.Imm(1), 0) // triggers the FP upgrade
			}
			e.Label("loop")
			e.AddL(m68k.Imm(1), m68k.Abs(0x9000))
			e.Bra("loop")
		})
		return k.SpawnKernel(name, prog)
	}
	t1 := spin("s1")
	spin("s2")
	k.Start(t1)
	// Let both threads run (and upgrade to FP) before measuring.
	if err := k.M.Run(3_000_000); err != nil && err != m68k.ErrCycleLimit {
		return 0, err
	}
	us := kernel.MeasureSwitchMicros(k)
	if us < 0 {
		return 0, errMarks(0, 1)
	}
	return us, nil
}

// partialSwitch measures a synthesized coroutine pair that transfers
// only the live register set — "we switch only the part of the
// context being used, not all of it" (Section 4.2).
func partialSwitch() (float64, error) {
	rig := NewSynthRig()
	k := rig.K
	saveA, _ := k.Heap.Alloc(64)
	saveB, _ := k.Heap.Alloc(64)

	const liveMask = 0x0c38 // D3-D5, A2-A3: the registers in use

	// coYield: save the live set into `from`, adopt `to`.
	coYield := func(from, to uint32) uint32 {
		return k.C.Synthesize(nil, "co_yield", nil, func(e *synth.Emitter) {
			e.MovemSave(liveMask, m68k.Abs(from))
			e.MovemRest(m68k.Abs(to), liveMask)
			e.Rts()
		})
	}
	aToB := coYield(saveA, saveB)
	bToA := coYield(saveB, saveA)

	d, err := runMarks(rig, 1, func(b *asmkit.Builder) {
		mark(b)
		b.Jsr(aToB)
		b.Jsr(bToA)
		mark(b)
		progExit(b)
	})
	return d[0] / 2, err
}

// blockUnblock measures the ready-ring unlink and insert of a peer
// thread.
func blockUnblock() (blockUS, unblockUS float64, err error) {
	rig := NewSynthRig()
	k := rig.K
	peerProg := k.C.Synthesize(nil, "peer", nil, func(e *synth.Emitter) {
		e.Label("loop")
		e.Nop()
		e.Bra("loop")
	})
	peer := k.SpawnKernelStopped("peer", peerProg)
	k.Link(peer, k.Idle) // make it part of the ring

	d, err := runMarks(rig, 2, func(b *asmkit.Builder) {
		b.Lea(m68k.Abs(peer.TTE), 0)
		mark(b)
		b.Jsr(k.UnlinkRoutine())
		mark(b)
		b.Lea(m68k.Abs(peer.TTE), 0)
		mark(b)
		b.Jsr(k.InsertRoutine())
		mark(b)
		// Unlink again so the peer never runs.
		b.Lea(m68k.Abs(peer.TTE), 0)
		b.Jsr(k.UnlinkRoutine())
		progExit(b)
	})
	return d[0], d[1], err
}
