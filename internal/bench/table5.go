package bench

import (
	"synthesis/internal/asmkit"
	"synthesis/internal/kernel"
	"synthesis/internal/m68k"
	"synthesis/internal/synth"
)

// Table 5: interrupt handling, alarms, and procedure chaining. The
// interrupt handlers are timed by entering them through a hand-built
// exception frame (the handler's RTE resumes the measuring program),
// which covers the handler body; the dispatch envelope is part of the
// frame-build/RTE round trip.

// fakeFrameCall emits: mark; push resume PC and SR; jmp handler; the
// handler RTEs back to the resume label; mark.
func fakeFrameCall(b *asmkit.Builder, handler uint32, resume string) {
	mark(b)
	b.MoveLabelL(resume, m68k.PreDec(7))
	b.MoveFromSR(m68k.PreDec(7))
	b.Jmp(handler)
	b.Label(resume)
	mark(b)
}

// Table5 regenerates the interrupt-handling measurements.
func Table5() (Table, error) {
	t := Table{
		Title: "Table 5: Interrupt Handling (microseconds)",
		Note:  "synthesized handler bodies entered through a hand-built frame",
	}
	rig := NewSynthRig()
	k := rig.K

	// A no-op alarm procedure.
	alarmProc := k.C.Synthesize(nil, "alarmproc", nil, func(e *synth.Emitter) {
		e.Rts()
	})
	// A chained procedure that bounces straight back.
	chained := k.C.Synthesize(nil, "chained", nil, func(e *synth.Emitter) {
		e.JmpVia(m68k.Abs(kernel.GChainPC))
	})
	// Custom trap handlers that chain it, marked inside.
	chainTrap := k.C.Synthesize(nil, "chain_trap", nil, func(e *synth.Emitter) {
		e.Kcall(kernel.SvcMark)
		e.MoveL(m68k.Imm(int32(chained)), m68k.D(1))
		e.Jsr(k.ChainRoutine())
		e.Kcall(kernel.SvcMark)
		e.Rte()
	})
	chainTrapCAS := k.C.Synthesize(nil, "chain_trap_cas", nil, func(e *synth.Emitter) {
		e.Kcall(kernel.SvcMark)
		e.MoveL(m68k.Imm(int32(chained)), m68k.D(1))
		e.Jsr(k.ChainCASRoutine())
		e.Kcall(kernel.SvcMark)
		e.Rte()
	})

	// A waiter thread blocked on a cell, for the chained-unblock
	// measurement.
	cellAddr, _ := k.Heap.Alloc(8)
	waiterProg := k.C.Synthesize(nil, "waiter", nil, func(e *synth.Emitter) {
		e.Lea(m68k.Abs(cellAddr), 0)
		e.Jsr(k.BlockOnRoutine())
		e.MoveL(m68k.Imm(kernel.SysExit), m68k.D(0))
		e.Trap(kernel.TrapSys)
	})

	// One pending tty character so the handler takes its normal path.
	k.TTY.InputNow('x')

	b := asmkit.New()
	// Give the waiter a chance to block first.
	b.MoveL(m68k.Imm(kernel.SysYield), m68k.D(0))
	b.Trap(kernel.TrapSys)
	// 1: tty interrupt handler body.
	fakeFrameCall(b, rig.IO.TTYIntHandler(), "r1")
	// 2: A/D interrupt handler body.
	fakeFrameCall(b, rig.IO.ADIntHandler(), "r2")
	// 3: set alarm (native call).
	mark(b)
	b.MoveL(m68k.Imm(kernel.SysSetAlarm), m68k.D(0))
	b.MoveL(m68k.Imm(100000), m68k.D(1))
	b.MoveL(m68k.Imm(int32(alarmProc)), m68k.D(2))
	b.Trap(kernel.TrapSys)
	mark(b)
	// 4: alarm interrupt handler body.
	b.MoveL(m68k.Imm(int32(alarmProc)), m68k.Abs(kernel.GAlarmProc))
	fakeFrameCall(b, k.AlarmRoutine(), "r3")
	// 5/6: procedure chaining (the marks are inside the handlers).
	b.Trap(5)
	b.Trap(6)
	// 7: chained unblock of the waiter (signal a thread).
	b.Lea(m68k.Abs(cellAddr), 0)
	mark(b)
	b.Jsr(k.WakeCellRoutine())
	mark(b)
	progExit(b)
	entry := b.Link(k.M)

	k.SpawnKernel("waiter", waiterProg)
	th := k.SpawnKernel("bench5", entry)
	// Install the chain trap handlers in the measuring thread.
	k.M.Poke(th.TTE+kernel.TTEVec+uint32(m68k.VecTrapBase+5)*4, 4, chainTrap)
	k.M.Poke(th.TTE+kernel.TTEVec+uint32(m68k.VecTrapBase+6)*4, 4, chainTrapCAS)
	k.Start(th)
	if err := k.Run(runaway); err != nil {
		return t, err
	}
	d := k.M.MarkMicros()
	if len(d) != 7 {
		return t, errMarks(len(d), 7)
	}
	rows := []struct {
		name  string
		paper float64
		idx   int
		note  string
	}{
		{"service raw TTY interrupt", 16, 0, "dedicated-queue insert + echo + chained wake"},
		{"service raw A/D interrupt", 3, 1, "buffered-queue fast path (1-in-8 advances the queue)"},
		{"set alarm", 9, 2, ""},
		{"alarm interrupt", 7, 3, "dispatch through the alarm procedure cell"},
		{"chain to a procedure", 4, 4, "return-address swap on the frame"},
		{"chain to a procedure (CAS)", 7, 5, "optimistic variant; paper's 7 usec is with one retry"},
		{"chain (signal) a thread", 9, 6, "wake-cell insert of a blocked thread"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, Row{Name: r.name, Paper: r.paper, Measured: d[r.idx], Unit: "usec", Note: r.note})
	}
	return t, nil
}
