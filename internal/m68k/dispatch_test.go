package m68k

import (
	"bytes"
	"reflect"
	"testing"
)

// Self-modifying code is the kernel's normal mode of operation, so the
// translation cache must never serve a stale handler: a write into
// code space has to be visible on the very next fetch of that slot.
// These tests drive the `instr` cell pattern from Table 1 — code that
// patches an instruction it is about to execute — under both a cold
// cache (slot never translated) and a warm one (stale translation
// installed and hot).

// patchService returns a KCALL service that overwrites code slot at
// with a MOVE #v, D1 when invoked.
func patchService(at uint32, v int32) Service {
	return func(m *Machine) uint64 {
		m.PatchCode(at, Instr{Op: MOVE, Src: Imm(v), Dst: D(1)})
		return 0
	}
}

// TestSelfModifyingCodeColdCache patches the next instruction before
// it has ever executed (and therefore before it has ever been
// translated): the patched form must run.
func TestSelfModifyingCodeColdCache(t *testing.T) {
	m := New(Config{})
	entry := m.Emit([]Instr{
		{Op: KCALL, Vec: 1},                  // patches slot entry+1
		{Op: MOVE, Src: Imm(111), Dst: D(1)}, // will be overwritten
		{Op: HALT},
	})
	m.RegisterService(1, patchService(entry+1, 222))
	m.PC = entry
	if err := m.Run(1 << 20); err != ErrHalted {
		t.Fatal(err)
	}
	if m.D[1] != 222 {
		t.Fatalf("cold cache: executed stale instruction, D1=%d want 222", m.D[1])
	}
}

// TestSelfModifyingCodeWarmCache runs a patch loop: each iteration
// executes the target slot (heating its cache line), then patches it
// and executes it again. Every fetch after a patch must see the new
// instruction even though the previous translation was hot.
func TestSelfModifyingCodeWarmCache(t *testing.T) {
	m := New(Config{})
	entry := m.Emit([]Instr{
		{Op: MOVE, Src: Imm(0), Dst: D(1)}, // 0: the patch target
		{Op: KCALL, Vec: 1},                // 1: patch slot 0 to load next value
		{Op: ADD, Src: D(1), Dst: D(2)},    // 2: accumulate what slot 0 loaded
		{Op: DBRA, Src: D(0), Dst: Abs(0)}, // 3: loop back through slot 0
		{Op: HALT},                         // 4
	})
	next := int32(0)
	m.RegisterService(1, func(mm *Machine) uint64 {
		next++
		mm.PatchCode(entry, Instr{Op: MOVE, Src: Imm(next), Dst: D(1)})
		return 0
	})
	const rounds = 64
	m.D[0] = rounds
	m.D[2] = 0
	m.PC = entry
	if err := m.Run(1 << 30); err != ErrHalted {
		t.Fatal(err)
	}
	// DBRA from rounds runs rounds+1 iterations. Iteration k executes
	// slot 0 as MOVE #k-1 (patched by the previous iteration; the
	// first sees the original #0), then patches it to #k, so the
	// accumulator collects 0+1+...+rounds.
	want := uint32(rounds * (rounds + 1) / 2)
	if m.D[2] != want {
		t.Fatalf("warm cache: accumulated %d, want %d (a stale translation executed)", m.D[2], want)
	}
	if next != rounds+1 {
		t.Fatalf("patch service ran %d times, want %d", next, rounds+1)
	}
}

// TestPatchHelpersInvalidate covers the asmkit-style patch entry
// points: SetCode over an executed region must retranslate every
// covered slot.
func TestPatchHelpersInvalidate(t *testing.T) {
	m := New(Config{})
	entry := m.Emit([]Instr{
		{Op: MOVE, Src: Imm(1), Dst: D(3)},
		{Op: HALT},
	})
	run := func() {
		m.ClearHalt()
		m.PC = entry
		if err := m.Run(1 << 20); err != ErrHalted {
			t.Fatal(err)
		}
	}
	run()
	if m.D[3] != 1 {
		t.Fatalf("D3=%d want 1", m.D[3])
	}
	m.SetCode(entry, []Instr{{Op: MOVE, Src: Imm(7), Dst: D(3)}})
	run()
	if m.D[3] != 7 {
		t.Fatalf("after SetCode: D3=%d want 7 (stale translation)", m.D[3])
	}
}

// loopEvent is one Probe callback, recorded in order.
type loopEvent struct {
	kind    string
	pc      uint32
	a, b, c uint64
	idle    bool
}

type loopRecorder struct{ events []loopEvent }

func (r *loopRecorder) StepDone(pc uint32, cycles, instrs uint64, idle bool) {
	r.events = append(r.events, loopEvent{kind: "step", pc: pc, a: cycles, b: instrs, idle: idle})
}
func (r *loopRecorder) ExceptionTaken(vec int, pc uint32, at uint64) {
	r.events = append(r.events, loopEvent{kind: "exception", pc: pc, a: uint64(vec), b: at})
}
func (r *loopRecorder) InterruptTaken(level, vec int, raisedAt, takenAt uint64) {
	r.events = append(r.events, loopEvent{kind: "interrupt", a: uint64(level), b: raisedAt, c: takenAt})
}
func (r *loopRecorder) Charged(cycles uint64, what string) {}

// timer2 is a second interval timer in its own register window, for a
// KCALL service to attach in the middle of a run.
type timer2 struct{ *Timer }

func (timer2) Name() string { return "timer2" }
func (timer2) Base() uint32 { return IOBase + 0x600 }

// TestRunEqualsSteps holds the machine's two step loops to each other:
// Run's fast loop, which looks at nothing but the clock and its event
// horizon, and Step are the same machine. One program drives every way
// out of the fast loop — a timer interrupt landing in a spin, three
// pending behind the mask (the fast loop runs on under it) until ANDSR,
// MOVETSR and RTE drop it, STOP idling to the next device event, a
// store to a NIC register that raises the receive interrupt inside the
// storing instruction, traced instructions (one of them running
// through cSlow), a subroutine in freshly grown code space,
// a bus fault, and a KCALL service that grows code space (relocating
// Code and xcache under the running handler), patches a slot whose
// translation is hot and then, in turn, posts an unmasked interrupt,
// sets T in SR behind applySR's back, attaches and arms a second timer,
// and (last call only) attaches a Probe. It makes three passes, because
// Run takes the first execution of every slot through Step: only from
// the second pass on does each event meet the fast loop. Every handler
// adds the spin counter D1 to a cell of its own, so where an interrupt
// or exception landed shows in memory, not only that it did. The
// program is executed by one Run, by Run in slices of 97, 1 and 0
// cycles, and by repeated Step, each bare and with a Probe. Every run
// must leave identical registers, SR, memory, code-space size and
// Cycles/Instrs/MemRefs, every run with the same plane identical Probe
// events, and none may move once halted.
//
// Mutation-checked against exec.go, machine.go and dispatch.go: it
// fails with any one condition dropped from runHorizon (Probe,
// halted, stopped, deliverable interrupt, T, nextPoll), and with any one
// horizon = 0 deleted — PostInterrupt's (the NIC store's interrupt
// lands late), tickDevice's (the quantum does), applySR's for T (ORSR
// #T traces nothing) and for a pending interrupt (the ones MOVETSR and
// RTE unmask land late), STOP's (the program runs on without idling)
// and the KCALL return's (the service's T and Probe are noticed late or
// never).
func TestRunEqualsSteps(t *testing.T) {
	const (
		timerCell = 0x4000 // count, then sum of D1, kept by the timer interrupt handler
		traceCell = 0x4008 // ... by the trace exception handler
		busCell   = 0x4010 // ... by the bus-error handler
		netCell   = 0x4018 // ... by the NIC receive handler
		postCell  = 0x4020 // ... by the handler of the level the service posts
		alarmCell = 0x4028 // ... by the second timer's alarm handler
		frame     = 0x5000 // the staged frame
		ring      = 0x6000 // the NIC receive ring
		postLevel = 4
		kcalls    = 4  // per pass, one of each kind of service call
		passes    = 3  // the first translates every slot, the rest run hot
		patched   = 22 // the slot every KCALL rewrites
		spin      = 4  // a slot that is hot by the time the machine halts
	)
	const (
		bare = iota
		probed
		planes
	)
	type outcome struct {
		D, A                    [8]uint32
		PC, VBR, USP, SSP       uint32
		SR                      uint16
		Cycles, Instrs, MemRefs uint64
		codeLen, serviceCalls   int
		counts                  [6]uint32 // the handlers' cells, in the order above
	}
	// seen is what the measurement plane recorded: it depends on
	// whether the plane is armed, never on how the machine was driven.
	type seen struct {
		events, late []loopEvent // the Probe's, and those of the one the service attached
	}
	execute := func(plane int, drive func(m *Machine) error) (outcome, seen, []byte) {
		m := New(Config{MemSize: 1 << 16})
		m.Attach(NewTimer(m))
		nic := NewNet(m)
		m.Attach(nic)
		nic.Store(NetRegRxBase, 4, ring)
		nic.Store(NetRegRxSlots, 4, 4)
		nic.Store(NetRegSlotSz, 4, 64)
		nic.Store(NetRegCtl, 4, 1)
		m.PokeBytes(frame, []byte("loopback"))
		second := timer2{NewTimer(m)}
		m.VBR, m.A[7], m.SSP = 0x100, 0x8000, 0x8000
		// Each handler acknowledges its device, then counts itself and
		// records where the program was.
		handler := func(vec int, cell uint32, ack ...Instr) {
			m.Poke(m.VBR+uint32(vec)*4, 4, m.Emit(append(ack,
				Instr{Op: ADD, Src: Imm(1), Dst: Abs(cell)},
				Instr{Op: ADD, Src: D(1), Dst: Abs(cell + 4)},
				Instr{Op: RTE})))
		}
		handler(VecAutovector+IRQTimer, timerCell, Instr{Op: MOVE, Src: Abs(TimerBase + TimerRegAck), Dst: D(7)})
		handler(VecTrace, traceCell)
		handler(VecBusError, busCell)
		handler(VecAutovector+IRQNet, netCell,
			Instr{Op: MOVE, Src: Abs(NetBase + NetRegRxHead), Dst: D(7)},
			Instr{Op: MOVE, Src: D(7), Dst: Abs(NetBase + NetRegRxTail)})
		handler(VecAutovector+postLevel, postCell)
		handler(VecAutovector+IRQAlarm, alarmCell, Instr{Op: MOVE, Src: Abs(second.Base() + TimerRegAck), Dst: D(7)})

		base := m.CodeTop
		quantum := Abs(TimerBase + TimerRegQuantum)
		count := Instr{Op: ADD, Src: Imm(1), Dst: D(1)}
		m.Emit([]Instr{
			{Op: MOVE, Src: Imm(passes - 1), Dst: D(6)},                   // 0
			{Op: ORSR, Src: Imm(0x0700)},                                  // 1: mask interrupts
			{Op: MOVE, Src: Imm(40), Dst: quantum},                        // 2: expires in the spin, pends behind the mask
			{Op: MOVE, Src: Imm(30), Dst: D(0)},                           // 3
			count,                                                         // 4: spin
			{Op: DBRA, Src: D(0), Dst: Abs(base + spin)},                  // 5
			{Op: ANDSR, Src: Imm(0xf8ff)},                                 // 6: unmask; the interrupt is taken before 7
			{Op: MOVE, Src: Imm(40), Dst: quantum},                        // 7: expires in the spin and is taken there
			{Op: MOVE, Src: Imm(30), Dst: D(0)},                           // 8
			count,                                                         // 9: spin
			{Op: DBRA, Src: D(0), Dst: Abs(base + 9)},                     // 10
			{Op: MOVE, Src: Imm(200), Dst: quantum},                       // 11
			{Op: STOP, Src: Imm(0x2000)},                                  // 12: idle to the quantum
			{Op: MOVE, Src: Imm(frame), Dst: Abs(NetBase + NetRegTxAddr)}, // 13
			{Op: MOVE, Src: Imm(12), Dst: Abs(NetBase + NetRegTxLen)},     // 14: launches; the frame loops back and interrupts
			count,                                       // 15: the receive interrupt is taken before this
			count,                                       // 16
			{Op: ORSR, Src: Imm(int32(FlagT))},          // 17: trace on
			{Op: MOVE, Src: Imm(5), Dst: D(2)},          // 18: traced
			{Op: MULU, Src: Imm(3), Dst: D(2)},          // 19: traced, via cSlow
			{Op: ANDSR, Src: Imm(int32(^FlagT))},        // 20: trace off
			{Op: MOVE, Src: Imm(kcalls - 1), Dst: D(4)}, // 21
			{Op: MOVE, Src: Imm(1), Dst: D(2)},          // 22: patched by every KCALL
			{Op: ADD, Src: D(2), Dst: D(3)},             // 23
			{Op: KCALL, Vec: 1},                         // 24
			count,                                       // 25: traced when the service set T
			count,                                       // 26
			{Op: ANDSR, Src: Imm(int32(^FlagT))},        // 27: ... and off again
			{Op: DBRA, Src: D(4), Dst: Abs(base + patched)},        // 28
			{Op: JSR, Dst: Ind(1)},                                 // 29: into grown code space
			{Op: MOVE, Src: D(3), Dst: Abs(0x2_0000)},              // 30: bus fault
			{Op: MULU, Src: Imm(3), Dst: D(5)},                     // 31: resumes here
			{Op: ORSR, Src: Imm(0x0700)},                           // 32: mask again
			{Op: MOVE, Src: Imm(40), Dst: quantum},                 // 33: pends behind the mask
			{Op: MOVE, Src: Imm(30), Dst: D(0)},                    // 34
			count,                                                  // 35: spin
			{Op: DBRA, Src: D(0), Dst: Abs(base + 35)},             // 36
			{Op: MOVETSR, Src: Imm(0x2000)},                        // 37: unmask; taken before 38
			count,                                                  // 38
			{Op: ORSR, Src: Imm(0x0700)},                           // 39
			{Op: MOVE, Src: Imm(40), Dst: quantum},                 // 40
			{Op: MOVE, Src: Imm(30), Dst: D(0)},                    // 41
			count,                                                  // 42: spin
			{Op: DBRA, Src: D(0), Dst: Abs(base + 42)},             // 43
			{Op: MOVE, Src: Imm(int32(base + 47)), Dst: PreDec(7)}, // 44: a frame that returns
			{Op: MOVE, Src: Imm(0x2000), Dst: PreDec(7)},           // 45: ... unmasked
			{Op: RTE}, // 46: unmask; taken before 47
			count,     // 47
			{Op: DBRA, Src: D(6), Dst: Abs(base + 1)}, // 48: next pass
			{Op: HALT}, // 49
		})
		calls := 0
		late := &loopRecorder{}
		m.RegisterService(1, func(m *Machine) uint64 {
			calls++
			// One slot more than Code has room for: Code (and xcache
			// with it) moves while this KCALL's handler is running.
			sub := m.AllocCode(cap(m.Code) - len(m.Code) + 1)
			m.SetCode(sub, []Instr{
				{Op: BTST, Src: Imm(0), Dst: D(3)},
				{Op: MULU, Src: Imm(5), Dst: D(5)},
				{Op: RTS},
			})
			m.A[1] = sub
			m.PatchCode(base+patched, Instr{Op: MOVE, Src: Imm(int32(10 * calls)), Dst: D(2)})
			// What a service may do to the machine that Run's loop has to
			// notice at the very next boundary.
			switch (calls - 1) % kcalls {
			case 0:
				m.PostInterrupt(postLevel)
			case 1:
				m.SR |= FlagT
			case 2:
				if calls < kcalls {
					m.Attach(second)
				}
				second.Store(TimerRegAlarm, 4, 25)
				m.Kick(second)
			case 3:
				if calls == passes*kcalls {
					m.Probe = late
				}
			}
			return 7
		})
		var rec *loopRecorder
		if plane == probed {
			rec = &loopRecorder{}
			m.Probe = rec
		}
		m.PC = base
		if err := drive(m); err != ErrHalted {
			t.Fatalf("run ended with %v, want ErrHalted", err)
		}
		// A halted machine stays put, even with a hot slot under its PC
		// and no probe attached.
		halt := m.PC
		m.PC, m.Probe = base+spin, nil
		if err := drive(m); err != ErrHalted {
			t.Fatalf("run of a halted machine ended with %v, want ErrHalted", err)
		}
		if m.PC != base+spin {
			t.Fatalf("a halted machine ran on to pc %d", m.PC)
		}
		o := outcome{
			D: m.D, A: m.A, PC: halt, VBR: m.VBR, USP: m.USP, SSP: m.SSP, SR: m.SR,
			Cycles: m.Cycles, Instrs: m.Instrs, MemRefs: m.MemRefs,
			codeLen: len(m.Code), serviceCalls: calls,
		}
		for i := range o.counts {
			o.counts[i] = m.Peek(timerCell+8*uint32(i), 4)
		}
		log := seen{late: late.events}
		if rec != nil {
			log.events = rec.events
		}
		return o, log, m.Mem
	}

	sliced := func(n uint64) func(m *Machine) error {
		return func(m *Machine) error {
			for {
				if err := m.Run(n); err != ErrCycleLimit {
					return err
				}
			}
		}
	}
	drivers := []struct {
		name  string
		drive func(m *Machine) error
	}{
		{"Run", func(m *Machine) error { return m.Run(1 << 30) }},
		{"Run in 97-cycle slices", sliced(97)},
		{"Run in 1-cycle slices", sliced(1)},
		{"Run in 0-cycle slices", sliced(0)},
		{"Step", func(m *Machine) error {
			for {
				if err := m.Step(); err != nil {
					return err
				}
			}
		}},
	}

	ref, refLog, refMem := execute(bare, drivers[0].drive)
	// The program did what the comment above says it does: per pass five
	// timer interrupts, two instructions traced by ORSR and two by the
	// service, a bus fault, a frame received, a posted interrupt and an
	// alarm. The patched slot loads 1 the first time and ten times the
	// number of KCALLs so far ever after.
	const n = passes * kcalls
	if want := [6]uint32{5 * passes, 4 * passes, passes, passes, passes, passes}; ref.counts != want || ref.serviceCalls != n {
		t.Fatalf("handlers ran %v times and the service %d; want %v and %d", ref.counts, ref.serviceCalls, want, n)
	}
	if want := uint32(1 + 10*(n-1)*n/2); ref.D[3] != want {
		t.Fatalf("D3 = %d, want %d: a patched slot ran stale", ref.D[3], want)
	}
	if len(refLog.late) == 0 {
		t.Fatal("the Probe the service attached saw nothing")
	}
	for plane := 0; plane < planes; plane++ {
		name := [planes]string{"", " with probe"}[plane]
		var first seen // what this plane recorded of the one Run
		for i, d := range drivers {
			got, log, mem := execute(plane, d.drive)
			if i == 0 {
				first = log
				idle := false
				for _, e := range log.events {
					idle = idle || e.idle
				}
				if plane == probed && !idle {
					t.Fatal("no idle step recorded: STOP never waited")
				}
			}
			if !reflect.DeepEqual(log, first) {
				t.Errorf("%s%s: probes saw %d and %d events, differing from the %d and %d of Run",
					d.name, name, len(log.events), len(log.late), len(first.events), len(first.late))
			}
			if !bytes.Equal(mem, refMem) {
				t.Errorf("%s%s: memory image differs from Run", d.name, name)
			}
			if got != ref {
				t.Errorf("%s%s differs from Run:\n got %+v\nwant %+v", d.name, name, got, ref)
			}
		}
	}
}

// TestDispatchCounters: SlowInstrs/Instrs is the share of a run that
// had no closure, Translations counts slots translated. In a
// trap-and-mask pass of the kind thread_ops spends a seventh of its
// instructions in, 9 of 10 instructions are supervisor or slow-path
// ops; with closures for ORSR, ANDSR, MOVEFSR, MOVETSR, MOVEC, TRAP
// and RTE only the two with none (BTST, MULU) reach cSlow — 2 of 10
// where it would be 9 of 10 without them. EmitBenchProgram, the
// dispatcher's best case, must read zero. SlowSteps counts the
// boundaries Run handed to Step: with no device and no interrupt, one
// per slot, its first fetch.
func TestDispatchCounters(t *testing.T) {
	m := New(Config{MemSize: 1 << 16})
	m.VBR, m.A[7], m.SSP = 0x100, 0x8000, 0x8000
	m.Poke(m.VBR+uint32(VecTrapBase+1)*4, 4, m.Emit([]Instr{
		{Op: ORSR, Src: Imm(0x0700)},
		{Op: BTST, Src: Imm(3), Dst: D(3)},
		{Op: RTE},
	}))
	const passes = 3
	entry := m.CodeTop
	m.Emit([]Instr{
		{Op: MOVE, Src: Imm(passes - 1), Dst: D(7)},
		{Op: MOVEFSR, Dst: PreDec(7)}, // 1: the kernel's "move sr,-(sp)"
		{Op: ORSR, Src: Imm(0x0700)},
		{Op: TRAP, Vec: 1},
		{Op: MULU, Src: Imm(3), Dst: D(2)},
		{Op: ANDSR, Src: Imm(0xf8ff)},
		{Op: MOVETSR, Src: PostInc(7)}, // and its "move (sp)+,sr"
		{Op: DBRA, Src: D(7), Dst: Abs(entry + 1)},
		{Op: HALT},
	})
	m.PC = entry
	if err := m.Run(1 << 20); err != ErrHalted {
		t.Fatal(err)
	}
	if want := uint64(2 + 10*passes); m.Instrs != want || m.SlowInstrs != 2*passes || m.Translations != 12 || m.SlowSteps != 12 {
		t.Errorf("%d instructions, %d through cSlow, %d translations, %d Steps; want %d, %d, 12, 12",
			m.Instrs, m.SlowInstrs, m.Translations, m.SlowSteps, want, 2*passes)
	}
	// A patched slot is translated again on its next fetch, and only it.
	m.PatchCode(entry+4, Instr{Op: MOVE, Src: D(1), Dst: D(2)})
	m.ClearHalt()
	m.PC = entry
	if err := m.Run(1 << 20); err != ErrHalted {
		t.Fatal(err)
	}
	if m.SlowInstrs != 3*passes || m.Translations != 13 || m.SlowSteps != 13 {
		t.Errorf("after patching MULU out: %d through cSlow, %d translations, %d Steps; want %d, 13, 13",
			m.SlowInstrs, m.Translations, m.SlowSteps, 3*passes)
	}

	b := New(Config{})
	b.PC = EmitBenchProgram(b)
	if err := b.Run(1 << 30); err != ErrHalted {
		t.Fatal(err)
	}
	if b.SlowInstrs != 0 || b.Translations != 9 || b.SlowSteps != 9 {
		t.Errorf("EmitBenchProgram: %d of %d instructions through cSlow, %d translations, %d Steps; want 0, 9 and 9",
			b.SlowInstrs, b.Instrs, b.Translations, b.SlowSteps)
	}
}
