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

// TestRunEqualsSteps holds the machine's two step loops to each other:
// Run's open-coded fast path and Step are the same machine. One
// program drives every way out of the fast path — a timer interrupt
// landing in a loop, one pending behind the mask until ANDSR drops
// it, STOP idling to the next device event, traced
// instructions (one of them running through cSlow), a KCALL service
// that grows code space (relocating Code and xcache under the running
// handler) and patches a slot whose translation is hot, a subroutine
// in the freshly grown region, and a bus fault. It makes three passes,
// because Run takes the first execution of every slot through Step:
// only from the second pass on does each event meet the fast path. It
// is executed by one Run, by Run in short cycle slices, and by
// repeated Step, each with and without a Probe. Every run must leave identical registers,
// SR, memory, code-space size and Cycles/Instrs/MemRefs, and the
// probed runs identical event sequences.
func TestRunEqualsSteps(t *testing.T) {
	const (
		timerCount = 0x4000 // bumped by the timer interrupt handler
		traceCount = 0x4004 // bumped by the trace exception handler
		busCount   = 0x4008 // bumped by the bus-error handler
		kcalls     = 4      // per pass
		passes     = 3      // the first translates every slot, the rest run hot
		patched    = 18     // the slot every KCALL rewrites
	)
	type outcome struct {
		D, A                     [8]uint32
		PC, VBR, USP, SSP        uint32
		SR                       uint16
		Cycles, Instrs, MemRefs  uint64
		codeLen, serviceCalls    int
		events                   []loopEvent
		timers, traces, busFault uint32
	}
	execute := func(probe bool, drive func(m *Machine) error) (outcome, []byte) {
		m := New(Config{MemSize: 1 << 16})
		m.Attach(NewTimer(m))
		m.VBR, m.A[7], m.SSP = 0x100, 0x8000, 0x8000
		handler := func(vec int, body ...Instr) {
			m.Poke(m.VBR+uint32(vec)*4, 4, m.Emit(append(body, Instr{Op: RTE})))
		}
		handler(VecAutovector+IRQTimer,
			Instr{Op: MOVE, Src: Abs(TimerBase + TimerRegAck), Dst: D(7)},
			Instr{Op: ADD, Src: Imm(1), Dst: Abs(timerCount)})
		handler(VecTrace, Instr{Op: ADD, Src: Imm(1), Dst: Abs(traceCount)})
		handler(VecBusError, Instr{Op: ADD, Src: Imm(1), Dst: Abs(busCount)})

		base := m.CodeTop
		quantum := Abs(TimerBase + TimerRegQuantum)
		m.Emit([]Instr{
			{Op: MOVE, Src: Imm(passes - 1), Dst: D(6)},     // 0
			{Op: ORSR, Src: Imm(0x0700)},                    // 1: mask interrupts
			{Op: MOVE, Src: Imm(40), Dst: quantum},          // 2: expires in the spin, pends behind the mask
			{Op: MOVE, Src: Imm(30), Dst: D(0)},             // 3
			{Op: ADD, Src: Imm(1), Dst: D(1)},               // 4: spin
			{Op: DBRA, Src: D(0), Dst: Abs(base + 4)},       // 5
			{Op: ANDSR, Src: Imm(0xf8ff)},                   // 6: unmask; the interrupt is taken before 7
			{Op: MOVE, Src: Imm(40), Dst: quantum},          // 7: expires in the spin and is taken there
			{Op: MOVE, Src: Imm(30), Dst: D(0)},             // 8
			{Op: ADD, Src: Imm(1), Dst: D(1)},               // 9: spin
			{Op: DBRA, Src: D(0), Dst: Abs(base + 9)},       // 10
			{Op: MOVE, Src: Imm(200), Dst: quantum},         // 11
			{Op: STOP, Src: Imm(0x2000)},                    // 12: idle to the quantum
			{Op: ORSR, Src: Imm(int32(FlagT))},              // 13: trace on
			{Op: MOVE, Src: Imm(5), Dst: D(2)},              // 14: traced
			{Op: MULU, Src: Imm(3), Dst: D(2)},              // 15: traced, via cSlow
			{Op: ANDSR, Src: Imm(int32(^FlagT))},            // 16: trace off
			{Op: MOVE, Src: Imm(kcalls - 1), Dst: D(4)},     // 17
			{Op: MOVE, Src: Imm(1), Dst: D(2)},              // 18: patched by every KCALL
			{Op: ADD, Src: D(2), Dst: D(3)},                 // 19
			{Op: KCALL, Vec: 1},                             // 20
			{Op: DBRA, Src: D(4), Dst: Abs(base + patched)}, // 21
			{Op: JSR, Dst: Ind(1)},                          // 22: into grown code space
			{Op: MOVE, Src: D(3), Dst: Abs(0x2_0000)},       // 23: bus fault
			{Op: NOT, Dst: D(5)},                            // 24: resumes here
			{Op: DBRA, Src: D(6), Dst: Abs(base + 1)},       // 25: next pass
			{Op: HALT}, // 26
		})
		calls := 0
		m.RegisterService(1, func(m *Machine) uint64 {
			calls++
			// One slot more than Code has room for: Code (and xcache
			// with it) moves while this KCALL's handler is running.
			sub := m.AllocCode(cap(m.Code) - len(m.Code) + 1)
			m.SetCode(sub, []Instr{
				{Op: BTST, Src: Imm(0), Dst: D(3)},
				{Op: NEG, Dst: D(5)},
				{Op: RTS},
			})
			m.A[1] = sub
			m.PatchCode(base+patched, Instr{Op: MOVE, Src: Imm(int32(10 * calls)), Dst: D(2)})
			return 7
		})
		var rec *loopRecorder
		if probe {
			rec = &loopRecorder{}
			m.Probe = rec
		}
		m.PC = base
		if err := drive(m); err != ErrHalted {
			t.Fatalf("run ended with %v, want ErrHalted", err)
		}
		o := outcome{
			D: m.D, A: m.A, PC: m.PC, VBR: m.VBR, USP: m.USP, SSP: m.SSP, SR: m.SR,
			Cycles: m.Cycles, Instrs: m.Instrs, MemRefs: m.MemRefs,
			codeLen: len(m.Code), serviceCalls: calls,
			timers: m.Peek(timerCount, 4), traces: m.Peek(traceCount, 4), busFault: m.Peek(busCount, 4),
		}
		if rec != nil {
			o.events = rec.events
		}
		return o, m.Mem
	}

	drivers := []struct {
		name  string
		drive func(m *Machine) error
	}{
		{"Run", func(m *Machine) error { return m.Run(1 << 30) }},
		{"Run in 97-cycle slices", func(m *Machine) error {
			for {
				if err := m.Run(97); err != ErrCycleLimit {
					return err
				}
			}
		}},
		{"Step", func(m *Machine) error {
			for {
				if err := m.Step(); err != nil {
					return err
				}
			}
		}},
	}

	ref, refMem := execute(false, drivers[0].drive)
	// The program did what the comment above says it does. The
	// patched slot loads 1 the first time and ten times the number of KCALLs so far
	// ever after.
	const n = passes * kcalls
	if ref.timers != 3*passes || ref.traces != 2*passes || ref.busFault != passes || ref.serviceCalls != n {
		t.Fatalf("program took %d timer interrupts, %d trace exceptions, %d bus faults, %d KCALLs; want %d, %d, %d, %d",
			ref.timers, ref.traces, ref.busFault, ref.serviceCalls, 3*passes, 2*passes, passes, n)
	}
	if want := uint32(1 + 10*(n-1)*n/2); ref.D[3] != want {
		t.Fatalf("D3 = %d, want %d: a patched slot ran stale", ref.D[3], want)
	}
	probed, _ := execute(true, drivers[0].drive)
	idle := false
	for _, e := range probed.events {
		idle = idle || e.idle
	}
	if !idle {
		t.Fatal("no idle step recorded: STOP never waited")
	}
	for _, probe := range []bool{false, true} {
		for _, d := range drivers {
			got, mem := execute(probe, d.drive)
			name := d.name
			if probe {
				name += " with probe"
				if !reflect.DeepEqual(got.events, probed.events) {
					t.Errorf("%s: probe saw %d events, differing from the %d of Run with probe", name, len(got.events), len(probed.events))
				}
				got.events = nil
			}
			if !bytes.Equal(mem, refMem) {
				t.Errorf("%s: memory image differs from Run", name)
			}
			if !reflect.DeepEqual(got, ref) {
				t.Errorf("%s differs from Run:\n got %+v\nwant %+v", name, got, ref)
			}
		}
	}
}

// TestDispatchCounters: SlowInstrs/Instrs is the share of a run that
// had no closure, Translations counts slots translated. In a
// trap-and-mask pass of the kind thread_ops spends a seventh of its
// instructions in, 9 of 10 instructions are supervisor or slow-path
// ops; with closures for ORSR, ANDSR, MOVEFSR, MOVETSR, TRAP and RTE
// only the two no workload pays for (MOVEC, MULU) reach cSlow — 2 of
// 10 where it would be 9 of 10 without them. EmitBenchProgram, the
// dispatcher's best case, must read zero.
func TestDispatchCounters(t *testing.T) {
	m := New(Config{MemSize: 1 << 16})
	m.VBR, m.A[7], m.SSP = 0x100, 0x8000, 0x8000
	m.Poke(m.VBR+uint32(VecTrapBase+1)*4, 4, m.Emit([]Instr{
		{Op: ORSR, Src: Imm(0x0700)},
		{Op: MOVEC, Vec: CtrlVBR, Dst: D(3)},
		{Op: RTE},
	}))
	const passes = 3
	entry := m.CodeTop
	m.Emit([]Instr{
		{Op: MOVE, Src: Imm(passes - 1), Dst: D(7)},
		{Op: MOVEFSR, Dst: D(0)}, // 1
		{Op: ORSR, Src: Imm(0x0700)},
		{Op: TRAP, Vec: 1},
		{Op: MULU, Src: Imm(3), Dst: D(2)},
		{Op: ANDSR, Src: Imm(0xf8ff)},
		{Op: MOVETSR, Src: D(0)},
		{Op: DBRA, Src: D(7), Dst: Abs(entry + 1)},
		{Op: HALT},
	})
	m.PC = entry
	if err := m.Run(1 << 20); err != ErrHalted {
		t.Fatal(err)
	}
	if want := uint64(2 + 10*passes); m.Instrs != want || m.SlowInstrs != 2*passes || m.Translations != 12 {
		t.Errorf("%d instructions, %d through cSlow, %d translations; want %d, %d, 12",
			m.Instrs, m.SlowInstrs, m.Translations, want, 2*passes)
	}
	// A patched slot is translated again on its next fetch, and only it.
	m.PatchCode(entry+4, Instr{Op: NOP})
	m.ClearHalt()
	m.PC = entry
	if err := m.Run(1 << 20); err != ErrHalted {
		t.Fatal(err)
	}
	if m.SlowInstrs != 3*passes || m.Translations != 13 {
		t.Errorf("after patching MULU out: %d through cSlow, %d translations; want %d, 13", m.SlowInstrs, m.Translations, 3*passes)
	}

	b := New(Config{})
	b.PC = EmitBenchProgram(b)
	if err := b.Run(1 << 30); err != ErrHalted {
		t.Fatal(err)
	}
	if b.SlowInstrs != 0 || b.Translations != 9 {
		t.Errorf("EmitBenchProgram: %d of %d instructions through cSlow, %d translations; want 0 and 9", b.SlowInstrs, b.Instrs, b.Translations)
	}
}
