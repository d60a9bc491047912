package prof_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"synthesis/internal/asmkit"
	"synthesis/internal/m68k"
	"synthesis/internal/prof"
)

// newM builds a machine with a vector table pointing at a HALT stub.
func newM(t *testing.T) *m68k.Machine {
	t.Helper()
	m := m68k.New(m68k.Config{MemSize: 1 << 16})
	stub := m.Emit([]m68k.Instr{{Op: m68k.HALT}})
	m.VBR = 0x100
	for v := 0; v < m68k.NumVectors; v++ {
		m.Poke(m.VBR+uint32(v)*4, 4, stub)
	}
	m.A[7] = 0x8000
	m.SSP = 0x8000
	return m
}

func run(t *testing.T, m *m68k.Machine, entry uint32) {
	t.Helper()
	m.PC = entry
	if err := m.Run(10_000_000); !errors.Is(err, m68k.ErrHalted) {
		t.Fatalf("run: %v", err)
	}
}

// TestRegionAttribution runs two registered loops back to back and
// checks that each loop's cycles land in its own region and that
// coverage is complete.
func TestRegionAttribution(t *testing.T) {
	m := newM(t)
	p := prof.Enable(m, 0)

	loop := func(label string, n int32) uint32 {
		b := asmkit.New()
		b.MoveL(m68k.Imm(n), m68k.D(0))
		b.Label("spin")
		b.SubL(m68k.Imm(1), m68k.D(0))
		b.Bne("spin")
		b.Rts()
		entry := b.Link(m)
		p.RegisterRegion(label, entry, b.Len())
		return entry
	}
	a := loop("region.a", 500)
	bb := loop("region.b", 100)

	main := asmkit.New()
	main.Jsr(a)
	main.Jsr(bb)
	main.Halt()
	entry := main.Link(m)
	p.RegisterRegion("region.main", entry, main.Len())

	run(t, m, entry)

	stats := p.Top(0)
	got := map[string]uint64{}
	for _, s := range stats {
		got[s.Name] = s.Cycles
	}
	if got["region.a"] == 0 || got["region.b"] == 0 || got["region.main"] == 0 {
		t.Fatalf("missing regions in %v", got)
	}
	if got["region.a"] <= got["region.b"] {
		t.Errorf("region.a (%d cycles, 500 iters) should outweigh region.b (%d cycles, 100 iters)",
			got["region.a"], got["region.b"])
	}
	// Every executed instruction lives in a registered region, so
	// coverage must be total.
	if c := p.Coverage(); c < 0.999 {
		t.Errorf("coverage = %v, want ~1.0 (unattributed %d of %d cycles)",
			c, p.Window()-p.Attributed(), p.Window())
	}
	// Top(0) is sorted descending.
	for i := 1; i < len(stats); i++ {
		if stats[i].Cycles > stats[i-1].Cycles {
			t.Errorf("Top not sorted: %v", stats)
		}
	}
}

// TestReRegistrationRepoints models resynthesis: the same region name
// registered at a new address keeps one identity and charges to it.
func TestReRegistrationRepoints(t *testing.T) {
	m := newM(t)
	p := prof.Enable(m, 0)

	build := func() (uint32, int) {
		b := asmkit.New()
		b.MoveL(m68k.Imm(10), m68k.D(0))
		b.Label("spin")
		b.SubL(m68k.Imm(1), m68k.D(0))
		b.Bne("spin")
		b.Halt()
		return b.Link(m), b.Len()
	}
	e1, l1 := build()
	p.RegisterRegion("handler", e1, l1)
	run(t, m, e1)
	first := p.Top(0)

	e2, l2 := build() // "resynthesized" at a fresh address
	p.RegisterRegion("handler", e2, l2)
	m.ClearHalt()
	run(t, m, e2)

	var handlers int
	var cycles uint64
	for _, s := range p.Top(0) {
		if s.Name == "handler" {
			handlers++
			cycles = s.Cycles
		}
	}
	if handlers != 1 {
		t.Fatalf("re-registration split the region: %v", p.Top(0))
	}
	if cycles <= first[0].Cycles {
		t.Errorf("second run did not accumulate: %d then %d", first[0].Cycles, cycles)
	}
}

// TestIdleAttribution checks that stopped-machine time lands in the
// (idle) pseudo-region, not in code regions.
func TestIdleAttribution(t *testing.T) {
	m := newM(t)
	p := prof.Enable(m, 0)
	tm := m68k.NewTimer(m)
	m.Attach(tm)

	b := asmkit.New()
	// Arm the timer alarm, then STOP until it fires (vector stub
	// halts).
	b.MoveL(m68k.Imm(2000), m68k.Abs(m68k.TimerBase+m68k.TimerRegAlarm))
	b.Stop(0x2000)
	b.Halt()
	entry := b.Link(m)
	p.RegisterRegion("prog", entry, b.Len())
	run(t, m, entry)

	var idle uint64
	for _, s := range p.Top(0) {
		if s.Name == "(idle)" {
			idle = s.Cycles
		}
	}
	if idle == 0 {
		t.Fatalf("no idle time recorded: %v", p.Top(0))
	}
	if c := p.Coverage(); c < 0.999 {
		t.Errorf("coverage with idle = %v, want ~1.0", c)
	}
}

// TestProgramTrace: the profiler's program trace holds every step in
// execution order — an instruction before the exception it raised, an
// interrupt dispatch as its exception alone, a stopped step not at all
// — and Tail renders its last n entries.
func TestProgramTrace(t *testing.T) {
	m := newM(t)
	p := prof.Enable(m, 64)
	m.Attach(m68k.NewTimer(m))
	b := asmkit.New()
	b.MoveL(m68k.Imm(1), m68k.D(0))
	b.AddL(m68k.Imm(2), m68k.D(0))
	b.Trap(3)
	entry := b.Link(m)
	run(t, m, entry) // the trap's handler is the HALT stub
	m.ClearHalt()
	b = asmkit.New()
	b.MoveL(m68k.Imm(2000), m68k.Abs(m68k.TimerBase+m68k.TimerRegAlarm))
	b.Stop(0x2000) // until the alarm's interrupt, whose handler halts too
	idle := b.Link(m)
	run(t, m, idle)

	type step struct {
		pc  uint32
		exc int
	}
	stub := m.Peek(m.VBR, 4)
	want := []step{
		{entry, -1}, {entry + 1, -1}, {entry + 2, -1}, {entry + 3, m68k.VecTrapBase + 3}, {stub, -1},
		{idle, -1}, {idle + 1, -1}, {idle + 2, m68k.VecAutovector + m68k.IRQAlarm}, {stub, -1},
	}
	var got []step
	var last uint64
	for _, e := range p.Trace().Items() {
		got = append(got, step{e.PC, e.Exc})
		if e.Cycles < last {
			t.Errorf("entry at pc %d: cycle %d before the previous entry's %d", e.PC, e.Cycles, last)
		}
		last = e.Cycles
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("trace (pc, vector) = %v, want %v\n%s", got, want, p.Tail(64))
	}

	// Tail is the listing's last lines, and never more than it holds.
	s := p.Tail(p.Trace().Len())
	lines := strings.SplitAfter(s, "\n")
	lines = lines[:len(lines)-1] // the empty string after the last newline
	if len(lines) != len(want) || !strings.Contains(lines[3], fmt.Sprintf("** exception vector %d ", m68k.VecTrapBase+3)) {
		t.Errorf("listing = %q, want %d lines, the fourth the trap's", s, len(want))
	}
	if got, want := p.Tail(2), strings.Join(lines[len(lines)-2:], ""); got != want {
		t.Errorf("Tail(2) = %q, want the listing's last two lines %q", got, want)
	}
	if got := p.Tail(p.Trace().Len() + 5); got != s {
		t.Errorf("Tail past the ring's length = %q, want the whole listing %q", got, s)
	}
	if got := p.Tail(0); got != "" {
		t.Errorf("Tail(0) = %q, want nothing", got)
	}
}

// TestUnarmedTraceRecordsNothing: a profiler enabled with depth 0
// attributes every step but records no program trace, not even the
// exception a trap raises, until ArmTrace; then the trace holds only
// what ran after arming, at the armed depth.
func TestUnarmedTraceRecordsNothing(t *testing.T) {
	m := newM(t)
	p := prof.Enable(m, 0)
	b := asmkit.New()
	b.MoveL(m68k.Imm(1), m68k.D(0))
	b.Trap(3)
	entry := b.Link(m)
	run(t, m, entry)
	if p.Trace() != nil || p.Tail(8) != "" {
		t.Fatalf("unarmed profiler recorded a trace:\n%s", p.Tail(8))
	}
	if len(p.Top(0)) == 0 {
		t.Fatal("unarmed profiler charged no cycles")
	}

	p.ArmTrace(2)
	m.ClearHalt()
	run(t, m, entry)
	if got := p.Trace().Len(); got != 2 || p.Trace().Cap() != 2 {
		t.Fatalf("armed at depth 2: %d entries of %d", got, p.Trace().Cap())
	}
	if last := p.Trace().Items()[1]; last.PC != m.Peek(m.VBR, 4) || last.Exc != -1 {
		t.Errorf("last entry %+v, want the HALT stub's instruction", last)
	}
}

// TestRingOverflow fills a tiny ring past capacity and checks the
// overwrite-oldest contract.
func TestRingOverflow(t *testing.T) {
	r := prof.NewRing[prof.Event](4)
	for i := 0; i < 10; i++ {
		r.Push(prof.Event{Name: "e", Ph: 'i', At: uint64(i)})
	}
	if r.Len() != 4 {
		t.Fatalf("Len = %d, want 4", r.Len())
	}
	if r.Cap() != 4 {
		t.Fatalf("Cap = %d, want 4", r.Cap())
	}
	if r.Dropped() != 6 {
		t.Fatalf("Dropped = %d, want 6", r.Dropped())
	}
	evs := r.Items()
	for i, ev := range evs {
		if want := uint64(6 + i); ev.At != want {
			t.Errorf("event %d: At = %d, want %d (oldest first, oldest evicted)", i, ev.At, want)
		}
	}
}

// TestChromeTraceExport checks the exported trace is valid JSON with
// monotonic timestamps and both event kinds.
func TestChromeTraceExport(t *testing.T) {
	m := newM(t)
	p := prof.Enable(m, 16) // small ring: forces overflow handling too

	loop := func(label string, n int32) uint32 {
		b := asmkit.New()
		b.MoveL(m68k.Imm(n), m68k.D(0))
		b.Label("spin")
		b.SubL(m68k.Imm(1), m68k.D(0))
		b.Bne("spin")
		b.Rts()
		entry := b.Link(m)
		p.RegisterRegion(label, entry, b.Len())
		return entry
	}
	a := loop("t.a", 20)
	bb := loop("t.b", 20)
	main := asmkit.New()
	for i := 0; i < 12; i++ { // many region switches -> many slices
		main.Jsr(a)
		main.Jsr(bb)
	}
	main.Halt()
	entry := main.Link(m)
	p.RegisterRegion("t.main", entry, main.Len())
	run(t, m, entry)

	var buf bytes.Buffer
	if err := p.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var out struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("trace is not valid JSON: %v\n%s", err, buf.String())
	}
	if len(out.TraceEvents) == 0 {
		t.Fatal("empty trace")
	}
	last := -1.0
	sawX := false
	for _, ev := range out.TraceEvents {
		if ev.Ts < last {
			t.Fatalf("non-monotonic ts: %v after %v", ev.Ts, last)
		}
		last = ev.Ts
		if ev.Ph == "X" {
			sawX = true
			if ev.Dur < 0 {
				t.Errorf("negative dur on %q", ev.Name)
			}
		}
	}
	if !sawX {
		t.Error("no complete ('X') slices in trace")
	}
}
