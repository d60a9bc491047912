package m68k

import (
	"fmt"
	"strings"
)

// Trace is the Quamachine's hardware program-trace facility
// (Section 6.1). It records the most recent executed instructions and
// exceptions in a ring buffer; Section 6.3 explains that kernel call
// timings were calculated from exactly such a trace by counting
// instructions and memory references.
type Trace struct {
	ents []TraceEntry
	next int
	n    int
}

// TraceEntry is one recorded event.
type TraceEntry struct {
	PC     uint32
	Instr  Instr
	Cycles uint64
	Exc    int // exception vector, or -1 for a normal instruction
}

// NewTrace creates a trace ring holding depth entries.
func NewTrace(depth int) *Trace {
	return &Trace{ents: make([]TraceEntry, depth)}
}

// Record logs one executed instruction.
func (t *Trace) Record(pc uint32, i Instr, cycles uint64) {
	t.ents[t.next] = TraceEntry{PC: pc, Instr: i, Cycles: cycles, Exc: -1}
	t.advance()
}

// RecordException logs an exception dispatch.
func (t *Trace) RecordException(vec int, pc uint32) {
	t.ents[t.next] = TraceEntry{PC: pc, Exc: vec}
	t.advance()
}

func (t *Trace) advance() {
	t.next = (t.next + 1) % len(t.ents)
	if t.n < len(t.ents) {
		t.n++
	}
}

// Len returns the number of recorded entries.
func (t *Trace) Len() int { return t.n }

// Entries returns the recorded entries, oldest first.
func (t *Trace) Entries() []TraceEntry {
	out := make([]TraceEntry, 0, t.n)
	start := t.next - t.n
	if start < 0 {
		start += len(t.ents)
	}
	for i := 0; i < t.n; i++ {
		out = append(out, t.ents[(start+i)%len(t.ents)])
	}
	return out
}

// Reset clears the trace.
func (t *Trace) Reset() { t.next, t.n = 0, 0 }

// String renders the trace as a disassembly listing.
func (t *Trace) String() string { return t.Tail(t.n) }

// Tail renders the last n entries, oldest first, as String does: one
// line each, led by the cycle count.
func (t *Trace) Tail(n int) string {
	ents := t.Entries()
	if len(ents) > n {
		ents = ents[len(ents)-n:]
	}
	var b strings.Builder
	for _, e := range ents {
		if e.Exc >= 0 {
			fmt.Fprintf(&b, "%10d  ** exception vector %d (from pc %d)\n", e.Cycles, e.Exc, e.PC)
			continue
		}
		fmt.Fprintf(&b, "%10d  %6d: %s\n", e.Cycles, e.PC, e.Instr)
	}
	return b.String()
}

// Disassemble renders n instructions of code space starting at addr.
func Disassemble(code []Instr, addr uint32, n int) string {
	var b strings.Builder
	for i := 0; i < n && int(addr)+i < len(code); i++ {
		fmt.Fprintf(&b, "%6d: %s\n", addr+uint32(i), code[addr+uint32(i)])
	}
	return b.String()
}
