package prof

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"

	"synthesis/internal/m68k"
)

// Event is one trace record: a complete slice (Ph 'X', one region's
// contiguous run of steps) or an instant (Ph 'i', an exception or
// interrupt dispatch). At and Dur are in machine cycles; export
// converts to microseconds.
type Event struct {
	Name string
	Ph   byte
	At   uint64
	Dur  uint64
}

// TraceEntry is one record of the program trace: an executed
// instruction, or an exception dispatch (Exc >= 0, with the PC it was
// taken from). Section 6.3's kernel-call timings were counted from
// exactly such a trace.
type TraceEntry struct {
	PC     uint32
	Instr  m68k.Instr
	Cycles uint64 // the cycle the instruction began, or the handler was entered
	Exc    int    // exception vector, or -1 for an instruction
}

// DefaultRingDepth bounds the trace-event ring when Enable is passed 0.
const DefaultRingDepth = 8192

// Ring is a fixed-capacity buffer that overwrites its oldest items when
// full, counting what it drops. A long run keeps its most recent window
// instead of growing without bound. It holds the profiler's trace
// events and its program trace, and the fleet tracer's completed round
// trips.
type Ring[T any] struct {
	buf     []T
	next    int
	full    bool
	dropped uint64
}

// NewRing returns a ring holding up to depth items (0 selects
// DefaultRingDepth).
func NewRing[T any](depth int) *Ring[T] {
	if depth <= 0 {
		depth = DefaultRingDepth
	}
	return &Ring[T]{buf: make([]T, 0, depth)}
}

// Push appends an item, evicting the oldest when full.
func (r *Ring[T]) Push(v T) {
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, v)
		return
	}
	r.buf[r.next] = v
	r.next = (r.next + 1) % len(r.buf)
	r.full = true
	r.dropped++
}

// Len returns the number of retained items.
func (r *Ring[T]) Len() int { return len(r.buf) }

// Cap returns the ring capacity.
func (r *Ring[T]) Cap() int { return cap(r.buf) }

// Dropped returns how many items were evicted.
func (r *Ring[T]) Dropped() uint64 { return r.dropped }

// Items returns the retained items, oldest first.
func (r *Ring[T]) Items() []T {
	out := make([]T, 0, len(r.buf))
	if r.full {
		out = append(out, r.buf[r.next:]...)
		out = append(out, r.buf[:r.next]...)
	} else {
		out = append(out, r.buf...)
	}
	return out
}

// ArmTrace starts an empty program trace that keeps the last depth
// entries (0 selects DefaultRingDepth), the depth its reader reads.
func (p *Profiler) ArmTrace(depth int) {
	p.trace = NewRing[TraceEntry](depth)
}

// Trace returns the program trace: the recent instructions and
// exceptions, oldest first by Items. It is nil until armed.
func (p *Profiler) Trace() *Ring[TraceEntry] { return p.trace }

// Tail renders the program trace's last n entries, oldest first: one
// line each, led by its cycle. An unarmed trace renders nothing.
func (p *Profiler) Tail(n int) string {
	if p.trace == nil {
		return ""
	}
	ents := p.trace.Items()
	ents = ents[len(ents)-min(n, len(ents)):]
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

// Chrome trace-event JSON (the about:tracing / Perfetto "JSON Object
// Format"): a TraceFile's traceEvents array of {name, ph, ts, dur, pid,
// tid, args} records with ts in microseconds, the fleet's too.
type TraceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

type TraceFile struct {
	TraceEvents     []TraceEvent `json:"traceEvents"`
	DisplayTimeUnit string       `json:"displayTimeUnit"`
}

// WriteChromeTrace exports the ring (plus the still-open region
// slice, closed at the current cycle) as Chrome trace JSON. Events
// are sorted by cycle time so ts is monotonic.
func (p *Profiler) WriteChromeTrace(w io.Writer) error {
	evs := p.ring.Items()
	if p.cur >= 0 && p.m.Cycles > p.curStart {
		evs = append(evs, Event{Name: p.regions[p.cur].Name, Ph: 'X', At: p.curStart, Dur: p.m.Cycles - p.curStart})
	}
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].At < evs[j].At })
	out := TraceFile{TraceEvents: make([]TraceEvent, 0, len(evs)), DisplayTimeUnit: "ns"}
	for _, ev := range evs {
		te := TraceEvent{
			Name: ev.Name,
			Ph:   string(ev.Ph),
			TS:   p.m.Micros(ev.At),
			PID:  1,
			TID:  1,
		}
		if ev.Ph == 'X' {
			te.Dur = p.m.Micros(ev.Dur)
		}
		if ev.Ph == 'i' {
			te.S = "g"
		}
		out.TraceEvents = append(out.TraceEvents, te)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}
