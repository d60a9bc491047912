package prof

import (
	"encoding/json"
	"io"
	"sort"
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

// DefaultRingDepth bounds the trace ring when Enable is passed 0.
const DefaultRingDepth = 8192

// Ring is a fixed-capacity trace-event buffer that overwrites the
// oldest events when full, counting what it drops. A long run keeps
// its most recent window instead of growing without bound — the same
// policy as the machine's instruction trace.
type Ring struct {
	buf     []Event
	next    int
	full    bool
	dropped uint64
}

// NewRing returns a ring holding up to depth events (0 selects
// DefaultRingDepth).
func NewRing(depth int) *Ring {
	if depth <= 0 {
		depth = DefaultRingDepth
	}
	return &Ring{buf: make([]Event, 0, depth)}
}

// Push appends an event, evicting the oldest when full.
func (r *Ring) Push(ev Event) {
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, ev)
		return
	}
	r.buf[r.next] = ev
	r.next = (r.next + 1) % len(r.buf)
	r.full = true
	r.dropped++
}

// Len returns the number of retained events.
func (r *Ring) Len() int { return len(r.buf) }

// Cap returns the ring capacity.
func (r *Ring) Cap() int { return cap(r.buf) }

// Dropped returns how many events were evicted.
func (r *Ring) Dropped() uint64 { return r.dropped }

// Events returns the retained events, oldest first.
func (r *Ring) Events() []Event {
	out := make([]Event, 0, len(r.buf))
	if r.full {
		out = append(out, r.buf[r.next:]...)
		out = append(out, r.buf[:r.next]...)
	} else {
		out = append(out, r.buf...)
	}
	return out
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
	evs := p.ring.Events()
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
