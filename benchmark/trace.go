package main

import (
	"encoding/json"
	"time"
)

// The harness's own trace: one span around each call into a product
// layer, recorded in memory and written as Chrome trace JSON when the
// run ends. Nothing outside benchmark/ gains a span — the spans are
// taken from here, around the calls, and the counts a span carries
// are read at the same two boundaries.

// span is one recorded interval. Parent is the ID of the span that
// was open when this one began (0 = root); Workload groups the spans
// of one workload (the Chrome trace's pid).
type span struct {
	ID       int                `json:"id"`
	Parent   int                `json:"parent"`
	Workload string             `json:"workload"`
	Name     string             `json:"name"`
	StartNS  int64              `json:"start_ns"`
	EndNS    int64              `json:"end_ns"`
	Counts   map[string]float64 `json:"counts,omitempty"`
}

// tracer records spans for one workload run. It is used from one
// goroutine only (the fleet's own goroutines never touch it).
type tracer struct {
	workload string
	epoch    time.Time
	spans    []span
	open     []int // stack of indexes into spans
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, epoch: time.Now()}
}

// begin opens a span under the innermost open one and returns its
// index for end.
func (t *tracer) begin(name string) int {
	parent := 0
	if n := len(t.open); n > 0 {
		parent = t.spans[t.open[n-1]].ID
	}
	t.spans = append(t.spans, span{
		ID:       len(t.spans) + 1,
		Parent:   parent,
		Workload: t.workload,
		Name:     name,
		StartNS:  int64(time.Since(t.epoch)),
	})
	t.open = append(t.open, len(t.spans)-1)
	return len(t.spans) - 1
}

// end closes the span begin returned. Spans nest, so it is always the
// innermost open one.
func (t *tracer) end(i int) time.Duration {
	s := &t.spans[i]
	s.EndNS = int64(time.Since(t.epoch))
	t.open = t.open[:len(t.open)-1]
	return time.Duration(s.EndNS - s.StartNS)
}

// count attaches a count taken at the span's boundaries.
func (t *tracer) count(i int, key string, v float64) {
	s := &t.spans[i]
	if s.Counts == nil {
		s.Counts = make(map[string]float64)
	}
	s.Counts[key] = v
}

// in runs fn inside a span and returns the span's duration.
func (t *tracer) in(name string, fn func()) time.Duration {
	i := t.begin(name)
	fn()
	return t.end(i)
}

// chromeEvent is one complete ("X") event of the Chrome trace format.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`  // microseconds
	Dur  float64        `json:"dur"` // microseconds
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// chromeTrace renders spans (of any number of workloads) as Chrome
// trace JSON: one process per workload, self time = duration minus
// the part the span's children cover.
func chromeTrace(spans []span) ([]byte, error) {
	type key struct {
		w  string
		id int
	}
	childNS := make(map[key]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			childNS[key{s.Workload, s.Parent}] += s.EndNS - s.StartNS
		}
	}
	pids := make(map[string]int)
	var evs []chromeEvent
	for _, s := range spans {
		pid, ok := pids[s.Workload]
		if !ok {
			pid = len(pids) + 1
			pids[s.Workload] = pid
			evs = append(evs, chromeEvent{
				Name: "process_name", Ph: "M", PID: pid,
				Args: map[string]any{"name": s.Workload},
			})
		}
		args := map[string]any{
			"id":      s.ID,
			"parent":  s.Parent,
			"self_us": float64(s.EndNS-s.StartNS-childNS[key{s.Workload, s.ID}]) / 1e3,
		}
		for k, v := range s.Counts {
			args[k] = v
		}
		evs = append(evs, chromeEvent{
			Name: s.Name, Ph: "X",
			TS: float64(s.StartNS) / 1e3, Dur: float64(s.EndNS-s.StartNS) / 1e3,
			PID: pid, Args: args,
		})
	}
	return json.MarshalIndent(map[string]any{"traceEvents": evs, "displayTimeUnit": "ms"}, "", " ")
}
