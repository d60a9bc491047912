package metrics

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing value updated with one atomic
// add. All methods are safe on a nil receiver (disabled plane).
type Counter struct{ v atomic.Uint64 }

// Add increments the counter by n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 on a nil handle).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a point-in-time value (occupancy, on/off state) stored as
// float64 bits behind one atomic word.
type Gauge struct{ v atomic.Uint64 }

// Set stores the gauge value.
func (g *Gauge) Set(f float64) {
	if g != nil {
		g.v.Store(floatBits(f))
	}
}

// Value returns the current gauge reading (0 on a nil handle).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return floatFrom(g.v.Load())
}

// regState is the storage every Registry view shares: one mutex, one
// set of metric maps by name, one clock. A Registry is a (state,
// prefix) pair — see Sub — so a fleet of kernels can register into a
// single plane under per-VM name prefixes while snapshots still see
// everything at once.
type regState struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Hist
	sampledC map[string]func() uint64  // counter-typed sampled reads
	sampledG map[string]func() float64 // gauge-typed sampled reads
	help     map[string]string         // optional per-metric description
	// collectors report families at snapshot time (Collect).
	collectors []collector

	clock    func() uint64 // VM cycle source (Machine.Clock)
	clockMHz float64
}

// setHelp records an optional description passed at handle creation
// (caller holds mu). First writer wins, so the creation site that
// documents a metric isn't overridden by later handle lookups that
// omit the text.
func (s *regState) setHelp(name string, help []string) {
	if len(help) == 0 || help[0] == "" {
		return
	}
	if _, ok := s.help[name]; !ok {
		s.help[name] = help[0]
	}
}

// Registry holds the named metrics for one kernel instance — or, via
// Sub, a prefixed view onto a shared plane for a whole cluster of
// them. Registration takes a short critical section; updates through
// the returned handles are lock-free. A nil *Registry is a valid
// disabled plane: every lookup returns a nil handle and Snapshot
// returns the zero Snapshot.
type Registry struct {
	s      *regState
	prefix string
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{s: &regState{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Hist{},
		sampledC: map[string]func() uint64{},
		sampledG: map[string]func() float64{},
		help:     map[string]string{},
	}}
}

// Sub returns a view of the same registry that prepends prefix to
// every metric name registered through it ("vm3." turns "kio.sock.5.
// rx_frames" into "vm3.kio.sock.5.rx_frames"). The view shares the
// parent's storage: a Snapshot taken on any view covers the whole
// plane. Sub of a nil registry is nil (still a valid disabled plane),
// and Sub views nest.
func (r *Registry) Sub(prefix string) *Registry {
	if r == nil {
		return nil
	}
	return &Registry{s: r.s, prefix: r.prefix + prefix}
}

// Prefix reports the view's name prefix ("" on the root or nil).
func (r *Registry) Prefix() string {
	if r == nil {
		return ""
	}
	return r.prefix
}

// SetClock binds the registry's timestamp source: fn is sampled into
// every Snapshot (the convention is Machine.Clock, so snapshots and
// the profiler's trace events share one time base), and mhz converts
// those cycles to microseconds (µs = cycles / mhz). The clock is
// plane-global — on a multi-VM shared registry the last caller wins,
// so a cluster harness overrides it after booting its kernels (the
// fleet has no single VM clock; see internal/cluster).
func (r *Registry) SetClock(fn func() uint64, mhz float64) {
	if r == nil {
		return
	}
	r.s.mu.Lock()
	r.s.clock = fn
	r.s.clockMHz = mhz
	r.s.mu.Unlock()
}

// Counter returns the named counter handle, creating it on first use.
// An optional help string documents the metric in expositions that
// carry descriptions (Prometheus # HELP); the first non-empty one
// registered wins. Returns nil on a nil registry.
func (r *Registry) Counter(name string, help ...string) *Counter {
	if r == nil {
		return nil
	}
	name = r.prefix + name
	r.s.mu.Lock()
	defer r.s.mu.Unlock()
	c, ok := r.s.counters[name]
	if !ok {
		c = &Counter{}
		r.s.counters[name] = c
	}
	r.s.setHelp(name, help)
	return c
}

// Gauge returns the named gauge handle, creating it on first use.
func (r *Registry) Gauge(name string, help ...string) *Gauge {
	if r == nil {
		return nil
	}
	name = r.prefix + name
	r.s.mu.Lock()
	defer r.s.mu.Unlock()
	g, ok := r.s.gauges[name]
	if !ok {
		g = &Gauge{}
		r.s.gauges[name] = g
	}
	r.s.setHelp(name, help)
	return g
}

// Hist returns the named histogram handle, creating it on first use.
func (r *Registry) Hist(name string, help ...string) *Hist {
	if r == nil {
		return nil
	}
	name = r.prefix + name
	r.s.mu.Lock()
	defer r.s.mu.Unlock()
	h, ok := r.s.hists[name]
	if !ok {
		h = &Hist{}
		r.s.hists[name] = h
	}
	r.s.setHelp(name, help)
	return h
}

// Sample registers a counter-typed metric served by fn at snapshot
// time. This is how VM-memory cells maintained by synthesized code
// (NQTxFail, GSpuriousIRQ, ...) join the plane with zero hot-path
// cost: the cell read happens only when somebody looks.
func (r *Registry) Sample(name string, fn func() uint64, help ...string) {
	if r == nil {
		return
	}
	r.s.mu.Lock()
	r.s.sampledC[r.prefix+name] = fn
	r.s.setHelp(r.prefix+name, help)
	r.s.mu.Unlock()
}

// SampleGauge registers a gauge-typed sampled metric (occupancy and
// other non-monotonic cell reads).
func (r *Registry) SampleGauge(name string, fn func() float64, help ...string) {
	if r == nil {
		return
	}
	r.s.mu.Lock()
	r.s.sampledG[r.prefix+name] = fn
	r.s.setHelp(r.prefix+name, help)
	r.s.mu.Unlock()
}

// Collector reports one family of metrics into the snapshot being
// cut, under the prefix of the view that registered it (Collect).
type Collector struct {
	prefix string
	s      *Snapshot
}

// Counter reports a counter-typed value.
func (c Collector) Counter(name string, v uint64) { c.s.Counters[c.prefix+name] = v }

// Gauge reports a gauge-typed value.
func (c Collector) Gauge(name string, v float64) { c.s.Gauges[c.prefix+name] = v }

// Collect registers fn to report a family of metrics whose members
// come and go with the objects they describe (kio's open sockets,
// descriptors and pipes), read from the record that already holds
// them. Like a Sample closure, fn runs only inside Snapshot, so a
// caller that serializes snapshots with the machine covers its reads
// of VM memory. Names does not list what fn reports.
func (r *Registry) Collect(fn func(Collector)) {
	if r == nil {
		return
	}
	r.s.mu.Lock()
	r.s.collectors = append(r.s.collectors, collector{r.prefix, fn})
	r.s.mu.Unlock()
}

type collector struct {
	prefix string
	fn     func(Collector)
}

// Names returns every registered metric name, sorted. Names are
// plane-wide and fully qualified (a Sub view sees the same list as the
// root).
func (r *Registry) Names() []string {
	if r == nil {
		return nil
	}
	r.s.mu.RLock()
	defer r.s.mu.RUnlock()
	names := make([]string, 0,
		len(r.s.counters)+len(r.s.gauges)+len(r.s.hists)+len(r.s.sampledC)+len(r.s.sampledG))
	for n := range r.s.counters {
		names = append(names, n)
	}
	for n := range r.s.gauges {
		names = append(names, n)
	}
	for n := range r.s.hists {
		names = append(names, n)
	}
	for n := range r.s.sampledC {
		names = append(names, n)
	}
	for n := range r.s.sampledG {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Snapshot is one point-in-time view of the whole plane. Cycles is
// the VM clock (Machine.Clock()) at sample time and ClockMHz its rate,
// so Micros() = Cycles/ClockMHz reconstructs simulated time — the
// same cycles→µs convention the profiler's Chrome-trace export uses.
type Snapshot struct {
	Cycles   uint64                  `json:"cycles"`
	ClockMHz float64                 `json:"clock_mhz,omitempty"`
	Counters map[string]uint64       `json:"counters,omitempty"`
	Gauges   map[string]float64      `json:"gauges,omitempty"`
	Hists    map[string]HistSnapshot `json:"hists,omitempty"`
	// Help carries the optional per-metric descriptions for
	// expositions that render them (# HELP in the Prometheus text
	// format). Excluded from JSON: descriptions are static metadata,
	// not samples.
	Help map[string]string `json:"-"`
}

// Micros returns the snapshot's timestamp in simulated microseconds.
func (s Snapshot) Micros() float64 {
	if s.ClockMHz == 0 {
		return 0
	}
	return float64(s.Cycles) / s.ClockMHz
}

// Snapshot samples every metric, including the sampled cell readers
// and the collectors.
// On a shared multi-VM registry this is the "one registry snapshot"
// for the whole fleet — every view's metrics appear, fully prefixed.
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	r.s.mu.RLock()
	defer r.s.mu.RUnlock()
	s := Snapshot{
		ClockMHz: r.s.clockMHz,
		Counters: make(map[string]uint64, len(r.s.counters)+len(r.s.sampledC)),
		Gauges:   make(map[string]float64, len(r.s.gauges)+len(r.s.sampledG)),
		Hists:    make(map[string]HistSnapshot, len(r.s.hists)),
	}
	if len(r.s.help) > 0 {
		s.Help = make(map[string]string, len(r.s.help))
		for n, h := range r.s.help {
			s.Help[n] = h
		}
	}
	if r.s.clock != nil {
		s.Cycles = r.s.clock()
	}
	for n, c := range r.s.counters {
		s.Counters[n] = c.Value()
	}
	for n, fn := range r.s.sampledC {
		s.Counters[n] = fn()
	}
	for n, g := range r.s.gauges {
		s.Gauges[n] = g.Value()
	}
	for n, fn := range r.s.sampledG {
		s.Gauges[n] = fn()
	}
	for n, h := range r.s.hists {
		s.Hists[n] = h.Snapshot()
	}
	for _, c := range r.s.collectors {
		c.fn(Collector{c.prefix, &s})
	}
	return s
}

// Delta is the change between two snapshots: counter increments,
// current gauge readings, and histogram bucket differences over the
// elapsed VM cycles.
type Delta struct {
	Cycles   uint64                  `json:"cycles"` // elapsed
	ClockMHz float64                 `json:"clock_mhz,omitempty"`
	Counters map[string]uint64       `json:"counters,omitempty"`
	Gauges   map[string]float64      `json:"gauges,omitempty"`
	Hists    map[string]HistSnapshot `json:"hists,omitempty"`
}

// Micros returns the elapsed simulated microseconds.
func (d Delta) Micros() float64 {
	if d.ClockMHz == 0 {
		return 0
	}
	return float64(d.Cycles) / d.ClockMHz
}

// Rate returns the named counter's increments per simulated second.
func (d Delta) Rate(name string) float64 {
	us := d.Micros()
	if us == 0 {
		return 0
	}
	return float64(d.Counters[name]) * 1e6 / us
}

// Delta returns the change from prev to s. Counters that went
// backwards (a torn-down socket's cell reused) restart from their
// current value. Gauges carry the current reading, not a difference.
func (s Snapshot) Delta(prev Snapshot) Delta {
	d := Delta{
		Cycles:   s.Cycles - prev.Cycles,
		ClockMHz: s.ClockMHz,
		Counters: make(map[string]uint64, len(s.Counters)),
		Gauges:   s.Gauges,
		Hists:    make(map[string]HistSnapshot, len(s.Hists)),
	}
	for n, v := range s.Counters {
		if p, ok := prev.Counters[n]; ok && p <= v {
			d.Counters[n] = v - p
		} else {
			d.Counters[n] = v
		}
	}
	for n, h := range s.Hists {
		d.Hists[n] = h.Sub(prev.Hists[n])
	}
	return d
}

func floatBits(f float64) uint64 { return math.Float64bits(f) }
func floatFrom(b uint64) float64 { return math.Float64frombits(b) }
