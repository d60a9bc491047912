package prof

import (
	"fmt"
	"sort"
	"strings"

	"synthesis/internal/m68k"
	"synthesis/internal/metrics"
)

// Reserved region ids. Region 0 absorbs cycles whose PC is in no
// registered range (boot trampolines, test scaffolding); region 1
// absorbs stopped-time (the cycle jumps the machine makes while
// waiting for the next device event).
const (
	idUnattributed = 0
	idIdle         = 1
)

// Region is one named extent of code space plus the execution charged
// to it. Pseudo-regions (synthesis time, idle) have Len == 0 and no
// address range.
type Region struct {
	Name   string
	Base   uint32
	Len    int
	Cycles uint64
	Instrs uint64
}

// Profiler implements m68k.Probe and synth.RegionSink. One profiler
// serves one machine.
type Profiler struct {
	m       *m68k.Machine
	regions []Region
	ids     map[string]int
	// pcMap maps each code-space slot to the owning region id; slot
	// granularity makes the per-step lookup one bounds check and one
	// slice index.
	pcMap    []uint16
	start    uint64 // machine cycle count when profiling began
	cur      int    // region executing the open trace slice
	curStart uint64 // cycle the open slice began
	ring     *Ring[Event]
	// trace is the program trace (Section 6.1's hardware tracing): the
	// recent instructions and exceptions in execution order, nil until
	// a reader arms it (ArmTrace). An exception reaches the probe while
	// its step runs, before StepDone reports the instruction that
	// raised it, so it waits in pending until that instruction is in.
	trace   *Ring[TraceEntry]
	pending []TraceEntry
	// irq holds the raise-to-entry latency histogram of each IPL
	// level, in cycles: the registry's own when one is attached
	// (PublishTo). Section 5.3's bound — interrupts stay disabled only
	// for the few instructions that commit a queue operation — shows
	// as latencies in the low buckets.
	irq [8]*metrics.Hist

	// OnIRQ, when set, observes every interrupt dispatch (level,
	// vector, raise and entry cycle). The fleet trace plane uses it to
	// stamp a sampled request's IRQ-entry hop. Nil — the default —
	// costs one nil check per interrupt.
	OnIRQ func(level, vec int, raisedAt, takenAt uint64)
	// OnRegionEnter, when set, observes every transition into a named
	// region (pseudo-regions and (idle) excluded) with the cycle the
	// region's first step began. Called only when the executing region
	// changes, never per step.
	OnRegionEnter func(name string, at uint64)
}

// Enable attaches a new profiler to the machine and returns it.
// ringDepth bounds the trace-event ring (0 selects the default); a
// positive ringDepth also arms the program trace at that depth, which
// a profiler enabled with 0 records only once its reader arms it.
func Enable(m *m68k.Machine, ringDepth int) *Profiler {
	p := &Profiler{
		m:     m,
		ids:   map[string]int{},
		start: m.Clock(),
		ring:  NewRing[Event](ringDepth),
	}
	if ringDepth > 0 {
		p.ArmTrace(ringDepth)
	}
	p.regions = []Region{{Name: "(unattributed)"}, {Name: "(idle)"}}
	p.ids["(unattributed)"] = idUnattributed
	p.ids["(idle)"] = idIdle
	p.cur = -1
	for l := range p.irq {
		p.irq[l] = &metrics.Hist{}
	}
	m.Probe = p
	return p
}

// Of returns the profiler attached to m, or nil.
func Of(m *m68k.Machine) *Profiler {
	p, _ := m.Probe.(*Profiler)
	return p
}

// RegisterRegion names the code-space extent [base, base+instrs).
// Re-registering an existing name repoints it: in-place or moved
// resynthesis (context-switch rewrite, net_intr rebuild on a watchdog
// mode change) keeps charging the same logical region. Pseudo-regions pass
// instrs == 0 and get no address range.
func (p *Profiler) RegisterRegion(name string, base uint32, instrs int) {
	id, ok := p.ids[name]
	if !ok {
		id = len(p.regions)
		if id > 0xFFFF {
			return // pcMap id space exhausted; drop silently
		}
		p.regions = append(p.regions, Region{Name: name, Base: base, Len: instrs})
		p.ids[name] = id
	} else {
		p.regions[id].Base = base
		p.regions[id].Len = instrs
	}
	if instrs <= 0 {
		return
	}
	end := int(base) + instrs
	if end > len(p.pcMap) {
		p.pcMap = append(p.pcMap, make([]uint16, end-len(p.pcMap))...)
	}
	for i := base; i < base+uint32(instrs); i++ {
		p.pcMap[i] = uint16(id)
	}
}

// Regions returns the number of regions registered, pseudo-regions
// included.
func (p *Profiler) Regions() int { return len(p.regions) }

// regionAt resolves a PC to a region id.
func (p *Profiler) regionAt(pc uint32) int {
	if int(pc) < len(p.pcMap) {
		return int(p.pcMap[pc])
	}
	return idUnattributed
}

// StepDone implements m68k.Probe: charge the step's cycle and
// instruction deltas to the region owning the step's PC, and maintain
// the trace-slice ring across region changes; add the step's
// instruction, then the exceptions it raised, to an armed program trace.
func (p *Profiler) StepDone(pc uint32, cycles, instrs uint64, idle bool) {
	id := idIdle
	if !idle {
		id = p.regionAt(pc)
	}
	p.regions[id].Cycles += cycles
	p.regions[id].Instrs += instrs
	stepStart := p.m.Clock() - cycles
	if p.trace != nil {
		if instrs > 0 {
			p.trace.Push(TraceEntry{PC: pc, Instr: p.m.Code[pc], Cycles: stepStart, Exc: -1})
		}
		for _, e := range p.pending {
			p.trace.Push(e)
		}
		p.pending = p.pending[:0]
	}
	if id != p.cur {
		if p.cur >= 0 && stepStart > p.curStart {
			p.ring.Push(Event{Name: p.regions[p.cur].Name, Ph: 'X', At: p.curStart, Dur: stepStart - p.curStart})
		}
		p.cur = id
		p.curStart = stepStart
		if p.OnRegionEnter != nil && id > idIdle {
			p.OnRegionEnter(p.regions[id].Name, stepStart)
		}
	}
}

// ExceptionTaken implements m68k.Probe: drop an instant event in the
// trace, and hold the exception for an armed program trace until
// StepDone has recorded the instruction that raised it (an interrupt
// dispatch raises it with no instruction).
func (p *Profiler) ExceptionTaken(vec int, pc uint32, at uint64) {
	p.ring.Push(Event{Name: fmt.Sprintf("exception v%d", vec), Ph: 'i', At: at})
	if p.trace != nil {
		p.pending = append(p.pending, TraceEntry{PC: pc, Cycles: at, Exc: vec})
	}
}

// InterruptTaken implements m68k.Probe: histogram the raise-to-entry
// latency per IPL level.
func (p *Profiler) InterruptTaken(level, vec int, raisedAt, takenAt uint64) {
	if level < 0 || level >= len(p.irq) {
		return
	}
	var lat uint64
	if raisedAt != 0 && takenAt >= raisedAt {
		lat = takenAt - raisedAt
	}
	p.irq[level].Observe(lat)
	p.ring.Push(Event{Name: fmt.Sprintf("irq l%d", level), Ph: 'i', At: takenAt})
	if p.OnIRQ != nil {
		p.OnIRQ(level, vec, raisedAt, takenAt)
	}
}

// Charged implements m68k.Probe: host-side cycle charges landing
// between instructions (e.g. boot-time synthesis with charging on)
// accumulate under a "(what)" pseudo-region.
func (p *Profiler) Charged(cycles uint64, what string) {
	name := "(" + what + ")"
	id, ok := p.ids[name]
	if !ok {
		id = len(p.regions)
		p.regions = append(p.regions, Region{Name: name})
		p.ids[name] = id
	}
	p.regions[id].Cycles += cycles
}

// PublishTo makes the registry's prof.irq.l<level>.latency_cycles
// the profiler's per-level IRQ-latency histograms, so both planes read
// one object. Latencies observed before the call stay behind: a kernel
// publishes at boot, before the first interrupt. Observations are in
// Machine.Clock() cycles, the shared time base of both planes (divide
// by ClockMHz for microseconds; the snapshot carries the rate).
func (p *Profiler) PublishTo(reg *metrics.Registry) {
	if reg == nil {
		return
	}
	for l := range p.irq {
		p.irq[l] = reg.Hist(fmt.Sprintf("prof.irq.l%d.latency_cycles", l))
	}
}

// Window returns the cycles elapsed on the machine since Enable.
func (p *Profiler) Window() uint64 { return p.m.Clock() - p.start }

// Attributed returns the cycles charged to any region, named or
// pseudo, other than (unattributed).
func (p *Profiler) Attributed() uint64 {
	var sum uint64
	for i, r := range p.regions {
		if i == idUnattributed {
			continue
		}
		sum += r.Cycles
	}
	return sum
}

// Coverage returns Attributed over Window (0 when the window is
// empty). The Table 1 acceptance bar is 0.95.
func (p *Profiler) Coverage() float64 {
	w := p.Window()
	if w == 0 {
		return 0
	}
	return float64(p.Attributed()) / float64(w)
}

// IRQ returns a snapshot of one IPL level's latency histogram (empty
// for a level out of range).
func (p *Profiler) IRQ(level int) metrics.HistSnapshot {
	if level < 0 || level >= len(p.irq) {
		return metrics.HistSnapshot{}
	}
	return p.irq[level].Snapshot()
}

// Ring returns the trace-event ring.
func (p *Profiler) Ring() *Ring[Event] { return p.ring }

// RegionStat is one row of the attribution report.
type RegionStat struct {
	Name   string
	Cycles uint64
	Instrs uint64
	Share  float64 // fraction of the profiling window
}

// Top returns the n regions with the most cycles, descending,
// skipping regions that never executed.
func (p *Profiler) Top(n int) []RegionStat {
	w := p.Window()
	stats := make([]RegionStat, 0, len(p.regions))
	for _, r := range p.regions {
		if r.Cycles == 0 {
			continue
		}
		s := RegionStat{Name: r.Name, Cycles: r.Cycles, Instrs: r.Instrs}
		if w > 0 {
			s.Share = float64(r.Cycles) / float64(w)
		}
		stats = append(stats, s)
	}
	sort.SliceStable(stats, func(i, j int) bool { return stats[i].Cycles > stats[j].Cycles })
	if n > 0 && len(stats) > n {
		stats = stats[:n]
	}
	return stats
}

// Report renders the top-n table plus coverage and interrupt-latency
// summaries, in the fixed-width style of the bench tables. For a run of
// iters loop iterations (0: not a loop) each row also gives its
// instructions per iteration.
func (p *Profiler) Report(n int, iters uint64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-32s %14s %12s %7s", "region", "cycles", "instrs", "share")
	if iters > 0 {
		fmt.Fprintf(&b, " %9s", "instrs/it")
	}
	b.WriteByte('\n')
	for _, s := range p.Top(n) {
		fmt.Fprintf(&b, "%-32s %14d %12d %6.1f%%", s.Name, s.Cycles, s.Instrs, 100*s.Share)
		if iters > 0 {
			fmt.Fprintf(&b, " %9.2f", float64(s.Instrs)/float64(iters))
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "coverage: %.1f%% of %d cycles attributed\n", 100*p.Coverage(), p.Window())
	for l := len(p.irq) - 1; l >= 1; l-- {
		h := p.IRQ(l)
		if h.Count == 0 {
			continue
		}
		fmt.Fprintf(&b, "irq l%d latency: n=%d mean=%.0f min=%d max=%d cycles\n",
			l, h.Count, h.Mean(), h.Min, h.Max)
	}
	if d := p.ring.Dropped(); d > 0 {
		fmt.Fprintf(&b, "trace ring: %d events dropped (depth %d)\n", d, p.ring.Cap())
	}
	return b.String()
}
