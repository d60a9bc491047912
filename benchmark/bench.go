package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"synthesis/internal/asmkit"
	"synthesis/internal/kernel"
)

// options are what one workload run is given.
type options struct {
	seed    int64
	seconds float64 // how long the timed repeats may go on
	trace   bool    // per-layer run: fewer timed repeats, then the traced repeat and the probes
	sz      sizes
}

// minRepeats is the fewest timed repeats a run reports a median of;
// maxRepeats bounds a run on a host much faster than the reference.
const (
	minRepeats = 3
	maxRepeats = 64
)

// repeat is what one repeat of fixed work on a fresh rig measured.
type repeat struct {
	reg    region
	ops    int
	failed int
	host   hostCounters
	// runSlow is the host's slowdown (calib.go) while running: the
	// region's wall time divided by it is what the same work would
	// have taken on the quiet reference host.
	runSlow float64
}

// values maps a metric name to its measured value.
type values map[string]float64

// result is one workload run.
type result struct {
	Workload  string   `json:"workload"`
	Seed      int64    `json:"seed"`
	Trace     bool     `json:"trace"`
	Repeats   int      `json:"repeats"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Correct   bool     `json:"correct"`
	Problems  []string `json:"problems,omitempty"`
	Metrics   values   `json:"metrics"`
	// Spread holds [min, max] over the timed repeats for the metrics
	// that are medians of them.
	Spread map[string][2]float64 `json:"spread,omitempty"`
	Env    environment           `json:"env"`
	Spans  []span                `json:"spans,omitempty"`
}

func (r *result) problem(format string, args ...any) {
	r.Correct = false
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

// single runs one repeat of a single-machine workload: fresh rig,
// fixed work, output check. The returned rig stays referenced by the
// caller while it measures the retained heap.
func single(w *workload, o options, tr *tracer, host *hostSpeed, profile bool) (repeat, *rig, error) {
	n := w.ops(o.sz)
	sp := tr.begin("repeat")
	defer tr.end(sp)

	rep := repeat{ops: int(n)}
	var r *rig
	var thread *kernel.Thread
	var check func() (int, error)
	tr.in("setup", func() {
		r = newRig(tr, host, profile, o.seed)
		thread, check = w.build(r, tr, n)
	})

	h0 := readHost()
	// The budget is generous (a wedge, not a slow path, should trip
	// it): the slowest operation, file_rw's, is under 10 000 cycles.
	err := r.run(tr, thread, 40_000*uint64(n)+100_000_000)
	rep.host = readHost().sub(h0)
	rep.runSlow = host.take()
	if err != nil {
		return rep, r, fmt.Errorf("%s: %w", w.name, err)
	}
	if rep.reg, err = r.rec.region(); err != nil {
		return rep, r, fmt.Errorf("%s: %w", w.name, err)
	}
	tr.in("verify", func() { rep.failed, err = check() })
	if err != nil {
		return rep, r, fmt.Errorf("%s: output check: %w", w.name, err)
	}
	return rep, r, nil
}

// setupWarmups is how many set-ups a run discards before it samples:
// the first ones pay for cold code paths and a heap still growing.
const setupWarmups = 2

// timedSetups measures set-up on its own, before the repeats and so
// on the same small heap in every run: each sample is one rig
// construction from a collected heap, between two yardstick slices,
// quoted at reference host speed. (Set-up takes a millisecond or two;
// timed once per repeat, in whatever state the previous repeat left
// the heap, its median moved by tens of percent from run to run.)
func timedSetups(tr *tracer, host *hostSpeed, n int, setup func() (teardown func(), err error)) ([]float64, error) {
	sp := tr.begin("timed setups")
	defer tr.end(sp)
	var secs []float64
	for i := 0; i < setupWarmups+n; i++ {
		runtime.GC()
		host.slice()
		var teardown func()
		var err error
		d := tr.in("setup", func() { teardown, err = setup() })
		host.slice()
		slow := host.take()
		teardown()
		if err != nil {
			return nil, err
		}
		if i >= setupWarmups {
			secs = append(secs, d.Seconds()/slow)
		}
	}
	return secs, nil
}

// timedRepeats runs fixed-work repeats until the time allowance is
// used (at least minRepeats) and returns them with the retained heap
// measured after the last one.
func timedRepeats(allowance float64, one func() (repeat, any, error)) ([]repeat, float64, error) {
	var reps []repeat
	start := time.Now()
	for {
		runtime.GC() // every repeat starts from a collected heap
		rep, keep, err := one()
		if err != nil {
			return reps, 0, err
		}
		reps = append(reps, rep)
		elapsed := time.Since(start).Seconds()
		next := elapsed / float64(len(reps))
		if len(reps) >= maxRepeats || (len(reps) >= minRepeats && elapsed+next > allowance) {
			heap := heapLiveMB()
			runtime.KeepAlive(keep)
			return reps, heap, nil
		}
	}
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func minMax(xs []float64) [2]float64 {
	lo, hi := xs[0], xs[0]
	for _, x := range xs {
		lo, hi = min(lo, x), max(hi, x)
	}
	return [2]float64{lo, hi}
}

// summarize turns the timed repeats into the per-workload metrics:
// the end-to-end ones and the W rows of the per-layer table.
func summarize(res *result, reps []repeat, setups []float64, heapMB float64, deterministic bool) {
	var walls, rawWalls, slows, mips []float64
	var host hostCounters
	for _, r := range reps {
		walls = append(walls, r.reg.wall.Seconds()/r.runSlow)
		rawWalls = append(rawWalls, r.reg.wall.Seconds())
		slows = append(slows, r.runSlow)
		mips = append(mips, float64(r.reg.instrs)/r.reg.wall.Seconds()/1e6)
		res.Attempted += r.ops
		res.Failed += r.failed
		host.allocBytes += r.host.allocBytes
		host.gcCycles += r.host.gcCycles
		host.gcPauseNS += r.host.gcPauseNS
	}
	res.Repeats = len(reps)
	first := reps[0]
	ops := float64(first.ops)
	wall := median(walls)
	m := res.Metrics

	m["setup_s"] = median(setups)
	m["ops_per_s"] = ops / wall
	m["heap_live_mb"] = heapMB
	m["fail_ratio"] = float64(res.Failed) / float64(res.Attempted)
	res.Spread["setup_s"] = minMax(setups)
	res.Spread["ops_per_s"] = [2]float64{ops / minMax(walls)[1], ops / minMax(walls)[0]}

	m["host.ops_per_s_raw"] = ops / median(rawWalls)
	m["host.slowdown_x"] = median(slows)
	m["m68k.guest_mips"] = median(mips)
	m["host.alloc_bytes_per_op"] = float64(host.allocBytes) / float64(res.Attempted)
	m["host.gc_cycles"] = float64(host.gcCycles)
	m["host.gc_pause_ms"] = float64(host.gcPauseNS) / 1e6
	m["host.rss_peak_mb"] = rssPeakMB()

	if !deterministic {
		return
	}
	// The cycle clock and the machine's counters must repeat exactly:
	// same binary, same inputs, no host time in the measured path.
	for _, r := range reps[1:] {
		for _, c := range []struct {
			name string
			a, b uint64
		}{
			{"guest_us_per_op", first.reg.cycles, r.reg.cycles},
			{"m68k.guest_instr_per_op", first.reg.instrs, r.reg.instrs},
			{"m68k.memrefs_per_op", first.reg.memrefs, r.reg.memrefs},
			{"m68k.code_slots_per_op", first.reg.slots, r.reg.slots},
		} {
			if c.a != c.b {
				res.problem("%s is not deterministic: %d then %d over the same work", c.name, c.a, c.b)
			}
		}
	}
	m["guest_us_per_op"] = float64(first.reg.cycles) / sun3MHz / ops
	m["m68k.guest_instr_per_op"] = float64(first.reg.instrs) / ops
	m["m68k.cycles_per_instr"] = float64(first.reg.cycles) / float64(first.reg.instrs)
	m["m68k.memrefs_per_op"] = float64(first.reg.memrefs) / ops
	m["m68k.code_slots_per_op"] = float64(first.reg.slots) / ops
}

// sun3MHz is the clock of the SUN 3/160 emulation point every guest
// microsecond is quoted at.
const sun3MHz = 16.0

// runWorkload is one complete run of one workload: the timed repeats,
// and in a per-layer run the traced repeat, the reference kernel and
// the layer probes that belong to this workload.
func runWorkload(w *workload, o options) *result {
	// The two runs of one workload are two processes in trace.json:
	// each numbers its spans from 1.
	kind := " end-to-end"
	if o.trace {
		kind = " per-layer"
	}
	tr := newTracer(w.name + kind)
	res := &result{
		Workload: w.name, Seed: o.seed, Trace: o.trace, Correct: true,
		Metrics: values{}, Spread: map[string][2]float64{}, Env: readEnvironment(),
	}
	root := tr.begin("workload " + w.name)

	allowance := o.seconds
	if o.trace {
		allowance = o.seconds / 3
	}
	var err error
	if w.fleet() {
		err = runFleet(w, o, allowance, tr, res)
	} else {
		err = runSingleMachine(w, o, allowance, tr, res)
	}
	if err != nil {
		res.problem("%v", err)
	}
	if res.Failed > 0 {
		res.problem("%d of %d operations failed", res.Failed, res.Attempted)
	}
	if res.Attempted == 0 {
		res.Attempted = 1 // nothing ran; the run is reported as one failed attempt
		res.Failed = 1
	}
	tr.end(root)
	res.Spans = tr.spans
	return res
}

func runSingleMachine(w *workload, o options, allowance float64, tr *tracer, res *result) error {
	host := newHostSpeed()
	setups, err := timedSetups(tr, host, o.sz.setups, func() (func(), error) {
		w.build(newRig(tr, host, false, o.seed), tr, w.ops(o.sz))
		return func() {}, nil
	})
	if err != nil {
		return err
	}
	tsp := tr.begin("timed repeats")
	reps, heap, err := timedRepeats(allowance, func() (repeat, any, error) {
		rep, r, err := single(w, o, tr, host, false)
		return rep, r, err
	})
	tr.end(tsp)
	if err != nil {
		return err
	}
	summarize(res, reps, setups, heap, true)
	if !o.trace {
		return nil
	}

	m := res.Metrics
	floor := probeStepFloor(tr, o.sz)
	m["m68k.step_floor_ns_per_instr"] = floor
	m["host.go_side_ns_per_op"] = 1e9/m["host.ops_per_s_raw"] - m["m68k.guest_instr_per_op"]*floor

	if err := tracedSingle(w, o, tr, host, res); err != nil {
		return err
	}
	if err := sunReference(w, o, tr, res); err != nil {
		return err
	}
	return runProbes(w.name, o, tr, res)
}

// sunReference runs the same binary on the baseline kernel and puts
// the paper's ratio beside ours.
func sunReference(w *workload, o options, tr *tracer, res *result) error {
	m := res.Metrics
	if w.unix == nil {
		return nil // native Synthesis calls: the baseline has no counterpart
	}
	n := min(o.sz.sunos, w.ops(o.sz))
	sp := tr.begin("sunos reference")
	defer tr.end(sp)
	r := newSunRig(o.seed)
	b := asmkit.New()
	check := w.unix(b, r.k.Heap, n)
	if err := r.k.Run(b.Link(r.k.M), 200_000*uint64(n)+100_000_000); err != nil {
		return fmt.Errorf("sunos reference: %w", err)
	}
	if r.k.Panicked() {
		return fmt.Errorf("sunos reference: baseline kernel panicked")
	}
	reg, err := r.rec.region()
	if err != nil {
		return fmt.Errorf("sunos reference: %w", err)
	}
	failed, err := check(r.k.M)
	if err != nil || failed > 0 {
		return fmt.Errorf("sunos reference: %d operations failed the output check (%v)", failed, err)
	}
	sun := float64(reg.cycles) / sun3MHz / float64(n)
	m["sunos.guest_us_per_op"] = sun
	m["sunos.speedup_x"] = sun / m["guest_us_per_op"]
	if w.paperRatio > 0 {
		m["paper.speedup_gap_x"] = gap(m["sunos.speedup_x"], w.paperRatio)
	}
	return nil
}

// gap is how far apart two ratios are, whichever is larger: 1 = equal.
func gap(ours, paper float64) float64 {
	if ours <= 0 || paper <= 0 {
		return 0
	}
	return max(ours/paper, paper/ours)
}
