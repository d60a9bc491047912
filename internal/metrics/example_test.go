package metrics_test

import (
	"fmt"

	"synthesis/internal/metrics"
)

// The handle idiom: a hot path asks the registry for its handles once
// and updates them with single atomic operations. On a nil *Registry
// every constructor returns a nil handle and every update is a
// nil-check no-op, so instrumented code needs no "is the plane on?"
// branches of its own.
func ExampleRegistry_Counter() {
	r := metrics.New()
	sent := r.Counter("kio.sock.9.tx_frames")
	for i := 0; i < 3; i++ {
		sent.Inc()
	}
	sent.Add(2)

	var off *metrics.Registry                 // disabled plane
	off.Counter("kio.sock.9.tx_frames").Inc() // no-op, no panic

	fmt.Println(sent.Value())
	fmt.Println(r.Snapshot().Counters["kio.sock.9.tx_frames"])
	// Output:
	// 5
	// 5
}

// Gauges hold a level rather than a count: queue depths, live-thread
// counts, buffer residency.
func ExampleRegistry_Gauge() {
	r := metrics.New()
	depth := r.Gauge("kio.pipe.0.depth")
	depth.Set(7)
	depth.Set(3) // levels overwrite; they do not accumulate

	fmt.Println(r.Snapshot().Gauges["kio.pipe.0.depth"])
	// Output:
	// 3
}

// Histograms log-bucket their observations: cheap enough for
// per-interrupt latencies, detailed enough for percentile reporting.
func ExampleRegistry_Hist() {
	r := metrics.New()
	lat := r.Hist("prof.irq.l6.latency_cycles")
	for _, cycles := range []uint64{30, 32, 32, 34, 900} {
		lat.Observe(cycles)
	}

	h := r.Snapshot().Hists["prof.irq.l6.latency_cycles"]
	fmt.Println(h.Count, h.Min, h.Max)
	fmt.Printf("p50 within observed range: %v\n",
		h.Quantile(0.5) >= 30 && h.Quantile(0.5) <= 64)
	// Output:
	// 5 30 900
	// p50 within observed range: true
}

// Sampled metrics serve values the hot path already maintains
// elsewhere — typically a cell in Quamachine memory that synthesized
// code bumps with a folded AddL. The closure runs only at Snapshot
// time, so the hot path stays untouched.
func ExampleRegistry_Sample() {
	r := metrics.New()
	cell := uint64(0) // stands in for a VM memory cell
	r.Sample("unixemu.sys.read.calls", func() uint64 { return cell })

	cell = 41 // the guest made 41 read calls
	fmt.Println(r.Snapshot().Counters["unixemu.sys.read.calls"])
	// Output:
	// 41
}

// Delta subtracts two snapshots — the idiom behind quamon's
// per-window rates.
func ExampleSnapshot_Delta() {
	r := metrics.New()
	c := r.Counter("kernel.thread.creates")

	c.Add(2)
	before := r.Snapshot()
	c.Add(5)
	after := r.Snapshot()

	fmt.Println(after.Delta(before).Counters["kernel.thread.creates"])
	// Output:
	// 5
}
