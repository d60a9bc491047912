package metrics

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

// The registry's concurrency contract: handle updates are lock-free
// atomics and may race freely with Snapshot. Run under -race (the
// Makefile's race target includes this package).
func TestConcurrentIncrementAndSnapshot(t *testing.T) {
	r := New()
	c := r.Counter("test.ops")
	g := r.Gauge("test.depth")
	h := r.Hist("test.lat")

	const workers = 8
	const perWorker = 10_000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				c.Inc()
				g.Set(float64(i))
				h.Observe(uint64(i % 100))
			}
		}(w)
	}
	// Snapshot continuously while the writers run.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			s := r.Snapshot()
			if s.Counters["test.ops"] > workers*perWorker {
				t.Errorf("snapshot counter overshot: %d", s.Counters["test.ops"])
				return
			}
		}
	}()
	wg.Wait()
	<-done

	s := r.Snapshot()
	if got := s.Counters["test.ops"]; got != workers*perWorker {
		t.Errorf("counter = %d, want %d", got, workers*perWorker)
	}
	if got := s.Hists["test.lat"].Count; got != workers*perWorker {
		t.Errorf("hist count = %d, want %d", got, workers*perWorker)
	}
}

func TestNilHandlesAndNilRegistry(t *testing.T) {
	var r *Registry
	// Every path on a disabled plane must be a no-op, not a panic.
	r.Counter("x").Add(3)
	r.Counter("x").Inc()
	r.Gauge("x").Set(1)
	r.Hist("x").Observe(7)
	r.Sample("x", func() uint64 { return 1 })
	r.SampleGauge("x", func() float64 { return 1 })
	r.SetClock(func() uint64 { return 0 }, 16)
	r.Collect(func(c Collector) { c.Counter("x", 1) })
	if n := r.Names(); n != nil {
		t.Errorf("nil registry Names = %v", n)
	}
	s := r.Snapshot()
	if s.Cycles != 0 || len(s.Counters) != 0 {
		t.Errorf("nil registry snapshot = %+v", s)
	}
	if v := (*Counter)(nil).Value(); v != 0 {
		t.Errorf("nil counter Value = %d", v)
	}
	if v := (*Gauge)(nil).Value(); v != 0 {
		t.Errorf("nil gauge Value = %g", v)
	}
	if hs := (*Hist)(nil).Snapshot(); hs.Count != 0 {
		t.Errorf("nil hist snapshot = %+v", hs)
	}
}

// Histogram bucket boundaries: bucket 0 is exact zeros, bucket i is
// [2^(i-1), 2^i), the last bucket saturates.
func TestHistBucketBoundaries(t *testing.T) {
	cases := []struct {
		v    uint64
		want int
	}{
		{0, 0},
		{1, 1},
		{2, 2},
		{3, 2},
		{4, 3},
		{7, 3},
		{8, 4},
		{1023, 10},
		{1024, 11},
		{1 << 31, 32},
		{1<<32 - 1, 32},
		{1 << 32, 33},
		{1 << 40, NumBuckets - 1},
		{^uint64(0), NumBuckets - 1},
	}
	for _, c := range cases {
		if got := BucketOf(c.v); got != c.want {
			t.Errorf("BucketOf(%d) = %d, want %d", c.v, got, c.want)
		}
	}
	// Upper bounds are consistent with bucket assignment: a value one
	// below the bound stays in the bucket, the bound itself moves up.
	for i := 1; i < NumBuckets-1; i++ {
		up := BucketUpper(i)
		if BucketOf(up-1) != i {
			t.Errorf("BucketOf(BucketUpper(%d)-1) = %d, want %d", i, BucketOf(up-1), i)
		}
		if BucketOf(up) != i+1 {
			t.Errorf("BucketOf(BucketUpper(%d)) = %d, want %d", i, BucketOf(up), i+1)
		}
	}
}

func TestHistStats(t *testing.T) {
	h := &Hist{}
	for _, v := range []uint64{0, 1, 2, 4, 8, 100, 1000} {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != 7 {
		t.Errorf("count = %d", s.Count)
	}
	if s.Min != 0 || s.Max != 1000 {
		t.Errorf("min/max = %d/%d, want 0/1000", s.Min, s.Max)
	}
	if s.Sum != 1115 {
		t.Errorf("sum = %d", s.Sum)
	}
	if q := s.Quantile(0); q != 0 {
		t.Errorf("p0 = %g, want 0", q)
	}
	if q := s.Quantile(1); q < 512 || q > 1024 {
		t.Errorf("p100 = %g, want within the top bucket", q)
	}
	if m := s.Mean(); m < 159 || m > 160 {
		t.Errorf("mean = %g", m)
	}
}

func TestSnapshotDeltaAndSampled(t *testing.T) {
	cell := uint64(0)
	cyc := uint64(0)
	r := New()
	r.SetClock(func() uint64 { return cyc }, 16) // 16 MHz: 16 cycles = 1 µs
	r.Sample("vm.cell", func() uint64 { return cell })
	c := r.Counter("host.ops")

	s0 := r.Snapshot()
	c.Add(32)
	cell = 10
	cyc = 16_000_000 // one simulated second
	s1 := r.Snapshot()

	d := s1.Delta(s0)
	if d.Counters["host.ops"] != 32 || d.Counters["vm.cell"] != 10 {
		t.Errorf("delta counters = %v", d.Counters)
	}
	if us := d.Micros(); us != 1e6 {
		t.Errorf("delta micros = %g, want 1e6", us)
	}
	if rate := d.Rate("host.ops"); rate != 32 {
		t.Errorf("rate = %g, want 32/s", rate)
	}

	// A counter that went backwards (torn-down cell) restarts.
	cell = 3
	s2 := r.Snapshot()
	if d := s2.Delta(s1); d.Counters["vm.cell"] != 3 {
		t.Errorf("restart delta = %d, want 3", d.Counters["vm.cell"])
	}
}

// Sub views: per-VM prefixing over one shared plane. A cluster boots
// each kernel against reg.Sub("vm<i>.") and one Snapshot sees the
// whole fleet.
func TestSubPrefixSharing(t *testing.T) {
	r := New()
	vm1 := r.Sub("vm1.")
	vm2 := r.Sub("vm2.")

	vm1.Counter("kio.sock.5.rx_frames").Add(10)
	vm2.Counter("kio.sock.5.rx_frames").Add(20)
	r.Counter("cluster.fabric.routed").Add(30)
	vm1.Sample("kernel.live_threads", func() uint64 { return 4 })
	vm2.SampleGauge("kio.sock.5.queue_depth", func() float64 { return 2 })
	vm1.Hist("prof.irq.l1.latency_cycles").Observe(8)

	// Any view snapshots the whole plane with fully qualified names.
	for _, view := range []*Registry{r, vm1, vm2} {
		s := view.Snapshot()
		if s.Counters["vm1.kio.sock.5.rx_frames"] != 10 ||
			s.Counters["vm2.kio.sock.5.rx_frames"] != 20 ||
			s.Counters["cluster.fabric.routed"] != 30 ||
			s.Counters["vm1.kernel.live_threads"] != 4 {
			t.Errorf("view %q snapshot counters = %v", view.Prefix(), s.Counters)
		}
		if s.Gauges["vm2.kio.sock.5.queue_depth"] != 2 {
			t.Errorf("view %q snapshot gauges = %v", view.Prefix(), s.Gauges)
		}
		if s.Hists["vm1.prof.irq.l1.latency_cycles"].Count != 1 {
			t.Errorf("view %q snapshot hists = %v", view.Prefix(), s.Hists)
		}
	}

	// Same name through the same view resolves to the same handle.
	if vm1.Counter("kio.sock.5.rx_frames") != vm1.Counter("kio.sock.5.rx_frames") {
		t.Error("repeated Counter through a view returned distinct handles")
	}
	// Distinct views keep distinct handles.
	if vm1.Counter("kio.sock.5.rx_frames") == vm2.Counter("kio.sock.5.rx_frames") {
		t.Error("vm1 and vm2 views share a counter handle")
	}

	// Sub views nest, and Sub of nil is a valid disabled plane.
	if got := vm1.Sub("x.").Prefix(); got != "vm1.x." {
		t.Errorf("nested Sub prefix = %q", got)
	}
	var nilReg *Registry
	sub := nilReg.Sub("vm0.")
	if sub != nil {
		t.Error("Sub of nil registry is not nil")
	}
	sub.Counter("x").Inc() // must not panic
}

// A collector reports under the prefix of the view that registered
// it, on every snapshot and only then, and Names never lists what it
// reports.
func TestCollect(t *testing.T) {
	r := New()
	vm1 := r.Sub("vm1.")
	inner := vm1.Sub("kio.")
	calls := 0
	open := map[string]uint64{"sock.5.rx_frames": 3}
	report := func(c Collector) {
		calls++
		for n, v := range open {
			c.Counter(n, v)
		}
		c.Gauge("depth", float64(len(open)))
	}
	r.Collect(report)
	inner.Collect(report)
	r.Counter("registered")
	if calls != 0 {
		t.Fatalf("collectors ran %d times before a snapshot", calls)
	}

	s := vm1.Snapshot()
	if calls != 2 {
		t.Errorf("one snapshot ran the collectors %d times, want 2", calls)
	}
	want := map[string]uint64{"registered": 0, "sock.5.rx_frames": 3, "vm1.kio.sock.5.rx_frames": 3}
	if len(s.Counters) != len(want) {
		t.Errorf("counters = %v, want %v", s.Counters, want)
	}
	for n, v := range want {
		if got, ok := s.Counters[n]; !ok || got != v {
			t.Errorf("counter %s = %d (present %v), want %d", n, got, ok, v)
		}
	}
	if s.Gauges["depth"] != 1 || s.Gauges["vm1.kio.depth"] != 1 {
		t.Errorf("gauges = %v", s.Gauges)
	}
	if got := strings.Join(r.Names(), ","); got != "registered" {
		t.Errorf("Names = %q, want only the registered metric", got)
	}

	// What is gone from the record is gone from the next snapshot.
	delete(open, "sock.5.rx_frames")
	open["fd.t.0.bytes"] = 9
	s = r.Snapshot()
	if _, ok := s.Counters["vm1.kio.sock.5.rx_frames"]; ok {
		t.Errorf("closed object still reported: %v", s.Counters)
	}
	if s.Counters["vm1.kio.fd.t.0.bytes"] != 9 || s.Counters["fd.t.0.bytes"] != 9 {
		t.Errorf("new object not reported: %v", s.Counters)
	}

	// A nil registry and its views take a collector and never run it.
	var nr *Registry
	nr.Sub("vm0.").Collect(report)
	nr.Collect(report)
	if s := nr.Snapshot(); calls != 4 || len(s.Counters) != 0 {
		t.Errorf("nil registry ran a collector: calls %d, snapshot %+v", calls, s)
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	r := New()
	r.SetClock(func() uint64 { return 4242 }, 16)
	r.Counter("a.b").Add(7)
	r.Gauge("c.d").Set(2.5)
	r.Hist("e.f").Observe(3)
	var buf bytes.Buffer
	if err := r.Snapshot().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if back.Cycles != 4242 || back.Counters["a.b"] != 7 || back.Gauges["c.d"] != 2.5 {
		t.Errorf("round trip lost data: %+v", back)
	}
	if back.Hists["e.f"].Count != 1 {
		t.Errorf("hist lost: %+v", back.Hists)
	}
}

// Golden test for the Prometheus text exposition: fixed input, exact
// expected output.
func TestPrometheusGolden(t *testing.T) {
	r := New()
	r.SetClock(func() uint64 { return 1600 }, 16)
	r.Counter("kernel.spurious_irq", "Interrupts with no pending device cause.").Add(3)
	r.Counter("kio.sock.7.tx_fail").Add(1)
	r.Gauge("kio.sock.7.queue_depth", "Frames queued on the socket.").Set(2)
	h := r.Hist("prof.irq.l6.latency_cycles", "IRQ raise-to-entry latency at IPL 6, in cycles.")
	h.Observe(0)
	h.Observe(5)
	h.Observe(6)

	var buf bytes.Buffer
	if err := r.Snapshot().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	const golden = `# HELP synthesis_kernel_spurious_irq Interrupts with no pending device cause.
# TYPE synthesis_kernel_spurious_irq counter
synthesis_kernel_spurious_irq 3
# TYPE synthesis_kio_sock_7_tx_fail counter
synthesis_kio_sock_7_tx_fail 1
# HELP synthesis_kio_sock_7_queue_depth Frames queued on the socket.
# TYPE synthesis_kio_sock_7_queue_depth gauge
synthesis_kio_sock_7_queue_depth 2
# HELP synthesis_prof_irq_l6_latency_cycles IRQ raise-to-entry latency at IPL 6, in cycles.
# TYPE synthesis_prof_irq_l6_latency_cycles histogram
synthesis_prof_irq_l6_latency_cycles_bucket{le="0"} 1
synthesis_prof_irq_l6_latency_cycles_bucket{le="1"} 1
synthesis_prof_irq_l6_latency_cycles_bucket{le="3"} 1
synthesis_prof_irq_l6_latency_cycles_bucket{le="7"} 3
synthesis_prof_irq_l6_latency_cycles_bucket{le="+Inf"} 3
synthesis_prof_irq_l6_latency_cycles_sum 11
synthesis_prof_irq_l6_latency_cycles_count 3
# HELP synthesis_vm_cycles VM clock at sample time (divide by clock_mhz for simulated microseconds).
# TYPE synthesis_vm_cycles counter
synthesis_vm_cycles 1600
# HELP synthesis_vm_clock_mhz Simulated clock rate of the snapshot's cycle source.
# TYPE synthesis_vm_clock_mhz gauge
synthesis_vm_clock_mhz 16
`
	if got := buf.String(); got != golden {
		t.Errorf("prometheus exposition drifted:\n--- got ---\n%s--- want ---\n%s", got, golden)
	}
}

// Help-string registration semantics: first non-empty wins, Sub
// prefixes apply, sampled metrics carry help, teardown removes it,
// newlines/backslashes are escaped in the exposition, and JSON output
// is unchanged by descriptions.
func TestHelpRegistration(t *testing.T) {
	r := New()
	vm1 := r.Sub("vm1.")
	vm1.Counter("kio.sock.5.rx_frames", "Frames received.")
	vm1.Counter("kio.sock.5.rx_frames")                 // bare lookup keeps it
	vm1.Counter("kio.sock.5.rx_frames", "Overwritten?") // later text loses
	vm1.Sample("kernel.live_threads", func() uint64 { return 4 }, "Threads alive.")
	r.Gauge("weird", "line one\nline two \\ done")

	s := r.Snapshot()
	if s.Help["vm1.kio.sock.5.rx_frames"] != "Frames received." {
		t.Errorf("help = %q", s.Help["vm1.kio.sock.5.rx_frames"])
	}
	if s.Help["vm1.kernel.live_threads"] != "Threads alive." {
		t.Errorf("sampled help = %q", s.Help["vm1.kernel.live_threads"])
	}
	var buf bytes.Buffer
	if err := s.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "# HELP synthesis_vm1_kio_sock_5_rx_frames Frames received.\n") {
		t.Errorf("missing counter HELP:\n%s", out)
	}
	if !strings.Contains(out, `# HELP synthesis_weird line one\nline two \\ done`+"\n") {
		t.Errorf("help escaping drifted:\n%s", out)
	}

	// JSON exposition ignores descriptions entirely.
	buf.Reset()
	if err := s.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "Frames received") {
		t.Errorf("help leaked into JSON:\n%s", buf.String())
	}

	// Nil plane: help variants must stay no-ops.
	var nr *Registry
	nr.Counter("x", "desc")
	nr.Sample("x", func() uint64 { return 0 }, "desc")
}
