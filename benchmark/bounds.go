package main

import (
	"fmt"
	"math"
	"sort"
)

// metricDef is one row of the benchmark's single table of metrics:
// its name, unit and direction, whether a user of the system sees it
// (end to end) or one layer does, and the bound by which it may
// worsen before -compare calls it a regression. BENCHMARK.json at the
// repository root mirrors this table (main_test.go holds the two
// together).
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	// endToEnd metrics are measured with tracing off and are the ones
	// BENCHMARK.json bounds; the rest are per-layer.
	endToEnd bool
	// rel is the share of the base value the metric may worsen by.
	// abs, when set, is an absolute allowance that must be exceeded as
	// well (setup_s: +25 % AND +0.05 s) or, with rel zero, on its own
	// (fail_ratio: +0.001). Both zero = reported, never gated.
	rel, abs float64
	// det metrics come off the cycle clock or a counter: they repeat
	// exactly on one commit, so between two commits any worsening
	// beyond detRel is a real change to a guest path.
	det bool
}

const (
	lower  = "lower"
	higher = "higher"
)

// detRel is the allowance on a deterministic metric: a tenth of a
// percent.
const detRel = 0.001

var metricDefs = []metricDef{
	// End to end.
	{name: "setup_s", unit: "s", better: lower, endToEnd: true, rel: 0.25, abs: 0.05},
	{name: "ops_per_s", unit: "op/s", better: higher, endToEnd: true, rel: 0.25},
	{name: "heap_live_mb", unit: "MB", better: lower, endToEnd: true, rel: 0.10},

	// The guest clock and the failure count are gated by -compare but
	// listed per-layer in BENCHMARK.json: the first reads exactly the
	// same on every run by design, the second is zero on a healthy
	// run, and the driver's contract wants neither of an end-to-end
	// metric.
	{name: "guest_us_per_op", unit: "us", better: lower, det: true},
	{name: "fail_ratio", unit: "ratio", better: lower, abs: 0.001},

	// m68k: the simulator.
	{name: "m68k.guest_mips", unit: "MIPS", better: higher},
	{name: "m68k.guest_instr_per_op", unit: "instr", better: lower, det: true},
	{name: "m68k.cycles_per_instr", unit: "cycles", better: lower, det: true},
	{name: "m68k.memrefs_per_op", unit: "count", better: lower, det: true},
	{name: "m68k.code_slots_per_op", unit: "count", better: lower, det: true},
	{name: "m68k.step_floor_ns_per_instr", unit: "ns", better: lower},
	{name: "m68k.translate_ns_per_slot", unit: "ns", better: lower},
	{name: "m68k.patch_rerun_ns", unit: "ns", better: lower},
	{name: "m68k.alloc_code_ns_per_slot", unit: "ns", better: lower},
	{name: "m68k.net_deliver_ns_per_frame", unit: "ns", better: lower},

	{name: "asmkit.link_ns_per_instr", unit: "ns", better: lower},

	{name: "synth.synthesize_host_us", unit: "us", better: lower},
	{name: "synth.synthesize_guest_us", unit: "us", better: lower, det: true},
	{name: "synth.optimize_ns_per_instr", unit: "ns", better: lower},
	{name: "synth.collapse_ns_per_call", unit: "ns", better: lower},
	{name: "synth.optimize_removed_ratio", unit: "ratio", better: higher, det: true},

	{name: "kernel.boot_host_ms", unit: "ms", better: lower},
	{name: "kernel.boot_guest_us", unit: "us", better: lower, det: true},
	{name: "kernel.boot_code_slots", unit: "count", better: lower, det: true},
	{name: "kernel.create_us", unit: "us", better: lower, det: true},
	{name: "kernel.destroy_us", unit: "us", better: lower, det: true},
	{name: "kernel.stop_us", unit: "us", better: lower, det: true},
	{name: "kernel.start_us", unit: "us", better: lower, det: true},
	{name: "kernel.block_us", unit: "us", better: lower, det: true},
	{name: "kernel.unblock_us", unit: "us", better: lower, det: true},
	{name: "kernel.ctx_switch_us", unit: "us", better: lower, det: true},
	{name: "kernel.yield_us", unit: "us", better: lower, det: true},
	{name: "kernel.create_code_slots", unit: "count", better: lower, det: true},
	{name: "kernel.run_chunk_host_ns", unit: "ns", better: lower},

	{name: "unixemu.lseek_us", unit: "us", better: lower, det: true},

	{name: "kio.install_host_ms", unit: "ms", better: lower},
	{name: "kio.open_tty_guest_us", unit: "us", better: lower, det: true},
	{name: "kio.open_null_guest_us", unit: "us", better: lower, det: true},
	{name: "kio.open_sock_guest_us", unit: "us", better: lower, det: true},
	{name: "kio.open_sock_host_us", unit: "us", better: lower},
	{name: "kio.open_tty_code_slots", unit: "count", better: lower, det: true},
	{name: "kio.open_sock_code_slots", unit: "count", better: lower, det: true},
	{name: "kio.pipe_1k_guest_us", unit: "us", better: lower, det: true},
	{name: "kio.sock_send_instr_per_call", unit: "instr", better: lower},
	{name: "kio.sock_recv_instr_per_call", unit: "instr", better: lower},

	{name: "fs.lookup_ns", unit: "ns", better: lower},
	{name: "alloc.alloc_free_ns", unit: "ns", better: lower},

	{name: "net.ring_put_get_ns", unit: "ns", better: lower},
	{name: "net.frame_codec_ns", unit: "ns", better: lower},
	{name: "net.checksum_ns_per_byte", unit: "ns", better: lower},

	{name: "metrics.counter_inc_ns", unit: "ns", better: lower},
	{name: "metrics.snapshot_us", unit: "us", better: lower},

	// cluster: the fleet, on the wall clock.
	{name: "cluster.rtt_mean_us", unit: "us", better: lower},
	{name: "cluster.rtt_p50_us", unit: "us", better: lower},
	{name: "cluster.rtt_p99_us", unit: "us", better: lower},
	{name: "cluster.guest_instr_per_echo", unit: "instr", better: lower},
	{name: "cluster.guest_mips", unit: "MIPS", better: higher},
	{name: "cluster.timeouts", unit: "count", better: lower},
	{name: "cluster.resends", unit: "count", better: lower},
	{name: "cluster.fabric_dropped", unit: "count", better: lower},
	{name: "cluster.stale", unit: "count", better: lower},
	{name: "cluster.bad_sum", unit: "count", better: lower},
	{name: "cluster.little_quotient", unit: "ratio", better: lower},
	{name: "cluster.new_host_ms", unit: "ms", better: lower},
	{name: "cluster.warm_ms", unit: "ms", better: lower},
	{name: "cluster.snapshot_ms", unit: "ms", better: lower},
	{name: "cluster.stop_ms", unit: "ms", better: lower},
	{name: "cluster.hop.fabric_out_p50_us", unit: "us", better: lower},
	{name: "cluster.hop.ingress_dwell_p50_us", unit: "us", better: lower},
	{name: "cluster.hop.irq_entry_p50_us", unit: "us", better: lower},
	{name: "cluster.hop.demux_p50_us", unit: "us", better: lower},
	{name: "cluster.hop.recv_wake_p50_us", unit: "us", better: lower},
	{name: "cluster.hop.guest_send_p50_us", unit: "us", better: lower},
	{name: "cluster.hop.fabric_back_p50_us", unit: "us", better: lower},
	{name: "cluster.hop.host_dwell_p50_us", unit: "us", better: lower},
	{name: "cluster.trace_conservation", unit: "ratio", better: lower},
	{name: "cluster.trace_completed_ratio", unit: "ratio", better: higher},

	// prof: where the guest cycles of the traced repeat went.
	{name: "prof.share.program", unit: "ratio", better: lower},
	{name: "prof.share.unixemu", unit: "ratio", better: lower},
	{name: "prof.share.kernel", unit: "ratio", better: lower},
	{name: "prof.share.kio", unit: "ratio", better: lower},
	{name: "prof.share.synthesis", unit: "ratio", better: lower},
	{name: "prof.share.idle", unit: "ratio", better: lower},
	{name: "prof.share.other", unit: "ratio", better: lower},
	{name: "prof.coverage", unit: "ratio", better: higher},
	{name: "prof.irq_net_latency_cycles", unit: "cycles", better: lower},
	{name: "prof.trace_overhead_x", unit: "x", better: lower},

	// Reference accuracy beside the guest numbers.
	// The baseline's own cost is a reference, not a goal: it is gated
	// only through the speedup beside it.
	{name: "sunos.guest_us_per_op", unit: "us", better: lower},
	{name: "sunos.speedup_x", unit: "x", better: higher, det: true},
	{name: "paper.speedup_gap_x", unit: "x", better: lower, det: true},

	// host: the Go side.
	{name: "host.ops_per_s_raw", unit: "op/s", better: higher},
	{name: "host.slowdown_x", unit: "x", better: lower},
	{name: "host.go_side_ns_per_op", unit: "ns", better: lower},
	{name: "host.alloc_bytes_per_op", unit: "B", better: lower},
	{name: "host.gc_cycles", unit: "count", better: lower},
	{name: "host.gc_pause_ms", unit: "ms", better: lower},
	{name: "host.rss_peak_mb", unit: "MB", better: lower},
}

func findMetric(name string) *metricDef {
	for i := range metricDefs {
		if metricDefs[i].name == name {
			return &metricDefs[i]
		}
	}
	return nil
}

// verdict is -compare's finding for one (metric, workload).
type verdict struct {
	Workload string
	Metric   string
	Base     float64
	New      float64
	Status   string // "ok", "regressed", "unresolved", "missing"
	Note     string
}

// worsening is how much worse b is than a in the metric's direction,
// as an absolute amount (positive = worse).
func (d *metricDef) worsening(a, b float64) float64 {
	if d.better == higher {
		return a - b
	}
	return b - a
}

// judge applies one metric's bound to a base value and a new value.
// spreadA/spreadB are the [min, max] each side saw over its repeats
// (zero when unknown): a worsening beyond the bound that the two
// spreads cannot tell apart is unresolved, not regressed.
func (d *metricDef) judge(a, b float64, spreadA, spreadB [2]float64) (string, string) {
	rel := d.relBound()
	if rel == 0 && d.abs == 0 {
		return "ok", ""
	}
	worse := d.worsening(a, b)
	overRel := rel == 0 || worse > rel*math.Abs(a)
	overAbs := d.abs == 0 || worse > d.abs
	if !(overRel && overAbs) {
		return "ok", ""
	}
	note := fmt.Sprintf("worse by %.4g (%.1f %%), bound %s", worse, 100*worse/math.Abs(a), d.boundText())
	if overlap(spreadA, spreadB) {
		return "unresolved", note + "; the two runs' repeat ranges overlap"
	}
	return "regressed", note
}

func overlap(a, b [2]float64) bool {
	if a == ([2]float64{}) || b == ([2]float64{}) {
		return false
	}
	return a[0] <= b[1] && b[0] <= a[1]
}

// relBound is the metric's relative bound: its own, or detRel for a
// deterministic metric that names none.
func (d *metricDef) relBound() float64 {
	if d.rel == 0 && d.det {
		return detRel
	}
	return d.rel
}

// gated reports whether -compare judges the metric at all.
func (d *metricDef) gated() bool { return d.relBound() > 0 || d.abs > 0 }

func (d *metricDef) boundText() string {
	rel := d.relBound()
	switch {
	case rel > 0 && d.abs > 0:
		return fmt.Sprintf("%.3g %% and %.3g %s", 100*rel, d.abs, d.unit)
	case rel > 0:
		return fmt.Sprintf("%.3g %%", 100*rel)
	case d.abs > 0:
		return fmt.Sprintf("%.3g %s", d.abs, d.unit)
	}
	return "none"
}

// compareResults judges every gated metric of every workload of the
// base set against the new set.
func compareResults(base, next *resultSet) []verdict {
	var out []verdict
	for _, wname := range sortedKeys(base.Workloads) {
		bw := base.Workloads[wname]
		nw, ok := next.Workloads[wname]
		if !ok {
			out = append(out, verdict{Workload: wname, Metric: "*", Status: "missing", Note: "workload absent from the new results"})
			continue
		}
		for _, mname := range sortedKeys(bw.Metrics) {
			d := findMetric(mname)
			if d == nil || !d.gated() {
				continue
			}
			v := verdict{Workload: wname, Metric: mname, Base: bw.Metrics[mname]}
			nv, ok := nw.Metrics[mname]
			if !ok {
				v.Status, v.Note = "missing", "metric absent from the new results"
			} else {
				v.New = nv
				v.Status, v.Note = d.judge(v.Base, nv, bw.Spread[mname], nw.Spread[mname])
			}
			out = append(out, v)
		}
	}
	return out
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
