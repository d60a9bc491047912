package main

import "testing"

// set builds a one-workload result set from metric values.
func set(metrics values, spread map[string][2]float64) *resultSet {
	return &resultSet{Workloads: map[string]*workloadResult{
		"pipe_rw": {Correct: true, Metrics: metrics, Spread: spread},
	}}
}

func status(t *testing.T, vs []verdict, metric string) string {
	t.Helper()
	for _, v := range vs {
		if v.Metric == metric {
			return v.Status
		}
	}
	t.Fatalf("no verdict for %s in %+v", metric, vs)
	return ""
}

func TestCompareFlagsRegression(t *testing.T) {
	base := set(values{"ops_per_s": 1000, "guest_us_per_op": 38.0}, nil)
	next := set(values{"ops_per_s": 700, "guest_us_per_op": 38.2}, nil)
	vs := compareResults(base, next)
	if got := status(t, vs, "ops_per_s"); got != "regressed" {
		t.Errorf("ops_per_s down 30%% (bound 25%%): %s, want regressed", got)
	}
	if got := status(t, vs, "guest_us_per_op"); got != "regressed" {
		t.Errorf("guest_us_per_op up 0.5%% (bound 0.1%%): %s, want regressed", got)
	}
}

func TestCompareWithinBoundPasses(t *testing.T) {
	base := set(values{"ops_per_s": 1000, "heap_live_mb": 50, "guest_us_per_op": 38.0, "fail_ratio": 0}, nil)
	next := set(values{"ops_per_s": 800, "heap_live_mb": 52, "guest_us_per_op": 38.0, "fail_ratio": 0.0005}, nil)
	for _, v := range compareResults(base, next) {
		if v.Status != "ok" {
			t.Errorf("%s: %s (%s), want ok", v.Metric, v.Status, v.Note)
		}
	}
	// Better is never a regression, however far.
	faster := set(values{"ops_per_s": 5000, "heap_live_mb": 1, "guest_us_per_op": 3, "fail_ratio": 0}, nil)
	for _, v := range compareResults(base, faster) {
		if v.Status != "ok" {
			t.Errorf("improved %s: %s, want ok", v.Metric, v.Status)
		}
	}
}

func TestCompareSetupNeedsBothParts(t *testing.T) {
	cases := []struct {
		name      string
		base, new float64
		want      string
	}{
		{"tiny set-up doubles but stays under 0.05 s absolute", 0.002, 0.004, "ok"},
		{"large set-up grows 0.06 s but only 6 %", 1.0, 1.06, "ok"},
		{"grows 50 % and 0.1 s", 0.2, 0.3, "regressed"},
	}
	for _, c := range cases {
		vs := compareResults(set(values{"setup_s": c.base}, nil), set(values{"setup_s": c.new}, nil))
		if got := status(t, vs, "setup_s"); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareMissingMetricAndWorkload(t *testing.T) {
	base := set(values{"ops_per_s": 1000, "guest_us_per_op": 38}, nil)
	next := set(values{"ops_per_s": 1000}, nil)
	if got := status(t, compareResults(base, next), "guest_us_per_op"); got != "missing" {
		t.Errorf("dropped metric: %s, want missing", got)
	}
	empty := &resultSet{Workloads: map[string]*workloadResult{}}
	vs := compareResults(base, empty)
	if len(vs) != 1 || vs[0].Status != "missing" || vs[0].Workload != "pipe_rw" {
		t.Errorf("dropped workload: %+v, want one missing verdict for pipe_rw", vs)
	}
}

func TestCompareOverlappingSpreadsAreUnresolved(t *testing.T) {
	base := set(values{"ops_per_s": 1000}, map[string][2]float64{"ops_per_s": {800, 1100}})
	next := set(values{"ops_per_s": 700}, map[string][2]float64{"ops_per_s": {650, 900}})
	if got := status(t, compareResults(base, next), "ops_per_s"); got != "unresolved" {
		t.Errorf("30%% down with overlapping repeat ranges: %s, want unresolved", got)
	}
	apart := set(values{"ops_per_s": 700}, map[string][2]float64{"ops_per_s": {690, 710}})
	if got := status(t, compareResults(base, apart), "ops_per_s"); got != "regressed" {
		t.Errorf("30%% down with disjoint repeat ranges: %s, want regressed", got)
	}
}

func TestCompareDeterministicCountGatedOneWay(t *testing.T) {
	base := set(values{"kernel.boot_code_slots": 1200}, nil)
	for slots, want := range map[float64]string{1200: "ok", 1100: "ok", 1203: "regressed"} {
		if got := status(t, compareResults(base, set(values{"kernel.boot_code_slots": slots}, nil)), "kernel.boot_code_slots"); got != want {
			t.Errorf("1200 -> %v slots: %s, want %s", slots, got, want)
		}
	}
}
