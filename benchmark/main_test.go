package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"
)

// asMainEnv makes the test binary behave as the benchmark command, so
// the smoke test can drive the real re-executing parent: runAll
// launches os.Executable(), which under `go test` is this binary.
const asMainEnv = "BENCHMARK_TEST_AS_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(asMainEnv) == "1" {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)

// readmeNames collects the first backticked name of every table row
// under the README heading that starts with the given text.
func readmeNames(t *testing.T, heading string) map[string]bool {
	t.Helper()
	b, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	in := false
	row := regexp.MustCompile("^\\| `([^`]+)`")
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "## ") {
			in = strings.HasPrefix(line, "## "+heading)
			continue
		}
		if m := row.FindStringSubmatch(line); in && m != nil {
			names[m[1]] = true
		}
	}
	if len(names) == 0 {
		t.Fatalf("README.md has no table rows under %q", heading)
	}
	return names
}

// TestSmoke runs the whole benchmark at -quick sizes through the real
// parent (one child per workload and run kind) and holds the three
// lists of names together: what the run emits, what BENCHMARK.json
// declares, and what the README documents.
func TestSmoke(t *testing.T) {
	out := t.TempDir()
	t.Setenv(asMainEnv, "1")
	done := make(chan int, 1) // buffered: the run may finish after the deadline gave up on it
	var stdout, stderr bytes.Buffer
	start := time.Now()
	go func() { done <- run([]string{"-quick", "-seconds", "0.05", "-out", out}, &stdout, &stderr) }()
	select {
	case code := <-done:
		if code != 0 {
			t.Fatalf("quick run exited %d\nstderr:\n%s\nstdout:\n%s", code, stderr.String(), stdout.String())
		}
	case <-time.After(3 * time.Minute):
		t.Fatalf("quick run still going after 3 minutes")
	}
	t.Logf("quick run took %v", time.Since(start))

	var set resultSet
	if err := readJSON(filepath.Join(out, "results.json"), &set); err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}
	if err := readJSON(filepath.Join(out, "trace.json"), &trace); err != nil {
		t.Fatal(err)
	}
	if len(trace.TraceEvents) == 0 {
		t.Error("trace.json holds no events")
	}
	for _, e := range trace.TraceEvents {
		// Self time is duration minus children: negative means spans
		// of two runs were filed under one parent.
		if self, ok := e.Args["self_us"].(float64); ok && self < -1 {
			t.Errorf("span %q (pid %d) has self time %v us", e.Name, e.PID, self)
		}
	}

	emittedW, emittedE2E, emittedLayer := map[string]bool{}, map[string]bool{}, map[string]bool{}
	for wname, w := range set.Workloads {
		emittedW[wname] = true
		if !w.Correct || w.Failed != 0 {
			t.Errorf("%s: correct=%v failed=%d", wname, w.Correct, w.Failed)
		}
		for mname := range w.Metrics {
			d := findMetric(mname)
			switch {
			case d == nil:
				t.Errorf("%s emits %s, which the metric table does not define", wname, mname)
			case d.endToEnd:
				emittedE2E[mname] = true
			default:
				emittedLayer[mname] = true
			}
		}
		// Every end-to-end metric exists on every workload.
		for _, d := range metricDefs {
			if _, ok := w.Metrics[d.name]; d.endToEnd && !ok {
				t.Errorf("%s lacks end-to-end metric %s", wname, d.name)
			}
		}
	}

	var man manifest
	if err := readJSON(filepath.Join("..", "BENCHMARK.json"), &man); err != nil {
		t.Fatal(err)
	}
	if want := buildManifest(); !reflect.DeepEqual(man, want) {
		got, _ := json.MarshalIndent(man, "", "  ")
		exp, _ := json.MarshalIndent(want, "", "  ")
		t.Errorf("BENCHMARK.json differs from the tables in this directory; regenerate it with `go run ./benchmark -manifest`\n--- file\n%s\n--- tables\n%s", got, exp)
	}
	manW, manE2E, manLayer := map[string]bool{}, map[string]bool{}, map[string]bool{}
	for _, w := range man.Workloads {
		manW[w.Name] = true
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	for _, m := range man.EndToEnd {
		manE2E[m.Name] = true
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, m := range man.PerLayer {
		manLayer[m.Name] = true
	}

	for _, c := range []struct {
		what          string
		emitted, man  map[string]bool
		readmeHeading string
		limit         int
	}{
		{"workloads", emittedW, manW, "Workloads", 8},
		{"end-to-end metrics", emittedE2E, manE2E, "End-to-end metrics", 16},
		{"per-layer metrics", emittedLayer, manLayer, "Per-layer metrics", 128},
	} {
		readme := readmeNames(t, c.readmeHeading)
		if e, m := sortedKeys(c.emitted), sortedKeys(c.man); !reflect.DeepEqual(e, m) {
			t.Errorf("%s: emitted %v, BENCHMARK.json has %v", c.what, e, m)
		}
		if r, m := sortedKeys(readme), sortedKeys(c.man); !reflect.DeepEqual(r, m) {
			t.Errorf("%s: README.md has %v, BENCHMARK.json has %v", c.what, r, m)
		}
		if len(c.man) > c.limit {
			t.Errorf("%d %s, limit %d", len(c.man), c.what, c.limit)
		}
		for n := range c.man {
			if !nameRE.MatchString(n) || len(n) > 64 {
				t.Errorf("%s: name %q is not [A-Za-z0-9_.-]+ of at most 64 characters", c.what, n)
			}
		}
	}
	if !manE2E["setup_s"] {
		t.Error("BENCHMARK.json must bound setup_s")
	}
}

// TestDriverLine checks the single-workload mode's contract: the last
// line of standard output is one JSON object with exactly the four
// keys, and its metrics are exactly the run kind's.
func TestDriverLine(t *testing.T) {
	for _, traced := range []bool{false, true} {
		var stdout, stderr bytes.Buffer
		args := []string{"-workload", "pipe_rw", "-quick", "-seconds", "0.05", "-seed", "7", "-out", t.TempDir(), "-trace", "0"}
		if traced {
			args[len(args)-1] = "1"
		}
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("exit %d: %s", code, stderr.String())
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var line map[string]json.RawMessage
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
			t.Fatalf("last line is not JSON: %v\n%s", err, lines[len(lines)-1])
		}
		var keys []string
		for k := range line {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		if want := []string{"attempted", "correct", "failed", "metrics"}; !reflect.DeepEqual(keys, want) {
			t.Errorf("trace=%v: keys %v, want %v", traced, keys, want)
		}
		var got map[string]driverValue
		if err := json.Unmarshal(line["metrics"], &got); err != nil {
			t.Fatal(err)
		}
		for _, d := range metricDefs {
			v, ok := got[d.name]
			if want := d.endToEnd != traced; ok != want {
				t.Errorf("trace=%v: metric %s present=%v, want %v", traced, d.name, ok, want)
			}
			if ok && v.Unit != d.unit {
				t.Errorf("metric %s: unit %q, want %q", d.name, v.Unit, d.unit)
			}
			if ok && d.endToEnd && v.Value <= 0 {
				t.Errorf("end-to-end metric %s = %v, must never be 0", d.name, v.Value)
			}
		}
	}
}

func TestUnknownWorkloadAndBadCompare(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-workload", "nope", "-out", t.TempDir()}, &stdout, &stderr); code != 2 {
		t.Errorf("unknown workload: exit %d, want 2", code)
	}
	if code := run([]string{"-compare", "only-one.json"}, &stdout, &stderr); code != 2 {
		t.Errorf("-compare with one file: exit %d, want 2", code)
	}
}
