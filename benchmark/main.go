// Command benchmark is the repository's one benchmark: seven
// fixed-work workloads measured on two clocks (the guest's cycle
// clock and the host's wall clock), a per-layer budget, and a traced
// run. See README.md in this directory.
//
//	go run ./benchmark                     every workload, both runs each; writes benchmark/out/
//	go run ./benchmark -workload W -seed N -seconds S -trace 0|1
//	                                       one run of one workload; last line is its JSON result
//	go run ./benchmark -compare A.json B.json
//	                                       apply the bounds table to two result files
//	go run ./benchmark -manifest           print BENCHMARK.json from the tables here
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// resultSet is results.json: every workload's merged metrics.
type resultSet struct {
	Seed      int64                      `json:"seed"`
	Env       environment                `json:"env"`
	Workloads map[string]*workloadResult `json:"workloads"`
}

// workloadResult merges a workload's untraced run (end-to-end
// metrics) with its per-layer run.
type workloadResult struct {
	Repeats   int                   `json:"repeats"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Correct   bool                  `json:"correct"`
	Metrics   values                `json:"metrics"`
	Spread    map[string][2]float64 `json:"spread,omitempty"`
}

// driverLine is the one-line result the single-workload mode ends
// its standard output with.
type driverLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]driverValue `json:"metrics"`
}

type driverValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		wname    = fs.String("workload", "", "run one workload and end with its one-line JSON result (default: all, merged)")
		seed     = fs.Int64("seed", 1, "seeds payloads and buffer patterns")
		seconds  = fs.Float64("seconds", 6, "how long one run's timed repeats go on")
		trace    = fs.Int("trace", 0, "with -workload: 0 = end-to-end run, 1 = per-layer run (traced repeat and probes)")
		quick    = fs.Bool("quick", false, "smoke-test sizes: every number is meaningless, every code path runs")
		outDir   = fs.String("out", filepath.Join("benchmark", "out"), "directory for results.json and trace.json")
		compare  = fs.Bool("compare", false, "compare two results.json files: -compare BASE NEW")
		manifest = fs.Bool("manifest", false, "print BENCHMARK.json as the tables in this directory define it")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		return runCompare(fs.Args(), stdout, stderr)
	}
	if *manifest {
		js, err := json.MarshalIndent(buildManifest(), "", "  ")
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "%s\n", js)
		return 0
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "benchmark: unexpected arguments %v\n", fs.Args())
		return 2
	}
	pinProcs()
	o := options{seed: *seed, seconds: *seconds, trace: *trace != 0, sz: fullSizes}
	if *quick {
		o.sz = quickSizes
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	if *wname == "" {
		return runAll(o, *quick, *outDir, stdout, stderr)
	}
	w := findWorkload(*wname)
	if w == nil {
		fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", *wname)
		return 2
	}
	return runOne(w, o, *outDir, stdout, stderr)
}

// runFile is where one run of one workload leaves its full result
// (metrics with spreads, environment, spans) for the merging parent.
func runFile(outDir, workload string, trace bool) string {
	t := 0
	if trace {
		t = 1
	}
	return filepath.Join(outDir, fmt.Sprintf("run-%s-t%d.json", workload, t))
}

// runOne is the single-workload mode: run, print every metric of the
// run's kind by name with unit, leave the full result in outDir, and
// end with the one-line JSON result.
func runOne(w *workload, o options, outDir string, stdout, stderr io.Writer) int {
	res := runWorkload(w, o)
	for _, p := range res.Problems {
		fmt.Fprintf(stderr, "benchmark: %s: %s\n", w.name, p)
	}
	if err := writeJSON(runFile(outDir, w.name, o.trace), res); err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	line := driverLine{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]driverValue{}}
	fmt.Fprintf(stdout, "workload %s seed %d repeats %d\n", w.name, o.seed, res.Repeats)
	for _, d := range metricDefs {
		if d.endToEnd == o.trace {
			continue
		}
		// A per-layer metric that does not exist on this workload
		// reads 0 here; results.json leaves it out instead.
		v, ok := res.Metrics[d.name]
		line.Metrics[d.name] = driverValue{Value: v, Unit: d.unit}
		if ok {
			fmt.Fprintf(stdout, "  %-36s %16.6g %s\n", d.name, v, d.unit)
		}
	}
	js, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", js)
	if !res.Correct {
		return 1
	}
	return 0
}

// runAll re-executes this binary once per workload and run kind, so
// heap and GC state are per run, then merges what the children left
// in outDir.
func runAll(o options, quick bool, outDir string, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	set := &resultSet{Seed: o.seed, Env: readEnvironment(), Workloads: map[string]*workloadResult{}}
	var spans []span
	ok := true
	for i := range workloads {
		w := &workloads[i]
		merged := &workloadResult{Correct: true, Metrics: values{}, Spread: map[string][2]float64{}}
		for _, traced := range []bool{false, true} {
			args := []string{
				"-workload", w.name, "-seed", fmt.Sprint(o.seed), "-seconds", fmt.Sprint(o.seconds),
				"-trace", map[bool]string{false: "0", true: "1"}[traced], "-out", outDir,
			}
			if quick {
				args = append(args, "-quick")
			}
			// A crashed child must not be mistaken for the previous
			// run's leftovers.
			_ = os.Remove(runFile(outDir, w.name, traced))
			var childOut bytes.Buffer
			cmd := exec.Command(self, args...)
			cmd.Stdout, cmd.Stderr = &childOut, stderr
			runErr := cmd.Run()
			var res result
			if err := readJSON(runFile(outDir, w.name, traced), &res); err != nil {
				fmt.Fprintf(stderr, "benchmark: %s: run failed (%v) and left no result: %v\n%s", w.name, runErr, err, childOut.String())
				return 1
			}
			mergeRun(merged, &res)
			spans = append(spans, res.Spans...)
		}
		set.Workloads[w.name] = merged
		ok = ok && merged.Correct
		printWorkload(stdout, w.name, merged)
	}
	if err := writeJSON(filepath.Join(outDir, "results.json"), set); err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	tj, err := chromeTrace(spans)
	if err == nil {
		err = os.WriteFile(filepath.Join(outDir, "trace.json"), tj, 0o644)
	}
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "wrote %s and %s\n", filepath.Join(outDir, "results.json"), filepath.Join(outDir, "trace.json"))
	if !ok {
		return 1
	}
	return 0
}

// mergeRun folds one run into the workload's merged result: the
// untraced run owns the end-to-end metrics, the per-layer run owns
// everything else, and failures count from both.
func mergeRun(into *workloadResult, res *result) {
	into.Correct = into.Correct && res.Correct
	into.Attempted += res.Attempted
	into.Failed += res.Failed
	if !res.Trace {
		into.Repeats = res.Repeats
	}
	for name, v := range res.Metrics {
		if d := findMetric(name); d == nil || d.endToEnd == res.Trace {
			continue
		}
		into.Metrics[name] = v
		if sp, ok := res.Spread[name]; ok {
			into.Spread[name] = sp
		}
	}
	into.Metrics["fail_ratio"] = float64(into.Failed) / float64(into.Attempted)
}

func printWorkload(w io.Writer, name string, r *workloadResult) {
	fmt.Fprintf(w, "%s  (%d repeats, %d attempted, %d failed, correct=%v)\n", name, r.Repeats, r.Attempted, r.Failed, r.Correct)
	for _, d := range metricDefs {
		v, ok := r.Metrics[d.name]
		if !ok {
			continue
		}
		spread := ""
		if sp, ok := r.Spread[d.name]; ok {
			spread = fmt.Sprintf("  [min %.6g max %.6g]", sp[0], sp[1])
		}
		fmt.Fprintf(w, "  %-36s %16.6g %-7s%s\n", d.name, v, d.unit, spread)
	}
}

func runCompare(files []string, stdout, stderr io.Writer) int {
	if len(files) != 2 {
		fmt.Fprintln(stderr, "benchmark: -compare takes two result files: BASE NEW")
		return 2
	}
	var sets [2]resultSet
	for i, f := range files {
		if err := readJSON(f, &sets[i]); err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 2
		}
	}
	counts := map[string]int{}
	for _, v := range compareResults(&sets[0], &sets[1]) {
		counts[v.Status]++
		if v.Status != "ok" {
			fmt.Fprintf(stdout, "%-10s %-11s %-34s %14.6g -> %-14.6g %s\n", v.Status, v.Workload, v.Metric, v.Base, v.New, v.Note)
		}
	}
	fmt.Fprintf(stdout, "%d ok, %d regressed, %d unresolved, %d missing\n",
		counts["ok"], counts["regressed"], counts["unresolved"], counts["missing"])
	if counts["regressed"] > 0 || counts["missing"] > 0 {
		return 1
	}
	return 0
}

func writeJSON(path string, v any) error {
	js, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(js, '\n'), 0o644)
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// The driver's manifest, BENCHMARK.json at the repository root, is
// this directory's tables in the driver's format.

type manifest struct {
	Command    []string           `json:"command"`
	Paths      []string           `json:"paths"`
	RunSeconds int                `json:"run_seconds"`
	Workloads  []manifestWorkload `json:"workloads"`
	EndToEnd   []manifestBounded  `json:"end_to_end"`
	PerLayer   []manifestMetric   `json:"per_layer"`
}

type manifestWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type manifestMetric struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

type manifestBounded struct {
	manifestMetric
	Bound float64 `json:"bound"`
}

// driverRunSeconds is how long the driver lets one run's timed
// repeats go on: about ten repeats of each workload.
const driverRunSeconds = 10

func buildManifest() manifest {
	m := manifest{
		Command:    []string{"go", "run", "./benchmark"},
		Paths:      []string{"benchmark"},
		RunSeconds: driverRunSeconds,
	}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, manifestWorkload{Name: w.name, Why: w.why})
	}
	for _, d := range metricDefs {
		mm := manifestMetric{Name: d.name, Unit: d.unit, Better: d.better}
		if d.endToEnd {
			m.EndToEnd = append(m.EndToEnd, manifestBounded{mm, d.rel})
		} else {
			m.PerLayer = append(m.PerLayer, mm)
		}
	}
	return m
}
