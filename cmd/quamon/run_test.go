package main

import (
	"strings"
	"testing"

	"synthesis/internal/bench"
	"synthesis/internal/fault"
)

// traffic is the default workload: Table 6's loopback exchange without
// end.
const traffic = "sock traffic 128 B"

// TestEndlessProgramsRunWindows: every endless program in the bench
// list, which RunProfiled refuses, runs its windows here to the end
// without exiting.
func TestEndlessProgramsRunWindows(t *testing.T) {
	const windows, intervalUS = 2, 2000
	for _, name := range bench.ProgramNames() {
		if _, _, endless, _ := bench.Program(name); !endless {
			continue
		}
		k, rc := run(runOpts{program: name, intervalUS: intervalUS, windows: windows})
		if rc != 0 {
			t.Fatalf("%s: exit code %d", name, rc)
		}
		if want := uint64(windows * intervalUS * k.M.ClockMHz); k.M.Instrs == 0 || k.M.Cycles < want {
			t.Errorf("%s: %d instructions in %d cycles, want some in at least %d", name, k.M.Instrs, k.M.Cycles, want)
		}
	}
}

// TestFiniteProgramEndsTheWindows: "open-close tty" runs its 200 loops
// in about 16.7 ms of guest time, so ten windows of 2,000 µs outlast it
// and the run ends by the program's exit, not the last window: the
// machine has halted, so the kernel's Run returns nil, and the program
// closed its one marked interval.
func TestFiniteProgramEndsTheWindows(t *testing.T) {
	const windows, intervalUS = 10, 2000
	k, rc := run(runOpts{program: "open-close tty", intervalUS: intervalUS, windows: windows})
	if rc != 0 {
		t.Fatalf("exit code %d", rc)
	}
	if err := k.Run(1); err != nil {
		t.Fatalf("the program had not exited after %d windows: %v", windows, err)
	}
	if n := len(k.M.MarkMicros()); n != 1 {
		t.Errorf("%d marked intervals, want 1", n)
	}
}

// TestWatchFaultSpecWithSemicolons: a machine-only spec written with
// the clause separator drives the run's injector, built from the one
// parsed plan, and the default workload's frames pass through it.
func TestWatchFaultSpecWithSemicolons(t *testing.T) {
	plan, err := fault.Parse("drop=0.1;dup=0.1")
	if err != nil {
		t.Fatal(err)
	}
	k, rc := run(runOpts{program: traffic, intervalUS: 2000, windows: 1, faults: plan, seed: 1})
	if rc != 0 {
		t.Fatalf("run exit code %d", rc)
	}
	inj, ok := k.M.Inj.(*fault.Injector)
	if !ok {
		t.Fatalf("no injector attached (Inj = %T)", k.M.Inj)
	}
	if inj.Plan.Drop != 0.1 || inj.Plan.Dup != 0.1 {
		t.Fatalf("injector plan = %+v, want drop=0.1 dup=0.1", inj.Plan)
	}
	if inj.Stats.Frames == 0 {
		t.Error("the window sent no frame through the injector")
	}
}

// TestWatchThrottlesAStorm: an interrupt storm on the NIC's level, 100
// entries every 3,000 cycles, reaches the watchdog as about 47 handler
// entries per window; the threshold Table 7 measures at engages the
// throttle within six 2,000 µs windows.
func TestWatchThrottlesAStorm(t *testing.T) {
	plan, err := fault.Parse("storm=2@20000:3000x100")
	if err != nil {
		t.Fatal(err)
	}
	k, rc := run(runOpts{program: traffic, intervalUS: 2000, windows: 6, faults: plan, seed: 1})
	if rc != 0 {
		t.Fatalf("run exit code %d", rc)
	}
	if n := k.Metrics.Snapshot().Counters["kio.net.recovery.throttle-on"]; n < 1 {
		t.Errorf("kio.net.recovery.throttle-on = %d after six windows of storm, want at least 1", n)
	}
}

// TestTraceZeroRunsTheFastLoop: with -trace 0 and neither -profile nor
// -trace-json, no profiler is attached, so the default program runs
// Run's fast loop and its collapsed copy loops, as production does;
// -trace N attaches one and its program trace holds N entries.
func TestTraceZeroRunsTheFastLoop(t *testing.T) {
	k, rc := run(runOpts{program: traffic, intervalUS: 2000, windows: 2})
	if rc != 0 {
		t.Fatalf("run exit code %d", rc)
	}
	c := k.Metrics.Snapshot().Counters
	passes, slow := c["m68k.dispatch.collapsed_passes"], c["m68k.dispatch.slow_steps"]
	if k.Prof != nil || passes == 0 || slow*10 > k.M.Instrs {
		t.Errorf("profiler %v, %d collapsed passes, %d slow steps of %d instructions; "+
			"want none, some, and under a tenth", k.Prof != nil, passes, slow, k.M.Instrs)
	}

	const n = 48
	k, rc = run(runOpts{program: traffic, intervalUS: 2000, windows: 2, traceN: n})
	if rc != 0 {
		t.Fatalf("-trace %d: run exit code %d", n, rc)
	}
	if k.Prof == nil {
		t.Fatalf("-trace %d attached no profiler", n)
	}
	if got := strings.Count(k.Prof.Tail(n), "\n"); got != n {
		t.Errorf("-trace %d: the program trace's tail has %d entries", n, got)
	}
}

// TestProgramTakesListNamesOnly: -program resolves bench program names
// and nothing else; a path to a file that exists is an unknown program,
// and the error lists the names it would take.
func TestProgramTakesListNamesOnly(t *testing.T) {
	_, err := resolveProgram("run.go")
	if err == nil {
		t.Fatal(`resolveProgram("run.go") succeeded`)
	}
	if !strings.Contains(err.Error(), "unknown program") || !strings.Contains(err.Error(), traffic) {
		t.Errorf(`resolveProgram("run.go"): %v; want the unknown-program error listing the names`, err)
	}
}
