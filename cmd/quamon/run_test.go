package main

import (
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
		if _, endless, _ := bench.Program(name, 0); !endless {
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

// TestWatchFaultSpecWithSemicolons: a machine-only spec written with
// the clause separator drives the run's injector, built from the one
// parsed plan, and the default workload's frames pass through it.
func TestWatchFaultSpecWithSemicolons(t *testing.T) {
	plan, err := fault.Parse("drop=0.1;dup=0.1")
	if err != nil {
		t.Fatal(err)
	}
	k, rc := run(runOpts{program: traffic, intervalUS: 2000, windows: 1, faults: plan, faultSeed: 1})
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
	k, rc := run(runOpts{program: traffic, intervalUS: 2000, windows: 6, faults: plan, faultSeed: 1})
	if rc != 0 {
		t.Fatalf("run exit code %d", rc)
	}
	if n := k.Metrics.Snapshot().Counters["kio.net.recovery.throttle-on"]; n < 1 {
		t.Errorf("kio.net.recovery.throttle-on = %d after six windows of storm, want at least 1", n)
	}
}
