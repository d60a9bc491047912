package main

import (
	"testing"

	"synthesis/internal/fault"
)

// TestWatchFaultSpecWithSemicolons: a machine-only spec written with
// the clause separator drives the -watch machine's injector, built
// from the one parsed plan.
func TestWatchFaultSpecWithSemicolons(t *testing.T) {
	plan, err := fault.Parse("drop=0.1;dup=0.1")
	if err != nil {
		t.Fatal(err)
	}
	k, rc := runWatch(2000, 1, "", 10, plan, 1, "", "")
	if rc != 0 {
		t.Fatalf("runWatch exit code %d", rc)
	}
	inj, ok := k.M.Inj.(*fault.Injector)
	if !ok {
		t.Fatalf("no injector attached (Inj = %T)", k.M.Inj)
	}
	if inj.Plan.Drop != 0.1 || inj.Plan.Dup != 0.1 {
		t.Fatalf("injector plan = %+v, want drop=0.1 dup=0.1", inj.Plan)
	}
	if inj.Stats.Frames == 0 {
		t.Error("the watch window sent no frame through the injector")
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
	k, rc := runWatch(2000, 6, "", 10, plan, 1, "", "")
	if rc != 0 {
		t.Fatalf("runWatch exit code %d", rc)
	}
	if n := k.Metrics.Snapshot().Counters["kio.net.recovery.throttle-on"]; n < 1 {
		t.Errorf("kio.net.recovery.throttle-on = %d after six windows of storm, want at least 1", n)
	}
}
