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
