package bench

import "testing"

// TestTable1AttributionCoverage is the acceptance check for the
// measurement plane: across every profiled program (Table 1's and the
// socket echo) on the profiled Synthesis rig, at least 95% of all machine cycles must be
// attributed to named regions (quaject routines, the benchmark
// binary, idle, synthesis) rather than falling out as unattributed.
func TestTable1AttributionCoverage(t *testing.T) {
	if testing.Short() {
		t.Skip("full Table 1 sweep under -short")
	}
	iters := int32(40)
	var sumAttr, sumWindow uint64
	for _, name := range ProfiledProgramNames() {
		p, err := RunProfiled(name, iters)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		cov := p.Coverage()
		t.Logf("%-16s coverage %.3f (%d of %d cycles)", name, cov, p.Attributed(), p.Window())
		if cov < 0.95 {
			t.Errorf("%s: coverage %.3f < 0.95; top:\n%s", name, cov, p.Report(12, 0))
		}
		sumAttr += p.Attributed()
		sumWindow += p.Window()
	}
	total := float64(sumAttr) / float64(sumWindow)
	t.Logf("aggregate coverage %.3f", total)
	if total < 0.95 {
		t.Errorf("aggregate coverage %.3f < 0.95", total)
	}
}

// TestRunProfiledUnknown rejects unknown program names.
func TestRunProfiledUnknown(t *testing.T) {
	if _, err := RunProfiled("no-such-program", 1); err == nil {
		t.Fatal("expected error for unknown program")
	}
}

// TestRegistry covers the Run contract the front ends (synbench, the
// root benchmark suite) rely on; TestNamesOrdering covers Names.
func TestRegistry(t *testing.T) {
	if _, err := Run("no-such-table", RunConfig{}); err == nil {
		t.Fatal("expected error for unknown table")
	}
	// No table owns a fabric, so fleet clauses are not part of the
	// grammar here.
	if _, err := Run("2", RunConfig{FaultSpec: "link=0>1:drop=0.1"}); err == nil {
		t.Fatal("fleet fault clause accepted by a single-machine table")
	}
}
