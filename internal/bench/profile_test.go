package bench

import (
	"fmt"
	"strings"
	"testing"
)

// TestTable1AttributionCoverage is the acceptance check for the
// measurement plane: across every profiled program (Table 1's and the
// socket echo) on the profiled Synthesis rig, at least 95% of all machine cycles must be
// attributed to named regions (quaject routines, the benchmark
// binary, idle, synthesis) rather than falling out as unattributed.
func TestTable1AttributionCoverage(t *testing.T) {
	if testing.Short() {
		t.Skip("full Table 1 sweep under -short")
	}
	var sumAttr, sumWindow uint64
	for _, prog := range programs {
		if prog.endless {
			continue
		}
		name := prog.name
		p, _, err := RunProfiled(name)
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

// TestRunProfiledComputeLoops: compute's list count is its own 2,000,
// and RunProfiled returns it, so its program reads its loop body,
// about 18 instructions, an iteration, in the profile and in the
// instrs/it column of the report synbench -profile-run prints.
func TestRunProfiledComputeLoops(t *testing.T) {
	p, loops, err := RunProfiled("compute")
	if err != nil {
		t.Fatal(err)
	}
	if loops != 2000 {
		t.Fatalf("compute ran %d loops, want its own 2000", loops)
	}
	for _, s := range p.Top(0) {
		if s.Name != "bench.program" {
			continue
		}
		per := float64(s.Instrs) / float64(loops)
		if per < 16 || per > 20 {
			t.Errorf("compute's program runs %.2f instructions an iteration, want about 18", per)
		}
		report := p.Report(0, uint64(loops))
		for line := range strings.Lines(report) {
			if strings.HasPrefix(line, "bench.program ") {
				if want := fmt.Sprintf(" %.2f\n", per); !strings.HasSuffix(line, want) {
					t.Errorf("report line %q does not end in instrs/it%q", line, want)
				}
				return
			}
		}
		t.Fatalf("no bench.program line in the report:\n%s", report)
	}
	t.Fatal("no bench.program region in the profile")
}

// TestEveryProgramRuns: every name in the one list resolves, each
// program that exits runs through RunProfiled at its list count and
// marks its loop, and so does the same binary on the SunOS baseline, and
// RunProfiled refuses each endless one, which would run to the runaway
// budget. quamon's tests run the endless ones.
func TestEveryProgramRuns(t *testing.T) {
	for _, name := range ProgramNames() {
		build, _, endless, err := Program(name)
		if err != nil {
			t.Fatal(err)
		}
		if !endless {
			mt := &meter{}
			mt.run(NewSunRig(), 1, build)
			if mt.err != nil {
				t.Errorf("%s: %v", name, mt.err)
			}
		}
		p, _, err := RunProfiled(name)
		switch {
		case endless && err == nil:
			t.Errorf("%s: RunProfiled ran an endless program", name)
		case !endless && err != nil:
			t.Errorf("%s: %v", name, err)
		case !endless && p.Window() == 0:
			t.Errorf("%s: profiled no cycles", name)
		}
	}
}

// TestRunProfiledUnknown rejects unknown program names.
func TestRunProfiledUnknown(t *testing.T) {
	if _, _, err := RunProfiled("no-such-program"); err == nil {
		t.Fatal("expected error for unknown program")
	}
}

// TestRegistry covers the Run contract synbench relies on;
// TestNamesOrdering covers Names.
func TestRegistry(t *testing.T) {
	if _, err := Run("no-such-table"); err == nil {
		t.Fatal("expected error for unknown table")
	}
}
