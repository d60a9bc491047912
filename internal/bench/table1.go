package bench

import (
	"fmt"

	"synthesis/internal/asmkit"
)

// Table 1: the seven UNIX programs on SUNOS (traditional baseline)
// versus the Synthesis kernel under UNIX emulation, identical
// binaries, identical emulated hardware. The paper reports elapsed
// seconds for an (unpublished) iteration count; the reproducible
// quantity is the per-iteration cost and above all the RATIO —
// "several times to several dozen times speedup". We report both
// kernels' per-iteration microseconds and the speedup next to the
// paper's.
//
// Iteration counts are scaled down (the interpreted Quamachine is a
// few hundred times slower than silicon); per-iteration cost is flat
// in the loop count, which the harness asserts in its tests.

// runOnBoth runs a program builder on fresh instances of both rigs
// and returns per-iteration microseconds.
func runOnBoth(build func(*asmkit.Builder), iters int32) (synthUS, sunUS float64, err error) {
	s, err := runMarks(NewSynthRig(), 1, build)
	if err != nil {
		return 0, 0, err
	}
	u, err := runMarks(NewSunRig(), 1, build)
	if err != nil {
		return 0, 0, err
	}
	return s[0] / float64(iters), u[0] / float64(iters), nil
}

// Table1 regenerates the measured-UNIX-system-calls comparison at
// iters loop iterations (200 when not positive): one row for each
// program with a paper ratio.
func Table1(iters int32) (Table, error) {
	t := Table{
		Title: "Table 1: Measured UNIX system calls, SUNOS baseline vs Synthesis emulator",
		Note: "per-iteration microseconds at the SUN 3/160 point; 'paper' column is the\n" +
			"paper's speedup ratio (SUN seconds / Synthesis seconds), ours alongside",
	}

	for _, p := range programs {
		if p.paper == 0 {
			continue
		}
		synthUS, sunUS, err := runOnBoth(p.at(iters))
		if err != nil {
			return t, fmt.Errorf("%s: %w", p.name, err)
		}
		ratio := sunUS / synthUS
		t.Rows = append(t.Rows,
			Row{
				Name:     p.name + " (speedup sun/synthesis)",
				Paper:    p.paper,
				Measured: ratio,
				Unit:     "x",
				Note: fmt.Sprintf("synthesis %.1f us/it, sunos %.1f us/it",
					synthUS, sunUS),
			})
	}
	return t, nil
}
