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

// paperRatios are SUN time / Synthesis time from Table 1 (total
// column): compute 20/21.1, pipes 10/0.18, 15/0.96, 38/8.5, file
// 21/2.4, open null 17/0.7, open tty 43/1.4.
var paperRatios = map[string]float64{
	"compute":         20.0 / 21.1,
	"pipe r/w 1 B":    10.0 / 0.18,
	"pipe r/w 1 KB":   15.0 / 0.96,
	"pipe r/w 4 KB":   38.0 / 8.5,
	"file r/w 1 KB":   21.0 / 2.4,
	"open-close null": 17.0 / 0.7,
	"open-close tty":  43.0 / 1.4,
}

// runOnBoth runs a program builder on fresh instances of both rigs
// and returns per-iteration microseconds.
func runOnBoth(build func(*asmkit.Builder), iters int32, budget uint64) (synthUS, sunUS float64, err error) {
	s, err := runMarks(NewSynthRig(), budget, 1, build)
	if err != nil {
		return 0, 0, err
	}
	u, err := runMarks(NewSunRig(), budget, 1, build)
	if err != nil {
		return 0, 0, err
	}
	return s[0] / float64(iters), u[0] / float64(iters), nil
}

// t1prog is one Table 1 benchmark program.
type t1prog struct {
	name   string
	iters  int32
	budget uint64
	build  func(*asmkit.Builder)
}

// table1Programs returns the seven Table 1 programs; the profiling
// entry points (RunProfiled) share this list with Table1 itself.
func table1Programs(iters int32) []t1prog {
	return []t1prog{
		{"compute", 2000, 3_000_000_000, func(b *asmkit.Builder) { BuildCompute(b, 2000) }},
		{"pipe r/w 1 B", iters, 3_000_000_000, func(b *asmkit.Builder) { BuildPipeRW(b, iters, 1) }},
		{"pipe r/w 1 KB", iters, 6_000_000_000, func(b *asmkit.Builder) { BuildPipeRW(b, iters, 1024) }},
		{"pipe r/w 4 KB", iters, 20_000_000_000, func(b *asmkit.Builder) { BuildPipeRW(b, iters, 4096) }},
		{"file r/w 1 KB", iters, 8_000_000_000, func(b *asmkit.Builder) { BuildFileRW(b, iters) }},
		{"open-close null", iters, 4_000_000_000, func(b *asmkit.Builder) { BuildOpenClose(b, iters, addrNameNull) }},
		{"open-close tty", iters, 4_000_000_000, func(b *asmkit.Builder) { BuildOpenClose(b, iters, addrNameTTY) }},
	}
}

// Table1 regenerates the measured-UNIX-system-calls comparison at
// iters loop iterations (200 when not positive).
func Table1(iters int32) (Table, error) {
	if iters <= 0 {
		iters = 200
	}
	t := Table{
		Title: "Table 1: Measured UNIX system calls, SUNOS baseline vs Synthesis emulator",
		Note: "per-iteration microseconds at the SUN 3/160 point; 'paper' column is the\n" +
			"paper's speedup ratio (SUN seconds / Synthesis seconds), ours alongside",
	}

	for _, p := range table1Programs(iters) {
		synthUS, sunUS, err := runOnBoth(p.build, p.iters, p.budget)
		if err != nil {
			return t, fmt.Errorf("%s: %w", p.name, err)
		}
		ratio := sunUS / synthUS
		t.Rows = append(t.Rows,
			Row{
				Name:     p.name + " (speedup sun/synthesis)",
				Paper:    paperRatios[p.name],
				Measured: ratio,
				Unit:     "x",
				Note: fmt.Sprintf("synthesis %.1f us/it, sunos %.1f us/it",
					synthUS, sunUS),
			})
	}
	return t, nil
}
