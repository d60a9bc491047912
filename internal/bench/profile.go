package bench

import (
	"fmt"

	"synthesis/internal/prof"
)

// Profiled single-program runs: the entry point behind `synbench
// -profile-run` and `make profile`. One Table 1 program runs on a
// profiled Synthesis rig and the attached profiler comes back for
// reporting and trace export.

// Table1ProgramNames lists the programs RunProfiled accepts.
func Table1ProgramNames() []string {
	progs := table1Programs(1)
	names := make([]string, len(progs))
	for i, p := range progs {
		names[i] = p.name
	}
	return names
}

// RunProfiled runs one Table 1 program on a profiled Synthesis rig
// and returns the profiler holding the attribution.
func RunProfiled(name string, iters int32) (*prof.Profiler, error) {
	if iters <= 0 {
		iters = 200
	}
	for _, p := range table1Programs(iters) {
		if p.name != name {
			continue
		}
		r := NewProfiledSynthRig()
		_, err := runMarks(r, p.budget, 1, p.build)
		return r.K.Prof, err
	}
	return nil, fmt.Errorf("bench: unknown program %q (have %v)", name, Table1ProgramNames())
}
