package bench

import (
	"fmt"

	"synthesis/internal/prof"
)

// Profiled single-program runs: the entry point behind `synbench
// -profile-run` and `make profile`. One named program with marks (Table
// 1's and the socket echo loop) runs on a profiled Synthesis rig and
// the attached profiler comes back for reporting and trace export.

// ProfiledProgramNames lists the programs RunProfiled accepts.
func ProfiledProgramNames() []string { return programNames(rowName) }

// RunProfiled runs one program on a profiled Synthesis rig
// and returns the profiler holding the attribution.
func RunProfiled(name string, iters int32) (*prof.Profiler, error) {
	p, ok := findProgram(name, rowName)
	if !ok {
		return nil, fmt.Errorf("bench: unknown program %q (have %v)", name, ProfiledProgramNames())
	}
	r := NewProfiledSynthRig()
	build, _ := p.at(iters)
	_, err := runMarks(r, 1, build)
	return r.K.Prof, err
}
