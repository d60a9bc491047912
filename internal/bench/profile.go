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

// RunProfiled runs one program on a profiled Synthesis rig and returns
// the profiler holding the attribution and the loop count the program
// ran: iters, or its own fixed count (compute's 2,000), which is what a
// per-iteration figure divides by.
func RunProfiled(name string, iters int32) (*prof.Profiler, int32, error) {
	p, ok := findProgram(name, rowName)
	if !ok {
		return nil, 0, fmt.Errorf("bench: unknown program %q (have %v)", name, ProfiledProgramNames())
	}
	r := NewProfiledSynthRig()
	build, loops := p.at(iters)
	_, err := runMarks(r, 1, build)
	return r.K.Prof, loops, err
}
