package bench

import (
	"fmt"

	"synthesis/internal/asmkit"
	"synthesis/internal/prof"
)

// Profiled single-program runs: the entry point behind `synbench
// -profile-run` and `make profile`. One Table 1 program, or the socket
// echo loop, runs on a profiled Synthesis rig and the attached profiler
// comes back for reporting and trace export.

// profiledPrograms are the programs RunProfiled accepts: Table 1's and
// the socket echo loop (BuildSockEcho), the guest path of the
// benchmark's sock_echo workload.
func profiledPrograms(iters int32) []t1prog {
	return append(table1Programs(iters),
		t1prog{"sock echo 64 B", iters, 4_000_000_000, func(b *asmkit.Builder) { BuildSockEcho(b, iters) }})
}

// ProfiledProgramNames lists the programs RunProfiled accepts.
func ProfiledProgramNames() []string {
	progs := profiledPrograms(1)
	names := make([]string, len(progs))
	for i, p := range progs {
		names[i] = p.name
	}
	return names
}

// RunProfiled runs one program on a profiled Synthesis rig
// and returns the profiler holding the attribution.
func RunProfiled(name string, iters int32) (*prof.Profiler, error) {
	if iters <= 0 {
		iters = 200
	}
	for _, p := range profiledPrograms(iters) {
		if p.name != name {
			continue
		}
		r := NewProfiledSynthRig()
		_, err := runMarks(r, p.budget, 1, p.build)
		return r.K.Prof, err
	}
	return nil, fmt.Errorf("bench: unknown program %q (have %v)", name, ProfiledProgramNames())
}
