package bench

import (
	"fmt"

	"synthesis/internal/asmkit"
	"synthesis/internal/kernel"
	"synthesis/internal/m68k"
	"synthesis/internal/prof"
	"synthesis/internal/unixemu"
)

// The Appendix A benchmark programs, rebuilt as Quamachine binaries
// against the UNIX trap convention (trap #0, syscall number in D0,
// arguments in D1-D3). The identical instruction stream runs on both
// kernels — the comparison discipline of Section 6.1.

func unixCall(b *asmkit.Builder, no int32) {
	b.MoveL(m68k.Imm(no), m68k.D(0))
	b.Trap(0)
}

func progExit(b *asmkit.Builder) {
	b.MoveL(m68k.Imm(0), m68k.D(1))
	unixCall(b, unixemu.SysExit)
}

func mark(b *asmkit.Builder) { b.Kcall(m68k.SvcMark) }

// program is one named benchmark program: a Table 1 row, a
// `synbench -profile-run` program, a `quamon -program` workload, an
// example's program, or several of these, under the one name all of
// them use.
type program struct {
	name    string
	paper   float64 // Table 1's SUN seconds / Synthesis seconds; 0 off Table 1
	loops   int32   // the loop count build is given, which a per-iteration figure divides by
	endless bool    // loops until its caller stops the machine, as quamon's windows do
	build   func(b *asmkit.Builder, loops int32)
}

// programs lists every named program. The paper ratios are Table 1's
// total column: compute 20/21.1, pipes 10/0.18, 15/0.96, 38/8.5, file
// 21/2.4, open null 17/0.7, open tty 43/1.4. The paper never published
// its loop counts, so each program's is ours, written here once.
var programs = []program{
	{"compute", 20.0 / 21.1, 2000, false, buildCompute},
	{"pipe r/w 1 B", 10.0 / 0.18, 200, false, func(b *asmkit.Builder, n int32) { buildPipeRW(b, n, 1) }},
	{"pipe r/w 1 KB", 15.0 / 0.96, 200, false, func(b *asmkit.Builder, n int32) { buildPipeRW(b, n, 1024) }},
	{"pipe r/w 4 KB", 38.0 / 8.5, 200, false, func(b *asmkit.Builder, n int32) { buildPipeRW(b, n, 4096) }},
	{"file r/w 1 KB", 21.0 / 2.4, 200, false, buildFileRW},
	{"open-close null", 17.0 / 0.7, 200, false, func(b *asmkit.Builder, n int32) { buildOpenClose(b, n, addrNameNull) }},
	{"open-close tty", 43.0 / 1.4, 200, false, func(b *asmkit.Builder, n int32) { buildOpenClose(b, n, addrNameTTY) }},
	// The guest path of the benchmark's sock_echo workload.
	{"sock echo 64 B", 0, 200, false, buildSockEcho},
	// Table 6's loopback exchange without end, quamon's default.
	{"sock traffic 128 B", 0, 0, true, func(b *asmkit.Builder, _ int32) { buildSockTraffic(b) }},
	{"procread", 0, 0, true, func(b *asmkit.Builder, _ int32) { buildProcReadLoop(b) }},
	// examples/procmetrics' reader: one snapshot, copied to the tty.
	{"proc cat", 0, 1, false, buildProcCat},
}

// emit emits p at its own loop count.
func (p program) emit(b *asmkit.Builder) { p.build(b, p.loops) }

// ProgramNames lists every program's name, in list order.
func ProgramNames() []string {
	names := make([]string, len(programs))
	for i, p := range programs {
		names[i] = p.name
	}
	return names
}

// findProgram returns the program called name.
func findProgram(name string) (program, error) {
	for _, p := range programs {
		if p.name == name {
			return p, nil
		}
	}
	return program{}, fmt.Errorf("bench: unknown program %q (have %q)", name, ProgramNames())
}

// Program resolves name, one of ProgramNames, to the builder that emits
// the program, the loop count it runs, which a per-iteration figure
// divides by, and whether it is endless. quamon runs any of them under
// its sampling windows, so every benchmark is also a live metrics
// source.
func Program(name string) (build func(*asmkit.Builder), loops int32, endless bool, err error) {
	p, err := findProgram(name)
	if err != nil {
		return nil, 0, false, err
	}
	return p.emit, p.loops, p.endless, nil
}

// RunProfiled runs one program on a profiled Synthesis rig, the entry
// point behind `synbench -profile-run` and `make profile`, and returns
// the profiler holding the attribution and the program's loop count.
// An endless program is refused: it would run to the runaway budget.
func RunProfiled(name string) (*prof.Profiler, int32, error) {
	p, err := findProgram(name)
	if err != nil {
		return nil, 0, err
	}
	if p.endless {
		return nil, 0, fmt.Errorf("bench: %q never exits; watch it with quamon -program", name)
	}
	r := NewSynthRig(kernel.Config{Profile: true})
	mt := &meter{}
	mt.run(r, 1, p.emit)
	return r.K.Prof, p.loops, mt.err
}

// buildCompute emits program 1: the compute-bound calibration test, a
// Hofstadter Q-style chaotic sequence Q(n) = Q(n-Q(n-1)) + Q(n-Q(n-2))
// that "touches a large array at non-contiguous points".
func buildCompute(b *asmkit.Builder, n int32) {
	q := int32(addrQArray)
	b.MoveL(m68k.Imm(1), m68k.Abs(uint32(q+4)))
	b.MoveL(m68k.Imm(1), m68k.Abs(uint32(q+8)))
	mark(b)
	b.Lea(m68k.Abs(uint32(q)), 0)
	b.MoveL(m68k.Imm(3), m68k.D(3)) // n
	b.Label("loop")
	b.MoveL(m68k.D(3), m68k.D(4))
	b.SubL(m68k.Imm(1), m68k.D(4))
	b.MoveL(m68k.Idx(0, 0, 4, 4), m68k.D(5)) // Q[n-1]
	b.MoveL(m68k.D(3), m68k.D(6))
	b.SubL(m68k.D(5), m68k.D(6))
	b.MoveL(m68k.Idx(0, 0, 6, 4), m68k.D(5)) // Q[n-Q[n-1]]
	b.MoveL(m68k.D(3), m68k.D(4))
	b.SubL(m68k.Imm(2), m68k.D(4))
	b.MoveL(m68k.Idx(0, 0, 4, 4), m68k.D(6)) // Q[n-2]
	b.MoveL(m68k.D(3), m68k.D(7))
	b.SubL(m68k.D(6), m68k.D(7))
	b.MoveL(m68k.Idx(0, 0, 7, 4), m68k.D(6)) // Q[n-Q[n-2]]
	b.AddL(m68k.D(6), m68k.D(5))
	b.MoveL(m68k.D(3), m68k.D(4))
	b.MoveL(m68k.D(5), m68k.Idx(0, 0, 4, 4)) // Q[n] = sum
	b.AddL(m68k.Imm(1), m68k.D(3))
	b.CmpL(m68k.Imm(n+1), m68k.D(3))
	b.Bne("loop")
	mark(b)
	progExit(b)
}

// buildPipeRW emits programs 2-4: create a pipe, then iters times
// write and read back a chunk of the given size.
func buildPipeRW(b *asmkit.Builder, iters, chunk int32) {
	unixCall(b, unixemu.SysPipe) // D0 = rfd, D1 = wfd
	b.MoveL(m68k.D(0), m68k.D(6))
	b.MoveL(m68k.D(1), m68k.D(7))
	mark(b)
	b.MoveL(m68k.Imm(iters), m68k.D(5))
	b.Label("loop")
	b.MoveL(m68k.D(7), m68k.D(1))
	b.MoveL(m68k.Imm(addrBufA), m68k.D(2))
	b.MoveL(m68k.Imm(chunk), m68k.D(3))
	unixCall(b, unixemu.SysWrite)
	b.MoveL(m68k.D(6), m68k.D(1))
	b.MoveL(m68k.Imm(addrBufB), m68k.D(2))
	b.MoveL(m68k.Imm(chunk), m68k.D(3))
	unixCall(b, unixemu.SysRead)
	b.SubL(m68k.Imm(1), m68k.D(5))
	b.Bne("loop")
	mark(b)
	progExit(b)
}

// buildFileRW emits program 5: open the benchmark file and iters
// times rewind-write-rewind-read one kilobyte (the file stays in the
// cache / memory-resident file system on both kernels).
func buildFileRW(b *asmkit.Builder, iters int32) {
	b.MoveL(m68k.Imm(addrNameFile), m68k.D(1))
	unixCall(b, unixemu.SysOpen) // fd 0
	mark(b)
	b.MoveL(m68k.Imm(iters), m68k.D(5))
	b.Label("loop")
	b.MoveL(m68k.Imm(0), m68k.D(1))
	b.MoveL(m68k.Imm(0), m68k.D(2))
	unixCall(b, unixemu.SysLseek)
	b.MoveL(m68k.Imm(0), m68k.D(1))
	b.MoveL(m68k.Imm(addrBufA), m68k.D(2))
	b.MoveL(m68k.Imm(1024), m68k.D(3))
	unixCall(b, unixemu.SysWrite)
	b.MoveL(m68k.Imm(0), m68k.D(1))
	b.MoveL(m68k.Imm(0), m68k.D(2))
	unixCall(b, unixemu.SysLseek)
	b.MoveL(m68k.Imm(0), m68k.D(1))
	b.MoveL(m68k.Imm(addrBufB), m68k.D(2))
	b.MoveL(m68k.Imm(1024), m68k.D(3))
	unixCall(b, unixemu.SysRead)
	b.SubL(m68k.Imm(1), m68k.D(5))
	b.Bne("loop")
	mark(b)
	unixCall(b, unixemu.SysClose)
	progExit(b)
}

// buildOpenClose emits programs 6-7: iters times open and close the
// named file (descriptor 0 is reused every round).
func buildOpenClose(b *asmkit.Builder, iters int32, nameAddr uint32) {
	mark(b)
	b.MoveL(m68k.Imm(iters), m68k.D(5))
	b.Label("loop")
	b.MoveL(m68k.Imm(int32(nameAddr)), m68k.D(1))
	unixCall(b, unixemu.SysOpen)
	b.MoveL(m68k.Imm(0), m68k.D(1))
	unixCall(b, unixemu.SysClose)
	b.SubL(m68k.Imm(1), m68k.D(5))
	b.Bne("loop")
	mark(b)
	progExit(b)
}

// buildSockEcho emits the socket echo loop: iters times, one 64-byte
// datagram bounced 5 -> 9 -> 5 between two loopback sockets, each leg
// a write and a read through the UNIX gate. An iteration is two sends,
// two receives, two frames through the receive handler and four gate
// calls.
func buildSockEcho(b *asmkit.Builder, iters int32) {
	const payload = 64
	sockPair(b)
	rw := func(no int32, fd uint8, buf uint32) {
		b.MoveL(m68k.D(fd), m68k.D(1))
		b.MoveL(m68k.Imm(int32(buf)), m68k.D(2))
		b.MoveL(m68k.Imm(payload), m68k.D(3))
		unixCall(b, no)
	}
	mark(b)
	b.MoveL(m68k.Imm(iters), m68k.D(5))
	b.Label("loop")
	rw(unixemu.SysWrite, 6, addrBufA)
	rw(unixemu.SysRead, 7, addrBufB)
	rw(unixemu.SysWrite, 7, addrBufB)
	rw(unixemu.SysRead, 6, addrBufA)
	b.SubL(m68k.Imm(1), m68k.D(5))
	b.Bne("loop")
	mark(b)
	progExit(b)
}

// buildProcReadLoop emits the observability workload: forever open
// /proc/metrics, read the snapshot to EOF in 256-byte chunks, and
// close. Every round cuts a fresh snapshot and resynthesizes the read
// routine, so a monitor watching the registry sees the kernel
// watching itself (synth.kio.proc.read.calls counts the reads the
// guest performs to learn the value of synth.kio.proc.read.calls).
func buildProcReadLoop(b *asmkit.Builder) {
	b.Label("again")
	b.MoveL(m68k.Imm(addrNameProc), m68k.D(1))
	unixCall(b, unixemu.SysOpen)
	b.MoveL(m68k.D(0), m68k.D(6))
	b.Label("rd")
	procRead(b, 6)
	b.TstL(m68k.D(0))
	b.Bne("rd")
	b.MoveL(m68k.D(6), m68k.D(1))
	unixCall(b, unixemu.SysClose)
	b.Bra("again")
}

// buildProcCat emits the /proc reader: open /proc/metrics and
// /dev/tty, then, in one marked interval, copy the snapshot to the tty
// in procChunk reads until one returns 0 or an error, then close and
// exit. The baseline has no /proc, so there the first read fails.
func buildProcCat(b *asmkit.Builder, _ int32) {
	b.MoveL(m68k.Imm(addrNameProc), m68k.D(1))
	unixCall(b, unixemu.SysOpen)
	b.MoveL(m68k.D(0), m68k.D(6))
	b.MoveL(m68k.Imm(addrNameTTY), m68k.D(1))
	unixCall(b, unixemu.SysOpen)
	b.MoveL(m68k.D(0), m68k.D(7))
	mark(b)
	b.Label("loop")
	procRead(b, 6)
	b.TstL(m68k.D(0))
	b.Beq("done")
	b.Bmi("done")
	b.MoveL(m68k.D(0), m68k.D(3)) // write what the read returned
	b.MoveL(m68k.D(7), m68k.D(1))
	b.MoveL(m68k.Imm(addrBufB), m68k.D(2))
	unixCall(b, unixemu.SysWrite)
	b.Bra("loop")
	b.Label("done")
	mark(b)
	b.MoveL(m68k.D(6), m68k.D(1))
	unixCall(b, unixemu.SysClose)
	progExit(b)
}

// buildSockTraffic emits the loopback traffic workload: open Table 6's
// pair, then exchange 128-byte datagrams forever.
func buildSockTraffic(b *asmkit.Builder) {
	sockPair(b)
	b.Label("loop")
	sockWrite(b)
	sockRead(b)
	b.Bra("loop")
}
