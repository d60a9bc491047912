package unixemu_test

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"testing"

	"synthesis/internal/kernel"
	"synthesis/internal/kio"
	"synthesis/internal/m68k"
	"synthesis/internal/metrics"
	"synthesis/internal/prof"
	"synthesis/internal/synth"
	"synthesis/internal/unixemu"
)

func boot(t *testing.T) *kernel.Kernel {
	t.Helper()
	k := kernel.Boot(kernel.Config{Machine: m68k.Config{MemSize: 1 << 20}})
	kio.Install(k)
	unixemu.Install(k)
	return k
}

// The same "binary" convention the Table 1 programs use: UNIX
// syscalls through trap #0.
func unixCall(e *synth.Emitter, no int32) {
	e.MoveL(m68k.Imm(no), m68k.D(0))
	e.Trap(kernel.TrapUnix)
}

func TestUnixOpenWriteReadClose(t *testing.T) {
	k := boot(t)
	if _, err := k.FS.CreateSized("/etc/motd", []byte("unix on synthesis"), 64); err != nil {
		t.Fatal(err)
	}
	const nameAddr, res, buf = 0x9100, 0x9000, 0x9300
	for i, c := range []byte("/etc/motd\x00") {
		k.M.Poke(nameAddr+uint32(i), 1, uint32(c))
	}
	prog := k.C.Synthesize(nil, "main", nil, func(e *synth.Emitter) {
		// open("/etc/motd") -> fd 0
		e.MoveL(m68k.Imm(nameAddr), m68k.D(1))
		unixCall(e, unixemu.SysOpen)
		e.MoveL(m68k.D(0), m68k.Abs(res))
		// read(fd=0, buf, 17)
		e.MoveL(m68k.Imm(0), m68k.D(1))
		e.MoveL(m68k.Imm(buf), m68k.D(2))
		e.MoveL(m68k.Imm(17), m68k.D(3))
		unixCall(e, unixemu.SysRead)
		e.MoveL(m68k.D(0), m68k.Abs(res+4))
		// close(0)
		e.MoveL(m68k.Imm(0), m68k.D(1))
		unixCall(e, unixemu.SysClose)
		e.MoveL(m68k.D(0), m68k.Abs(res+8))
		// pipe() -> rfd in D0, wfd in D1
		unixCall(e, unixemu.SysPipe)
		e.MoveL(m68k.D(0), m68k.D(4)) // rfd
		e.MoveL(m68k.D(1), m68k.D(5)) // wfd
		// write(wfd, buf, 8): fd is dynamic — the gate handles it.
		e.MoveL(m68k.D(5), m68k.D(1))
		e.MoveL(m68k.Imm(buf), m68k.D(2))
		e.MoveL(m68k.Imm(8), m68k.D(3))
		unixCall(e, unixemu.SysWrite)
		e.MoveL(m68k.D(0), m68k.Abs(res+12))
		// read(rfd, buf2, 8)
		e.MoveL(m68k.D(4), m68k.D(1))
		e.MoveL(m68k.Imm(buf+32), m68k.D(2))
		e.MoveL(m68k.Imm(8), m68k.D(3))
		unixCall(e, unixemu.SysRead)
		e.MoveL(m68k.D(0), m68k.Abs(res+16))
		unixCall(e, unixemu.SysExit)
	})
	th := k.SpawnKernel("main", prog)
	k.Start(th)
	if err := k.Run(10_000_000); err != nil {
		t.Fatalf("run: %v", err)
	}
	if got := int32(k.M.Peek(res, 4)); got != 0 {
		t.Fatalf("unix open = %d", got)
	}
	if got := k.M.Peek(res+4, 4); got != 17 {
		t.Errorf("unix read = %d, want 17", got)
	}
	if got := string(k.M.PeekBytes(buf, 17)); got != "unix on synthesis" {
		t.Errorf("data %q", got)
	}
	if got := int32(k.M.Peek(res+8, 4)); got != 0 {
		t.Errorf("unix close = %d", got)
	}
	if got := k.M.Peek(res+12, 4); got != 8 {
		t.Errorf("pipe write = %d, want 8", got)
	}
	if got := k.M.Peek(res+16, 4); got != 8 {
		t.Errorf("pipe read = %d, want 8", got)
	}
	if got := string(k.M.PeekBytes(buf+32, 8)); got != "unix on " {
		t.Errorf("pipe data %q", got)
	}
}

func TestUnknownUnixSyscallReturnsError(t *testing.T) {
	k := boot(t)
	const res = 0x9000
	prog := k.C.Synthesize(nil, "main", nil, func(e *synth.Emitter) {
		unixCall(e, 199)
		e.MoveL(m68k.D(0), m68k.Abs(res))
		unixCall(e, unixemu.SysExit)
	})
	th := k.SpawnKernel("main", prog)
	k.Start(th)
	if err := k.Run(5_000_000); err != nil {
		t.Fatalf("run: %v", err)
	}
	if got := int32(k.M.Peek(res, 4)); got != -1 {
		t.Errorf("unknown syscall = %d, want -1", got)
	}
}

func TestEmulationOverheadIsSmall(t *testing.T) {
	// Table 2: "emulation trap overhead: 2 usec". Compare a native
	// null write with a UNIX null write at the SUN 3/160 point.
	mkKernel := func() (*kernel.Kernel, *kernel.Thread, uint32) {
		k := kernel.Boot(kernel.Config{Machine: m68k.Sun3Config()})
		kio.Install(k)
		unixemu.Install(k)
		const nameAddr = 0x9100
		for i, c := range []byte("/dev/null\x00") {
			k.M.Poke(nameAddr+uint32(i), 1, uint32(c))
		}
		return k, nil, nameAddr
	}

	measure := func(useUnix bool) float64 {
		k, _, nameAddr := mkKernel()
		prog := k.C.Synthesize(nil, "main", nil, func(e *synth.Emitter) {
			e.MoveL(m68k.Imm(kernel.SysOpen), m68k.D(0))
			e.MoveL(m68k.Imm(int32(nameAddr)), m68k.D(1))
			e.Trap(kernel.TrapSys)
			e.Kcall(kernel.SvcMark)
			if useUnix {
				e.MoveL(m68k.Imm(unixemu.SysWrite), m68k.D(0))
				e.MoveL(m68k.Imm(0), m68k.D(1))
				e.MoveL(m68k.Imm(0x9300), m68k.D(2))
				e.MoveL(m68k.Imm(1), m68k.D(3))
				e.Trap(kernel.TrapUnix)
			} else {
				e.MoveL(m68k.Imm(0x9300), m68k.D(1))
				e.MoveL(m68k.Imm(1), m68k.D(2))
				e.Trap(kernel.TrapWrite + 0)
			}
			e.Kcall(kernel.SvcMark)
			e.MoveL(m68k.Imm(kernel.SysExit), m68k.D(0))
			e.Trap(kernel.TrapSys)
		})
		th := k.SpawnKernel("main", prog)
		k.Start(th)
		if err := k.Run(10_000_000); err != nil {
			t.Fatalf("run: %v", err)
		}
		d := k.M.MarkMicros()
		if len(d) != 1 {
			t.Fatalf("marks: %v", d)
		}
		return d[0]
	}

	native := measure(false)
	emulated := measure(true)
	overhead := emulated - native
	t.Logf("native %.2f usec, emulated %.2f usec, overhead %.2f usec (paper: 2)", native, emulated, overhead)
	if overhead <= 0 || overhead > 8 {
		t.Errorf("emulation overhead %.2f usec out of the paper's range", overhead)
	}
}

func TestUnixLseek(t *testing.T) {
	k := boot(t)
	if _, err := k.FS.CreateSized("/f", []byte("0123456789"), 32); err != nil {
		t.Fatal(err)
	}
	const nameAddr, res, buf = 0x9100, 0x9000, 0x9300
	for i, c := range []byte("/f\x00") {
		k.M.Poke(nameAddr+uint32(i), 1, uint32(c))
	}
	prog := k.C.Synthesize(nil, "main", nil, func(e *synth.Emitter) {
		e.MoveL(m68k.Imm(nameAddr), m68k.D(1))
		unixCall(e, unixemu.SysOpen)
		// lseek(0, 7)
		e.MoveL(m68k.Imm(0), m68k.D(1))
		e.MoveL(m68k.Imm(7), m68k.D(2))
		unixCall(e, unixemu.SysLseek)
		e.MoveL(m68k.D(0), m68k.Abs(res))
		// read 3 -> "789"
		e.MoveL(m68k.Imm(0), m68k.D(1))
		e.MoveL(m68k.Imm(buf), m68k.D(2))
		e.MoveL(m68k.Imm(3), m68k.D(3))
		unixCall(e, unixemu.SysRead)
		e.MoveL(m68k.D(0), m68k.Abs(res+4))
		unixCall(e, unixemu.SysExit)
	})
	th := k.SpawnKernel("main", prog)
	k.Start(th)
	if err := k.Run(10_000_000); err != nil {
		t.Fatalf("run: %v", err)
	}
	if got := k.M.Peek(res, 4); got != 7 {
		t.Errorf("lseek = %d, want 7", got)
	}
	if got := k.M.Peek(res+4, 4); got != 3 {
		t.Errorf("read = %d, want 3", got)
	}
	if got := string(k.M.PeekBytes(buf, 3)); got != "789" {
		t.Errorf("data %q", got)
	}
}

// A descriptor number taken from a register is bounds-checked: read,
// write and lseek of any fd outside [0, MaxFD) return -1 and touch
// nothing. Unchecked, vector 32+TrapRead+12 is fd 0's write, reads at
// 24 and up jump through the TTE's ready-ring links, and lseek(40)
// stores past the end of the 1 KB TTE.
func TestDescriptorOutOfRangeFails(t *testing.T) {
	const nameAddr, res, buf = 0x9100, 0x9000, 0x9300
	cases := []struct {
		name string
		call func(e *synth.Emitter)
	}{
		{"read(12) on fd 0's write vector", func(e *synth.Emitter) {
			e.MoveL(m68k.Imm(12), m68k.D(1))
			e.MoveL(m68k.Imm(buf), m68k.D(2))
			e.MoveL(m68k.Imm(3), m68k.D(3))
			unixCall(e, unixemu.SysRead)
		}},
		{"read(24) through the ready-ring links", func(e *synth.Emitter) {
			e.MoveL(m68k.Imm(24), m68k.D(1))
			e.MoveL(m68k.Imm(buf), m68k.D(2))
			e.MoveL(m68k.Imm(3), m68k.D(3))
			unixCall(e, unixemu.SysRead)
		}},
		{"write(-1)", func(e *synth.Emitter) {
			e.MoveL(m68k.Imm(-1), m68k.D(1))
			e.MoveL(m68k.Imm(buf), m68k.D(2))
			e.MoveL(m68k.Imm(3), m68k.D(3))
			unixCall(e, unixemu.SysWrite)
		}},
		{"lseek(40) past the TTE", func(e *synth.Emitter) {
			e.MoveL(m68k.Imm(40), m68k.D(1))
			e.MoveL(m68k.Imm(0x5a5a), m68k.D(2))
			unixCall(e, unixemu.SysLseek)
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			k := boot(t)
			if _, err := k.FS.CreateSized("/f", []byte("0123456789"), 32); err != nil {
				t.Fatal(err)
			}
			for i, b := range []byte("/f\x00") {
				k.M.Poke(nameAddr+uint32(i), 1, uint32(b))
			}
			for i, b := range []byte("XYZ") {
				k.M.Poke(buf+uint32(i), 1, uint32(b))
			}
			prog := k.C.Synthesize(nil, "main", nil, func(e *synth.Emitter) {
				e.MoveL(m68k.Imm(nameAddr), m68k.D(1))
				unixCall(e, unixemu.SysOpen) // fd 0
				c.call(e)
				e.MoveL(m68k.D(0), m68k.Abs(res))
				// Read the whole file back from the start.
				e.MoveL(m68k.Imm(0), m68k.D(1))
				e.MoveL(m68k.Imm(0), m68k.D(2))
				unixCall(e, unixemu.SysLseek)
				e.MoveL(m68k.Imm(0), m68k.D(1))
				e.MoveL(m68k.Imm(buf+16), m68k.D(2))
				e.MoveL(m68k.Imm(10), m68k.D(3))
				unixCall(e, unixemu.SysRead)
				unixCall(e, unixemu.SysExit)
			})
			th := k.SpawnKernel("main", prog)
			past := th.TTE + kernel.FDCell(0, 40, kernel.FDPos)
			before := k.M.Peek(past, 4)
			k.Start(th)
			if err := k.Run(10_000_000); err != nil {
				t.Fatalf("run: %v", err)
			}
			if got := int32(k.M.Peek(res, 4)); got != -1 {
				t.Errorf("returned %d, want -1", got)
			}
			if got := string(k.M.PeekBytes(buf+16, 10)); got != "0123456789" {
				t.Errorf("file reads back %q", got)
			}
			if got := k.M.Peek(past, 4); got != before {
				t.Errorf("TTE+%d changed from %#x to %#x", past-th.TTE, before, got)
			}
		})
	}
}

// sysRig is one booted kernel for TestSyscallTablesCompleteAndClosed:
// a main thread running one case's calls, a stopped victim thread for
// the thread calls, and the UNIX calls the case emitted, by counter
// name.
type sysRig struct {
	k            *kernel.Kernel
	reg          *metrics.Registry
	prof         *prof.Profiler // its program trace holds the whole run
	gate, spin   uint32
	main, victim *kernel.Thread
	want         map[string]uint64
	err          error
}

const (
	tabNull, tabFile = 0x9100, 0x9140 // "/dev/null", "/f"
	tabRes, tabBuf   = 0x9000, 0x9300 // D0, D1, "the call returned", failures
	tabStack         = 0x9800
)

// unixNames are the SUNOS numbers the gate accepts, by counter name.
var unixNames = map[int32]string{
	unixemu.SysExit: "exit", unixemu.SysRead: "read", unixemu.SysWrite: "write",
	unixemu.SysOpen: "open", unixemu.SysClose: "close", unixemu.SysLseek: "lseek",
	unixemu.SysPipe: "pipe", unixemu.SysSocket: "socket",
}

// native emits trap #1 with function code fn and arguments D1, D2.
func (r *sysRig) native(e *synth.Emitter, fn, d1, d2 int32) {
	e.MoveL(m68k.Imm(d1), m68k.D(1))
	e.MoveL(m68k.Imm(d2), m68k.D(2))
	e.MoveL(m68k.Imm(fn), m68k.D(0))
	e.Trap(kernel.TrapSys)
}

// unix emits trap #0 with SUNOS number no and arguments D1-D3, and
// counts the call under the name the gate should count it by.
func (r *sysRig) unix(e *synth.Emitter, no, d1, d2, d3 int32) {
	e.MoveL(m68k.Imm(d1), m68k.D(1))
	e.MoveL(m68k.Imm(d2), m68k.D(2))
	e.MoveL(m68k.Imm(d3), m68k.D(3))
	unixCall(e, no)
	name, ok := unixNames[no]
	if !ok {
		name = "unknown"
	}
	r.want[name]++
}

// dispatched returns, for each trap #n the trace holds, how many
// instructions ran from the trap to the first instruction of a native
// body; a call that returns or traps again first (a read or write, an
// unknown number) adds nothing.
func (r *sysRig) dispatched(n int) []int {
	bodies := map[uint32]bool{}
	for fn := int32(0); fn < kernel.NumSys; fn++ {
		bodies[r.k.SysEntry(fn)] = true
	}
	var out []int
	ran := -1
	for _, te := range r.prof.Trace().Items() {
		switch {
		case te.Exc == m68k.VecTrapBase+n:
			ran = 0
		case te.Exc >= m68k.VecTrapBase || te.Exc < 0 && te.Instr.Op == m68k.RTE:
			ran = -1
		case te.Exc >= 0 || ran < 0:
		case bodies[te.PC]:
			out, ran = append(out, ran), -1
		default:
			ran++
		}
	}
	return out
}

func (r *sysRig) peek(addr uint32) uint32 { return r.k.M.Peek(addr, 4) }
func (r *sysRig) res(i uint32) int32      { return int32(r.peek(tabRes + 4*i)) }
func (r *sysRig) fd(i int) uint32         { return r.peek(kernel.FDCell(r.main.TTE, i, kernel.FDKind)) }

// live reports whether tte is on the kernel's chain of live TTEs.
func (r *sysRig) live(tte uint32) bool {
	for th := range r.k.Threads() {
		if th.TTE == tte {
			return true
		}
	}
	return false
}

// runSys boots a kernel (with the gate's counters when counted) and
// runs body on the main thread, then stores D0, D1 and a 1 ("the last
// call returned") at tabRes and exits.
func runSys(t *testing.T, counted bool, body func(e *synth.Emitter, r *sysRig)) *sysRig {
	t.Helper()
	r := &sysRig{want: map[string]uint64{}}
	if counted {
		r.reg = metrics.New()
	}
	k := kernel.Boot(kernel.Config{Machine: m68k.Config{MemSize: 1 << 20}, Metrics: r.reg})
	kio.Install(k)
	r.k, r.gate, r.prof = k, unixemu.Install(k), prof.Enable(k.M, 1<<14)
	if _, err := k.FS.CreateSized("/f", []byte("0123456789"), 32); err != nil {
		t.Fatal(err)
	}
	for addr, s := range map[uint32]string{tabNull: "/dev/null\x00", tabFile: "/f\x00"} {
		for i, c := range []byte(s) {
			k.M.Poke(addr+uint32(i), 1, uint32(c))
		}
	}
	r.spin = k.C.Synthesize(nil, "spin", nil, func(e *synth.Emitter) {
		e.Label("spin")
		e.Bra("spin")
	})
	r.victim = k.SpawnKernelStopped("victim", r.spin)
	prog := k.C.Synthesize(nil, "main", nil, func(e *synth.Emitter) {
		body(e, r)
		e.MoveL(m68k.D(0), m68k.Abs(tabRes))
		e.MoveL(m68k.D(1), m68k.Abs(tabRes+4))
		e.MoveL(m68k.Imm(1), m68k.Abs(tabRes+8))
		r.native(e, kernel.SysExit, 0, 0)
	})
	r.main = k.SpawnKernel("main", prog)
	k.Start(r.main)
	r.err = k.Run(20_000_000)
	return r
}

// Both system-call tables are complete and closed. Every native
// function code (trap #1) and every SUNOS number the gate accepts
// (trap #0) reaches the routine that does its work, with the gate's
// counters on and off; any other code panics on trap #1 and returns -1
// on trap #0. With counters, unixemu.sys.<name>.calls counts every
// call, unknown ones included; without, the gate has no counter
// instruction at all.
func TestSyscallTablesCompleteAndClosed(t *testing.T) {
	type call struct {
		code  int32
		body  func(e *synth.Emitter, r *sysRig)
		check func(r *sysRig) bool
	}
	victim := func(r *sysRig) int32 { return int32(r.victim.TTE) }
	natives := []call{
		{kernel.SysOpen, func(e *synth.Emitter, r *sysRig) { r.native(e, kernel.SysOpen, tabNull, 0) },
			func(r *sysRig) bool { return r.res(0) == 0 && r.fd(0) == kio.FDNull }},
		{kernel.SysClose, func(e *synth.Emitter, r *sysRig) {
			r.native(e, kernel.SysOpen, tabNull, 0)
			r.native(e, kernel.SysClose, 0, 0)
		}, func(r *sysRig) bool { return r.res(0) == 0 && r.fd(0) == kio.FDFree }},
		{kernel.SysCreate, func(e *synth.Emitter, r *sysRig) { r.native(e, kernel.SysCreate, int32(r.spin), tabStack) },
			func(r *sysRig) bool { return r.live(uint32(r.res(0))) }},
		{kernel.SysDestroy, func(e *synth.Emitter, r *sysRig) { r.native(e, kernel.SysDestroy, victim(r), 0) },
			func(r *sysRig) bool { return !r.live(r.victim.TTE) }},
		{kernel.SysStop, func(e *synth.Emitter, r *sysRig) {
			r.native(e, kernel.SysStart, victim(r), 0)
			r.native(e, kernel.SysStop, victim(r), 0)
		}, func(r *sysRig) bool {
			return r.peek(r.victim.TTE+kernel.TTENext) == 0 && r.live(r.victim.TTE)
		}},
		{kernel.SysStart, func(e *synth.Emitter, r *sysRig) { r.native(e, kernel.SysStart, victim(r), 0) },
			func(r *sysRig) bool { return r.peek(r.victim.TTE+kernel.TTENext) != 0 }},
		{kernel.SysStep, func(e *synth.Emitter, r *sysRig) { r.native(e, kernel.SysStep, victim(r), 0) },
			func(r *sysRig) bool { return r.peek(r.peek(r.victim.TTE+kernel.TTESSP))&uint32(m68k.FlagT) != 0 }},
		{kernel.SysSignal, func(e *synth.Emitter, r *sysRig) { r.native(e, kernel.SysSignal, victim(r), 0x1234) },
			func(r *sysRig) bool {
				return r.peek(r.victim.TTE+kernel.TTESigOld) == r.spin && r.peek(r.peek(r.victim.TTE+kernel.TTESSP)+4) == 0x1234
			}},
		{kernel.SysSetAlarm, func(e *synth.Emitter, r *sysRig) { r.native(e, kernel.SysSetAlarm, 0x7fffffff, 0x2345) },
			func(r *sysRig) bool { return r.peek(kernel.GAlarmProc) == 0x2345 }},
		{kernel.SysExit, func(e *synth.Emitter, r *sysRig) { r.native(e, kernel.SysExit, 0, 0) },
			func(r *sysRig) bool { return r.res(2) == 0 }},
		{kernel.SysPipe, func(e *synth.Emitter, r *sysRig) { r.native(e, kernel.SysPipe, 0, 0) },
			func(r *sysRig) bool {
				return r.res(0) == 0 && r.res(1) == 1 && r.fd(0) == kio.FDPipeR && r.fd(1) == kio.FDPipeW
			}},
		{kernel.SysYield, func(e *synth.Emitter, r *sysRig) { r.native(e, kernel.SysYield, 0, 0) },
			func(r *sysRig) bool { return r.res(0) == kernel.SysYield && r.fd(0) == kio.FDFree }},
		{kernel.SysSeek, func(e *synth.Emitter, r *sysRig) {
			r.native(e, kernel.SysOpen, tabFile, 0)
			r.native(e, kernel.SysSeek, 0, 7)
		}, func(r *sysRig) bool {
			return r.res(0) == 7 && r.peek(kernel.FDCell(r.main.TTE, 0, kernel.FDPos)) == 7
		}},
		{kernel.SysSock, func(e *synth.Emitter, r *sysRig) { r.native(e, kernel.SysSock, 5, 9) },
			func(r *sysRig) bool { return r.res(0) == 0 && r.fd(0) == kio.FDSock }},
	}
	unixes := []call{
		{unixemu.SysExit, func(e *synth.Emitter, r *sysRig) { r.unix(e, unixemu.SysExit, 0, 0, 0) },
			func(r *sysRig) bool { return r.res(2) == 0 }},
		{unixemu.SysRead, func(e *synth.Emitter, r *sysRig) {
			r.unix(e, unixemu.SysOpen, tabFile, 0, 0)
			r.unix(e, unixemu.SysRead, 0, tabBuf, 3)
		}, func(r *sysRig) bool { return r.res(0) == 3 && string(r.k.M.PeekBytes(tabBuf, 3)) == "012" }},
		{unixemu.SysWrite, func(e *synth.Emitter, r *sysRig) {
			r.unix(e, unixemu.SysOpen, tabNull, 0, 0)
			r.unix(e, unixemu.SysWrite, 0, tabBuf, 5)
		}, func(r *sysRig) bool { return r.res(0) == 5 }},
		{unixemu.SysOpen, func(e *synth.Emitter, r *sysRig) { r.unix(e, unixemu.SysOpen, tabNull, 0, 0) },
			func(r *sysRig) bool { return r.res(0) == 0 && r.fd(0) == kio.FDNull }},
		{unixemu.SysClose, func(e *synth.Emitter, r *sysRig) {
			r.unix(e, unixemu.SysOpen, tabNull, 0, 0)
			r.unix(e, unixemu.SysClose, 0, 0, 0)
		}, func(r *sysRig) bool { return r.res(0) == 0 && r.fd(0) == kio.FDFree }},
		{unixemu.SysLseek, func(e *synth.Emitter, r *sysRig) {
			r.unix(e, unixemu.SysOpen, tabFile, 0, 0)
			r.unix(e, unixemu.SysLseek, 0, 7, 0)
		}, func(r *sysRig) bool {
			return r.res(0) == 7 && r.peek(kernel.FDCell(r.main.TTE, 0, kernel.FDPos)) == 7
		}},
		{unixemu.SysPipe, func(e *synth.Emitter, r *sysRig) { r.unix(e, unixemu.SysPipe, 0, 0, 0) },
			func(r *sysRig) bool {
				return r.res(0) == 0 && r.res(1) == 1 && r.fd(0) == kio.FDPipeR && r.fd(1) == kio.FDPipeW
			}},
		{unixemu.SysSocket, func(e *synth.Emitter, r *sysRig) { r.unix(e, unixemu.SysSocket, 5, 9, 0) },
			func(r *sysRig) bool { return r.res(0) == 0 && r.fd(0) == kio.FDSock }},
	}
	if len(natives) != kernel.NumSys || len(unixes) != len(unixNames) {
		t.Fatalf("%d native cases for %d codes, %d UNIX cases for %d numbers", len(natives), kernel.NumSys, len(unixes), len(unixNames))
	}

	// audit checks what every run must show: constant-time dispatch
	// (each trap's bound check and jump through its table are 4
	// instructions; with counters trap #0 adds a counting stub's two)
	// and what the gate counted against what the case emitted.
	audit := func(r *sysRig) error {
		gate := 4
		if r.reg != nil {
			gate = 6
		}
		seen := 0
		for trap, want := range map[int]int{kernel.TrapSys: 4, kernel.TrapUnix: gate} {
			for _, n := range r.dispatched(trap) {
				if n != want {
					return fmt.Errorf("trap #%d ran %d instructions before the body, want %d", trap, n, want)
				}
				seen++
			}
		}
		if seen == 0 {
			return fmt.Errorf("the trace holds no call that reached a body")
		}
		if r.reg == nil {
			return nil
		}
		snap := r.reg.Snapshot()
		for _, name := range append(slices.Collect(maps.Values(unixNames)), "unknown") {
			if got := snap.Counters["unixemu.sys."+name+".calls"]; got != r.want[name] {
				return fmt.Errorf("unixemu.sys.%s.calls = %d, want %d", name, got, r.want[name])
			}
		}
		return nil
	}
	for _, counted := range []bool{false, true} {
		for trap, cases := range map[string][]call{"trap #1": natives, "trap #0": unixes} {
			seen := map[int32]bool{}
			for _, c := range cases {
				if seen[c.code] {
					t.Fatalf("%s code %d has two cases", trap, c.code)
				}
				seen[c.code] = true
				r := runSys(t, counted, c.body)
				if err := audit(r); r.err != nil || err != nil || !c.check(r) {
					t.Errorf("%s code %d (counters %v): run %v, audit %v, D0=%d D1=%d returned=%d",
						trap, c.code, counted, r.err, err, r.res(0), r.res(1), r.res(2))
				}
			}
		}

		// Closed: everything else.
		for _, code := range []int32{-1, kernel.NumSys, -0x80000000} {
			r := runSys(t, counted, func(e *synth.Emitter, r *sysRig) { r.native(e, code, 0, 0) })
			// The bound check's compare and branch, then the panic call:
			// not a jump through some cell past the table's end.
			ran := -1
			for _, te := range r.prof.Trace().Items() {
				switch {
				case te.Exc == m68k.VecTrapBase+kernel.TrapSys:
					ran = 0
				case te.Exc < 0 && ran >= 0 && te.Instr.Op != m68k.KCALL:
					ran++
				case te.Exc < 0 && ran >= 0:
					if ran != 2 {
						t.Errorf("trap #1 code %d ran %d instructions before the panic call, want 2", code, ran)
					}
					ran = -1
				}
			}
			if !errors.Is(r.err, kernel.ErrPanic) || r.res(2) != 0 {
				t.Errorf("trap #1 code %d: run %v, returned=%d; want the panic path", code, r.err, r.res(2))
			}
		}
		unknown := []int32{-1, unixemu.SysSocket + 1, -0x80000000}
		for no := int32(0); no <= unixemu.SysSocket; no++ {
			if _, ok := unixNames[no]; !ok {
				unknown = append(unknown, no)
			}
		}
		r := runSys(t, counted, func(e *synth.Emitter, r *sysRig) {
			for _, no := range unknown {
				r.unix(e, no, 0, 0, 0)
				ok := fmt.Sprintf("ok%d", no)
				e.CmpL(m68k.Imm(-1), m68k.D(0))
				e.Beq(ok)
				e.AddL(m68k.Imm(1), m68k.Abs(tabRes+12))
				e.Label(ok)
			}
		})
		if err := audit(r); r.err != nil || err != nil || r.res(2) != 1 || r.res(3) != 0 {
			t.Errorf("trap #0 unknown numbers (counters %v): run %v, audit %v, %d did not return -1", counted, r.err, err, r.res(3))
		}

		adds := 0
		for pc := r.gate; r.k.M.Code[pc].Op != m68k.RTE; pc++ {
			if r.k.M.Code[pc].Op == m68k.ADD {
				adds++
			}
		}
		if want := map[bool]int{false: 0, true: len(unixNames) + 1}[counted]; adds != want {
			t.Errorf("gate with counters %v has %d ADD instructions, want %d", counted, adds, want)
		}
	}
}
