package unixemu_test

import (
	"testing"

	"synthesis/internal/kernel"
	"synthesis/internal/kio"
	"synthesis/internal/m68k"
	"synthesis/internal/synth"
	"synthesis/internal/unixemu"
)

func boot(t *testing.T) *kernel.Kernel {
	t.Helper()
	k := kernel.Boot(kernel.Config{Machine: m68k.Config{MemSize: 1 << 20, TraceDepth: 128}})
	k.C.CheckKeys = true
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
		k.C.CheckKeys = true
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
		d := k.MarkDeltasMicros()
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
