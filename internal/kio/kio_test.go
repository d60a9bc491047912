package kio_test

import (
	"strings"
	"testing"

	"synthesis/internal/kernel"
	"synthesis/internal/kio"
	"synthesis/internal/m68k"
	"synthesis/internal/synth"
)

func boot(t *testing.T) (*kernel.Kernel, *kio.IO) {
	t.Helper()
	k := kernel.Boot(kernel.Config{
		Machine: m68k.Config{MemSize: 1 << 20, TraceDepth: 256},
	})
	io := kio.Install(k)
	return k, io
}

func exitSeq(e *synth.Emitter) {
	e.MoveL(m68k.Imm(kernel.SysExit), m68k.D(0))
	e.Trap(kernel.TrapSys)
}

// pokeName writes a NUL-terminated string.
func pokeName(k *kernel.Kernel, addr uint32, s string) {
	for i := 0; i < len(s); i++ {
		k.M.Poke(addr+uint32(i), 1, uint32(s[i]))
	}
	k.M.Poke(addr+uint32(len(s)), 1, 0)
}

// emitOpen opens the name at nameAddr; fd lands in D0.
func emitOpen(e *synth.Emitter, nameAddr uint32) {
	e.MoveL(m68k.Imm(kernel.SysOpen), m68k.D(0))
	e.MoveL(m68k.Imm(int32(nameAddr)), m68k.D(1))
	e.Trap(kernel.TrapSys)
}

func run(t *testing.T, k *kernel.Kernel, first *kernel.Thread, budget uint64) {
	t.Helper()
	k.Start(first)
	if err := k.Run(budget); err != nil {
		t.Fatalf("run: %v\ntrace:\n%s", err, tail(k))
	}
}

// onChain reports whether tte is on the kernel's chain of live TTEs.
func onChain(k *kernel.Kernel, tte uint32) bool {
	for th := range k.Threads() {
		if th.TTE == tte {
			return true
		}
	}
	return false
}

func tail(k *kernel.Kernel) string {
	if k.M.Trace == nil {
		return "(no trace)"
	}
	return k.M.Trace.Tail(50)
}

func TestOpenReadWriteNull(t *testing.T) {
	k, _ := boot(t)
	const nameAddr, res = 0x9100, 0x9000
	pokeName(k, nameAddr, "/dev/null")
	prog := k.C.Synthesize(nil, "main", nil, func(e *synth.Emitter) {
		emitOpen(e, nameAddr) // fd 0
		e.MoveL(m68k.D(0), m68k.Abs(res))
		// write 17 bytes -> returns 17
		e.MoveL(m68k.Imm(0x9200), m68k.D(1))
		e.MoveL(m68k.Imm(17), m68k.D(2))
		e.Trap(kernel.TrapWrite + 0)
		e.MoveL(m68k.D(0), m68k.Abs(res+4))
		// read -> returns 0 (EOF)
		e.MoveL(m68k.Imm(0x9200), m68k.D(1))
		e.MoveL(m68k.Imm(17), m68k.D(2))
		e.Trap(kernel.TrapRead + 0)
		e.MoveL(m68k.D(0), m68k.Abs(res+8))
		// close -> 0
		e.MoveL(m68k.Imm(kernel.SysClose), m68k.D(0))
		e.MoveL(m68k.Imm(0), m68k.D(1))
		e.Trap(kernel.TrapSys)
		e.MoveL(m68k.D(0), m68k.Abs(res+12))
		// read after close -> -1
		e.Trap(kernel.TrapRead + 0)
		e.MoveL(m68k.D(0), m68k.Abs(res+16))
		exitSeq(e)
	})
	th := k.SpawnKernel("main", prog)
	run(t, k, th, 5_000_000)
	if got := k.M.Peek(res, 4); got != 0 {
		t.Errorf("open fd = %d, want 0", int32(got))
	}
	if got := k.M.Peek(res+4, 4); got != 17 {
		t.Errorf("null write = %d, want 17", got)
	}
	if got := k.M.Peek(res+8, 4); got != 0 {
		t.Errorf("null read = %d, want 0", got)
	}
	if got := k.M.Peek(res+12, 4); got != 0 {
		t.Errorf("close = %d, want 0", int32(got))
	}
	if got := int32(k.M.Peek(res+16, 4)); got != -1 {
		t.Errorf("read after close = %d, want -1", got)
	}
}

func TestOpenMissingFileFails(t *testing.T) {
	k, _ := boot(t)
	const nameAddr, res = 0x9100, 0x9000
	pokeName(k, nameAddr, "/no/such/file")
	prog := k.C.Synthesize(nil, "main", nil, func(e *synth.Emitter) {
		emitOpen(e, nameAddr)
		e.MoveL(m68k.D(0), m68k.Abs(res))
		exitSeq(e)
	})
	th := k.SpawnKernel("main", prog)
	run(t, k, th, 5_000_000)
	if got := int32(k.M.Peek(res, 4)); got != -1 {
		t.Errorf("open missing = %d, want -1", got)
	}
}

func TestFileReadWrite(t *testing.T) {
	k, _ := boot(t)
	if _, err := k.FS.CreateSized("/tmp/data", []byte("hello, synthesis"), 256); err != nil {
		t.Fatal(err)
	}
	const nameAddr, res, buf = 0x9100, 0x9000, 0x9300
	pokeName(k, nameAddr, "/tmp/data")
	prog := k.C.Synthesize(nil, "main", nil, func(e *synth.Emitter) {
		emitOpen(e, nameAddr) // fd 0
		// Read 5 bytes, then 100 (gets the remaining 11).
		e.MoveL(m68k.Imm(buf), m68k.D(1))
		e.MoveL(m68k.Imm(5), m68k.D(2))
		e.Trap(kernel.TrapRead + 0)
		e.MoveL(m68k.D(0), m68k.Abs(res))
		e.MoveL(m68k.Imm(buf+5), m68k.D(1))
		e.MoveL(m68k.Imm(100), m68k.D(2))
		e.Trap(kernel.TrapRead + 0)
		e.MoveL(m68k.D(0), m68k.Abs(res+4))
		// At EOF now: read -> 0.
		e.Trap(kernel.TrapRead + 0)
		e.MoveL(m68k.D(0), m68k.Abs(res+8))
		// Append via a second descriptor: open again (fd 1: fresh
		// position), write beyond the end by positioning with reads.
		emitOpen(e, nameAddr) // fd 1
		e.MoveL(m68k.Imm(0x9400), m68k.D(1))
		e.MoveL(m68k.Imm(16), m68k.D(2))
		e.Trap(kernel.TrapRead + 1)            // consume existing 16
		e.MoveL(m68k.Imm(nameAddr), m68k.D(1)) // write the name text
		e.MoveL(m68k.Imm(4), m68k.D(2))
		e.Trap(kernel.TrapWrite + 1)
		e.MoveL(m68k.D(0), m68k.Abs(res+12))
		exitSeq(e)
	})
	th := k.SpawnKernel("main", prog)
	run(t, k, th, 10_000_000)
	if got := k.M.Peek(res, 4); got != 5 {
		t.Errorf("first read = %d, want 5", got)
	}
	if got := k.M.Peek(res+4, 4); got != 11 {
		t.Errorf("second read = %d, want 11", got)
	}
	if got := k.M.Peek(res+8, 4); got != 0 {
		t.Errorf("read at EOF = %d, want 0", got)
	}
	if got := string(k.M.PeekBytes(buf, 16)); got != "hello, synthesis" {
		t.Errorf("read back %q", got)
	}
	if got := k.M.Peek(res+12, 4); got != 4 {
		t.Errorf("append write = %d, want 4", got)
	}
	f := k.FS.Lookup("/tmp/data")
	if got := k.FS.CurrentSize(f); got != 20 {
		t.Errorf("file size after append = %d, want 20", got)
	}
	if got := string(k.M.PeekBytes(f.Data, 20)); got != "hello, synthesis/tmp" {
		t.Errorf("file contents %q", got)
	}
}

func TestPipeSameThread(t *testing.T) {
	k, _ := boot(t)
	const res, wbuf, rbuf = 0x9000, 0x9300, 0x9700
	k.M.PokeBytes(wbuf, []byte("abcdefgh"))
	prog := k.C.Synthesize(nil, "main", nil, func(e *synth.Emitter) {
		e.MoveL(m68k.Imm(kernel.SysPipe), m68k.D(0))
		e.Trap(kernel.TrapSys) // rfd=0 in D0, wfd=1 in D1
		// Write 8 bytes into the pipe (fd 1).
		e.MoveL(m68k.Imm(wbuf), m68k.D(1))
		e.MoveL(m68k.Imm(8), m68k.D(2))
		e.Trap(kernel.TrapWrite + 1)
		e.MoveL(m68k.D(0), m68k.Abs(res))
		// Read them back (fd 0).
		e.MoveL(m68k.Imm(rbuf), m68k.D(1))
		e.MoveL(m68k.Imm(8), m68k.D(2))
		e.Trap(kernel.TrapRead + 0)
		e.MoveL(m68k.D(0), m68k.Abs(res+4))
		exitSeq(e)
	})
	th := k.SpawnKernel("main", prog)
	run(t, k, th, 5_000_000)
	if got := k.M.Peek(res, 4); got != 8 {
		t.Errorf("pipe write = %d, want 8", got)
	}
	if got := k.M.Peek(res+4, 4); got != 8 {
		t.Errorf("pipe read = %d, want 8", got)
	}
	if got := string(k.M.PeekBytes(rbuf, 8)); got != "abcdefgh" {
		t.Errorf("pipe data %q", got)
	}
}

// A queue's size is a power of two: its one-byte paths wrap an index
// with one AND.
func TestPipeSizeIsPowerOfTwo(t *testing.T) {
	_, io := boot(t)
	defer func() {
		if recover() == nil {
			t.Error("a 100-byte pipe was allocated")
		}
	}()
	io.NewPipe(100)
}

func TestPipeWrapAroundManyChunks(t *testing.T) {
	k, io := boot(t)
	// A small pipe forces wraparound and blocking between two
	// threads moving a large payload.
	p := io.NewPipe(64)
	const total = 1000
	const srcBuf, dstBuf, res = 0x20000, 0x28000, 0x9000
	pattern := make([]byte, total)
	for i := range pattern {
		pattern[i] = byte(i*7 + 3)
	}
	k.M.PokeBytes(srcBuf, pattern)

	writer := k.C.Synthesize(nil, "writer", nil, func(e *synth.Emitter) {
		e.MoveL(m68k.Imm(srcBuf), m68k.D(1))
		e.MoveL(m68k.Imm(total), m68k.D(2))
		e.Trap(kernel.TrapWrite + 0)
		e.MoveL(m68k.D(0), m68k.Abs(res))
		exitSeq(e)
	})
	reader := k.C.Synthesize(nil, "reader", nil, func(e *synth.Emitter) {
		// Loop reads until `total` bytes arrived (reads may be
		// partial).
		e.MoveL(m68k.Imm(dstBuf), m68k.D(3)) // cursor
		e.MoveL(m68k.Imm(total), m68k.D(4))  // remaining
		e.Label("loop")
		e.MoveL(m68k.D(3), m68k.D(1))
		e.MoveL(m68k.D(4), m68k.D(2))
		e.Trap(kernel.TrapRead + 0)
		e.AddL(m68k.D(0), m68k.D(3))
		e.SubL(m68k.D(0), m68k.D(4))
		e.Bne("loop")
		e.MoveL(m68k.Imm(1), m68k.Abs(res+4))
		exitSeq(e)
	})
	tw := k.SpawnKernel("writer", writer)
	tr := k.SpawnKernel("reader", reader)
	if io.OpenPipeEnd(tw, p, true) != 0 {
		t.Fatal("writer fd")
	}
	if io.OpenPipeEnd(tr, p, false) != 0 {
		t.Fatal("reader fd")
	}
	run(t, k, tw, 50_000_000)
	if got := k.M.Peek(res, 4); got != total {
		t.Errorf("writer moved %d bytes, want %d", got, total)
	}
	if k.M.Peek(res+4, 4) != 1 {
		t.Error("reader did not finish")
	}
	got := k.M.PeekBytes(dstBuf, total)
	for i := range pattern {
		if got[i] != pattern[i] {
			t.Fatalf("byte %d = %#x, want %#x", i, got[i], pattern[i])
		}
	}
	if g := p.Gauge(k.M); g == 0 {
		t.Error("pipe gauge never advanced (fine-grain scheduler would be blind)")
	}
}

func TestTTYCookedReadWithEraseAndKill(t *testing.T) {
	k, _ := boot(t)
	const nameAddr, res, buf = 0x9100, 0x9000, 0x9300
	pokeName(k, nameAddr, "/dev/tty")
	// "helX<erase>lo<kill>hi!\n" -> line should be "hi!\n"
	k.TTY.InputString("helX\x08lo\x15hi!\n", 1000, 2000)
	prog := k.C.Synthesize(nil, "main", nil, func(e *synth.Emitter) {
		emitOpen(e, nameAddr) // fd 0
		e.MoveL(m68k.Imm(buf), m68k.D(1))
		e.MoveL(m68k.Imm(64), m68k.D(2))
		e.Trap(kernel.TrapRead + 0)
		e.MoveL(m68k.D(0), m68k.Abs(res))
		exitSeq(e)
	})
	th := k.SpawnKernel("main", prog)
	run(t, k, th, 20_000_000)
	n := k.M.Peek(res, 4)
	if n != 4 {
		t.Fatalf("cooked read = %d bytes, want 4", n)
	}
	if got := string(k.M.PeekBytes(buf, int(n))); got != "hi!\n" {
		t.Errorf("line %q, want \"hi!\\n\"", got)
	}
	// The interrupt handler echoed everything typed.
	if echoed := string(k.TTY.Output()); !strings.Contains(echoed, "hi!") {
		t.Errorf("echo output %q", echoed)
	}
}

func TestTTYWrite(t *testing.T) {
	k, _ := boot(t)
	const nameAddr, msg = 0x9100, 0x9300
	pokeName(k, nameAddr, "/dev/tty")
	k.M.PokeBytes(msg, []byte("out!"))
	prog := k.C.Synthesize(nil, "main", nil, func(e *synth.Emitter) {
		emitOpen(e, nameAddr)
		e.MoveL(m68k.Imm(msg), m68k.D(1))
		e.MoveL(m68k.Imm(4), m68k.D(2))
		e.Trap(kernel.TrapWrite + 0)
		exitSeq(e)
	})
	th := k.SpawnKernel("main", prog)
	run(t, k, th, 5_000_000)
	if got := string(k.TTY.Output()); got != "out!" {
		t.Errorf("tty output %q", got)
	}
}

func TestRawTTYRead(t *testing.T) {
	k, _ := boot(t)
	const nameAddr, res, buf = 0x9100, 0x9000, 0x9300
	pokeName(k, nameAddr, "/dev/rawtty")
	k.TTY.InputString("\x08raw\x15", 1000, 2000) // control chars pass through raw
	prog := k.C.Synthesize(nil, "main", nil, func(e *synth.Emitter) {
		emitOpen(e, nameAddr)
		e.MoveL(m68k.Imm(buf), m68k.D(1))
		e.MoveL(m68k.Imm(5), m68k.D(2))
		e.Trap(kernel.TrapRead + 0)
		e.MoveL(m68k.D(0), m68k.Abs(res))
		exitSeq(e)
	})
	th := k.SpawnKernel("main", prog)
	run(t, k, th, 20_000_000)
	n := k.M.Peek(res, 4)
	if n == 0 {
		t.Fatal("raw read got nothing")
	}
	got := string(k.M.PeekBytes(buf, int(n)))
	if !strings.HasPrefix("\x08raw\x15", got) {
		t.Errorf("raw read %q", got)
	}
}

func TestADBufferedQueue(t *testing.T) {
	k, io := boot(t)
	const nameAddr, res, buf = 0x9100, 0x9000, 0x9300
	pokeName(k, nameAddr, "/dev/ad")
	prog := k.C.Synthesize(nil, "main", nil, func(e *synth.Emitter) {
		emitOpen(e, nameAddr) // fd 0
		// Start the sampler.
		e.MoveL(m68k.Imm(1), m68k.Abs(m68k.ADBase+m68k.ADRegCtl))
		// Read two elements' worth (64 bytes = 16 samples); reads may
		// return one element at a time, so accumulate.
		e.MoveL(m68k.Imm(buf), m68k.D(3))
		e.MoveL(m68k.Imm(64), m68k.D(4))
		e.Label("more")
		e.MoveL(m68k.D(3), m68k.D(1))
		e.MoveL(m68k.D(4), m68k.D(2))
		e.Trap(kernel.TrapRead + 0)
		e.AddL(m68k.D(0), m68k.D(3))
		e.SubL(m68k.D(0), m68k.D(4))
		e.Bne("more")
		e.MoveL(m68k.D(3), m68k.D(0))
		e.SubL(m68k.Imm(buf), m68k.D(0))
		e.MoveL(m68k.D(0), m68k.Abs(res))
		// Stop the sampler.
		e.MoveL(m68k.Imm(0), m68k.Abs(m68k.ADBase+m68k.ADRegCtl))
		exitSeq(e)
	})
	th := k.SpawnKernel("main", prog)
	run(t, k, th, 100_000_000) // 16 samples at 44.1 kHz ~ 360 usec
	n := k.M.Peek(res, 4)
	if n != 64 {
		t.Fatalf("ad read = %d bytes, want 64", n)
	}
	// Samples are the device's deterministic ramp: ch0 increments by
	// one per sample.
	first := k.M.Peek(buf, 4) >> 16
	second := k.M.Peek(buf+4, 4) >> 16
	if second != first+1 {
		t.Errorf("samples not consecutive: %d then %d", first, second)
	}
	if io.ADQ().Completed(k.M) < 2 {
		t.Error("buffered queue completed fewer than 2 elements")
	}
	if k.AD.Dropped != 0 {
		t.Errorf("sampler dropped %d samples", k.AD.Dropped)
	}
}

func TestDiskFileDemandLoading(t *testing.T) {
	k, io := boot(t)
	// A ~2.5 KB file spanning three disk blocks.
	contents := make([]byte, 2500)
	for i := range contents {
		contents[i] = byte(i*31 + 7)
	}
	if _, err := io.StoreDiskFile("/disk/big", contents); err != nil {
		t.Fatal(err)
	}
	const nameAddr, res, buf = 0x9100, 0x9000, 0x30000
	pokeName(k, nameAddr, "/disk/big")
	prog := k.C.Synthesize(nil, "main", nil, func(e *synth.Emitter) {
		emitOpen(e, nameAddr) // fd 0
		// First read: faults all three blocks through the disk
		// interrupt path.
		e.Kcall(kernel.SvcMark)
		e.MoveL(m68k.Imm(buf), m68k.D(1))
		e.MoveL(m68k.Imm(2500), m68k.D(2))
		e.Trap(kernel.TrapRead + 0)
		e.Kcall(kernel.SvcMark)
		e.MoveL(m68k.D(0), m68k.Abs(res))
		// Rewind and read again: cache hit, no disk traffic.
		e.MoveL(m68k.Imm(kernel.SysSeek), m68k.D(0))
		e.MoveL(m68k.Imm(0), m68k.D(1))
		e.MoveL(m68k.Imm(0), m68k.D(2))
		e.Trap(kernel.TrapSys)
		e.Kcall(kernel.SvcMark)
		e.MoveL(m68k.Imm(buf+4096), m68k.D(1))
		e.MoveL(m68k.Imm(2500), m68k.D(2))
		e.Trap(kernel.TrapRead + 0)
		e.Kcall(kernel.SvcMark)
		e.MoveL(m68k.D(0), m68k.Abs(res+4))
		exitSeq(e)
	})
	th := k.SpawnKernel("main", prog)
	run(t, k, th, 100_000_000)
	if got := k.M.Peek(res, 4); got != 2500 {
		t.Fatalf("first read = %d, want 2500", got)
	}
	if got := k.M.Peek(res+4, 4); got != 2500 {
		t.Fatalf("second read = %d, want 2500", got)
	}
	for i := 0; i < 2500; i++ {
		if got := byte(k.M.Peek(buf+uint32(i), 1)); got != contents[i] {
			t.Fatalf("byte %d = %#x, want %#x", i, got, contents[i])
		}
		if got := byte(k.M.Peek(buf+4096+uint32(i), 1)); got != contents[i] {
			t.Fatalf("cached byte %d = %#x, want %#x", i, got, contents[i])
		}
	}
	d := k.M.MarkMicros()
	if len(d) != 2 {
		t.Fatalf("marks: %v", d)
	}
	// The faulting read includes three disk latencies (20000 cycles
	// each at 50 MHz default clock here = 400 usec each... the boot
	// config is the test default); the cached read must be much
	// cheaper.
	if d[0] < 3*d[1] {
		t.Errorf("fault read %.1f usec not much slower than cached read %.1f usec", d[0], d[1])
	}
	t.Logf("fault read %.1f usec (3 disk transfers), cached read %.1f usec", d[0], d[1])
}

func TestFDTableExhaustion(t *testing.T) {
	k, _ := boot(t)
	const nameAddr, res = 0x9100, 0x9000
	pokeName(k, nameAddr, "/dev/null")
	prog := k.C.Synthesize(nil, "main", nil, func(e *synth.Emitter) {
		// Open MaxFD times, then once more: the last must fail.
		e.MoveL(m68k.Imm(int32(kernel.MaxFD)), m68k.D(5))
		e.Label("loop")
		emitOpen(e, nameAddr)
		e.SubL(m68k.Imm(1), m68k.D(5))
		e.Bne("loop")
		emitOpen(e, nameAddr)
		e.MoveL(m68k.D(0), m68k.Abs(res))
		exitSeq(e)
	})
	th := k.SpawnKernel("main", prog)
	run(t, k, th, 50_000_000)
	if got := int32(k.M.Peek(res, 4)); got != -1 {
		t.Errorf("open past the fd table = %d, want -1", got)
	}
	if k.M.Peek(kernel.FDCell(th.TTE, kernel.MaxFD-1, kernel.FDKind), 4) == kio.FDFree {
		t.Error("fd table not actually full")
	}
}

func TestCloseInvalidFD(t *testing.T) {
	k, _ := boot(t)
	const res = 0x9000
	prog := k.C.Synthesize(nil, "main", nil, func(e *synth.Emitter) {
		e.MoveL(m68k.Imm(kernel.SysClose), m68k.D(0))
		e.MoveL(m68k.Imm(7), m68k.D(1)) // never opened
		e.Trap(kernel.TrapSys)
		e.MoveL(m68k.D(0), m68k.Abs(res))
		e.MoveL(m68k.Imm(kernel.SysClose), m68k.D(0))
		e.MoveL(m68k.Imm(99), m68k.D(1)) // out of range
		e.Trap(kernel.TrapSys)
		e.MoveL(m68k.D(0), m68k.Abs(res+4))
		exitSeq(e)
	})
	th := k.SpawnKernel("main", prog)
	run(t, k, th, 5_000_000)
	if got := int32(k.M.Peek(res, 4)); got != -1 {
		t.Errorf("close(7) = %d, want -1", got)
	}
	if got := int32(k.M.Peek(res+4, 4)); got != -1 {
		t.Errorf("close(99) = %d, want -1", got)
	}
}

// A descriptor that was never opened fails like a closed one: its read
// and write vectors hold bad_fd, in threads created after the install
// and in the ones (idle) that already existed.
func TestNeverOpenedFDFails(t *testing.T) {
	k, _ := boot(t)
	const res = 0x9000
	prog := k.C.Synthesize(nil, "main", nil, func(e *synth.Emitter) {
		e.MoveL(m68k.Imm(0x9200), m68k.D(1))
		e.MoveL(m68k.Imm(1), m68k.D(2))
		e.Trap(kernel.TrapRead + 5)
		e.MoveL(m68k.D(0), m68k.Abs(res))
		e.MoveL(m68k.Imm(0x9200), m68k.D(1))
		e.MoveL(m68k.Imm(1), m68k.D(2))
		e.Trap(kernel.TrapWrite + kernel.MaxFD - 1)
		e.MoveL(m68k.D(0), m68k.Abs(res+4))
		exitSeq(e)
	})
	th := k.SpawnKernel("main", prog)
	run(t, k, th, 5_000_000)
	if got := int32(k.M.Peek(res, 4)); got != -1 {
		t.Errorf("read(5) = %d, want -1", got)
	}
	if got := int32(k.M.Peek(res+4, 4)); got != -1 {
		t.Errorf("write(%d) = %d, want -1", kernel.MaxFD-1, got)
	}
	panicVec := k.M.Peek(k.ProtoVectors()+uint32(m68k.VecTrapBase+7)*4, 4) // trap #7 is no one's
	for fd := 0; fd < kernel.MaxFD; fd++ {
		for _, trap := range []int{kernel.TrapRead, kernel.TrapWrite} {
			off := uint32(m68k.VecTrapBase+trap+fd) * 4
			idle, proto := k.M.Peek(k.Idle.TTE+kernel.TTEVec+off, 4), k.M.Peek(k.ProtoVectors()+off, 4)
			if proto == panicVec || idle != proto {
				t.Errorf("trap #%d: idle thread's vector %d, prototype's %d, panic stub %d", trap+fd, idle, proto, panicVec)
			}
		}
	}
}

func TestTTYQueueOverflowDropsInput(t *testing.T) {
	k, _ := boot(t)
	// Flood far beyond the 256-byte raw queue while nobody reads:
	// the interrupt handler must drop, not corrupt.
	long := make([]byte, 600)
	for i := range long {
		long[i] = byte('a' + i%26)
	}
	k.TTY.InputString(string(long), 1000, 300)
	const nameAddr, res, buf = 0x9100, 0x9000, 0x9300
	pokeName(k, nameAddr, "/dev/rawtty")
	prog := k.C.Synthesize(nil, "main", nil, func(e *synth.Emitter) {
		// Spin long enough for all input to arrive (and overflow).
		e.MoveL(m68k.Imm(kernel.SysYield), m68k.D(0))
		e.Trap(kernel.TrapSys)
		e.MoveL(m68k.Imm(60000), m68k.D(3))
		e.Label("spin")
		e.Dbra(3, "spin")
		emitOpen(e, nameAddr)
		e.MoveL(m68k.Imm(buf), m68k.D(1))
		e.MoveL(m68k.Imm(600), m68k.D(2))
		e.Trap(kernel.TrapRead + 0)
		e.MoveL(m68k.D(0), m68k.Abs(res))
		exitSeq(e)
	})
	th := k.SpawnKernel("main", prog)
	run(t, k, th, 300_000_000)
	n := k.M.Peek(res, 4)
	if n == 0 || n > 255 {
		t.Errorf("read %d bytes from a 256-byte queue under overflow", n)
	}
	// Whatever survived must be a prefix-consistent alphabet run.
	got := k.M.PeekBytes(buf, int(n))
	for i, c := range got {
		if c != byte('a'+i%26) {
			t.Fatalf("byte %d corrupted: %q", i, got[:i+1])
		}
	}
}

func TestLookupRoutineHonorsLastLongHash(t *testing.T) {
	// The VM lookup and the Go-side fs.Hash must agree: create files
	// whose names differ only in the LAST character (the low byte of
	// the hashed long, and of the first long compared backwards) and
	// open each through the system call.
	k, _ := boot(t)
	names := []string{"/x/aaa", "/x/aab", "/x/aac", "/x/aad"}
	for i, n := range names {
		if _, err := k.FS.Create(n, []byte{byte('0' + i)}); err != nil {
			t.Fatal(err)
		}
	}
	const base, res = 0x9100, 0x9000
	for i, n := range names {
		pokeName(k, base+uint32(i)*16, n)
	}
	prog := k.C.Synthesize(nil, "main", nil, func(e *synth.Emitter) {
		for i := range names {
			emitOpen(e, base+uint32(i)*16)
			e.MoveL(m68k.Imm(0x9300), m68k.D(1))
			e.MoveL(m68k.Imm(1), m68k.D(2))
			e.Trap(uint8(kernel.TrapRead + i))
			e.MoveB(m68k.Abs(0x9300), m68k.D(0))
			e.MoveL(m68k.D(0), m68k.Abs(res+uint32(i)*4))
		}
		exitSeq(e)
	})
	th := k.SpawnKernel("main", prog)
	run(t, k, th, 50_000_000)
	for i := range names {
		if got := k.M.Peek(res+uint32(i)*4, 4); got != uint32('0'+i) {
			t.Errorf("file %s read %c, want %c", names[i], got, '0'+i)
		}
	}
}

func TestKernelPumpThread(t *testing.T) {
	// Producer -> pipe A -> [kernel pump thread] -> pipe B ->
	// consumer: the pump "never executes user-level code, but runs
	// entirely within the kernel" moving the stream along.
	k, io := boot(t)
	pa := io.NewPipe(256)
	pb := io.NewPipe(256)
	io.SpawnPump("pumpAB", pa, pb, 64)

	const total = 3000
	const srcBuf, dstBuf, res = 0x20000, 0x28000, 0x9000
	pattern := make([]byte, total)
	for i := range pattern {
		pattern[i] = byte(i*5 + 1)
	}
	k.M.PokeBytes(srcBuf, pattern)

	producer := k.C.Synthesize(nil, "prod", nil, func(e *synth.Emitter) {
		e.MoveL(m68k.Imm(srcBuf), m68k.D(1))
		e.MoveL(m68k.Imm(total), m68k.D(2))
		e.Trap(kernel.TrapWrite + 0)
		exitSeq(e)
	})
	consumer := k.C.Synthesize(nil, "cons", nil, func(e *synth.Emitter) {
		e.MoveL(m68k.Imm(dstBuf), m68k.D(3))
		e.MoveL(m68k.Imm(total), m68k.D(4))
		e.Label("loop")
		e.MoveL(m68k.D(3), m68k.D(1))
		e.MoveL(m68k.D(4), m68k.D(2))
		e.Trap(kernel.TrapRead + 0)
		e.AddL(m68k.D(0), m68k.D(3))
		e.SubL(m68k.D(0), m68k.D(4))
		e.Bne("loop")
		e.MoveL(m68k.Imm(1), m68k.Abs(res))
		exitSeq(e)
	})
	tp := k.SpawnKernel("prod", producer)
	tc := k.SpawnKernel("cons", consumer)
	if io.OpenPipeEnd(tp, pa, true) != 0 {
		t.Fatal("producer fd")
	}
	if io.OpenPipeEnd(tc, pb, false) != 0 {
		t.Fatal("consumer fd")
	}
	run(t, k, tp, 200_000_000)
	if k.M.Peek(res, 4) != 1 {
		t.Fatal("consumer did not finish")
	}
	got := k.M.PeekBytes(dstBuf, total)
	for i := range pattern {
		if got[i] != pattern[i] {
			t.Fatalf("byte %d = %#x, want %#x (pump corrupted the stream)", i, got[i], pattern[i])
		}
	}
}

// TestCookedReadLayeredMatchesCollapsed runs the same typed input
// through both instantiations of the cooked-read template — the raw
// get-character emitted in place (what open installs) and called
// through a JSR (the ablation's layered variant) — and requires the
// same bytes and count from each. Paced input parks the reader inside
// the get-character; burst input never does.
func TestCookedReadLayeredMatchesCollapsed(t *testing.T) {
	const nameAddr, res, buf, layeredFD = 0x9100, 0x9000, 0x9300, 9
	read := func(layered bool, input string, gap uint64, max int32) string {
		k, io := boot(t)
		pokeName(k, nameAddr, "/dev/tty")
		k.TTY.InputString(input, 1000, gap)
		fd := uint8(0)
		if layered {
			fd = layeredFD
		}
		prog := k.C.Synthesize(nil, "main", nil, func(e *synth.Emitter) {
			if !layered {
				emitOpen(e, nameAddr) // fd 0
			}
			e.MoveL(m68k.Imm(buf), m68k.D(1))
			e.MoveL(m68k.Imm(max), m68k.D(2))
			e.Trap(kernel.TrapRead + fd)
			e.MoveL(m68k.D(0), m68k.Abs(res))
			exitSeq(e)
		})
		th := k.SpawnKernel("main", prog)
		if layered {
			// The line discipline keeps no per-descriptor state, so
			// the routine goes straight onto a slot open never touches.
			vec := th.TTE + kernel.TTEVec + uint32(m68k.VecTrapBase+kernel.TrapRead+layeredFD)*4
			k.M.Poke(vec, 4, io.SynthLayeredCookedRead(th))
		}
		run(t, k, th, 20_000_000)
		n := k.M.Peek(res, 4)
		if n > uint32(max) {
			t.Fatalf("layered=%v: read returned %d for a %d-byte buffer", layered, n, max)
		}
		return string(k.M.PeekBytes(buf, int(n)))
	}
	for _, tc := range []struct {
		name, input, want string
		max               int32
	}{
		{"erase and kill", "helX\x08lo\x15hi!\n", "hi!\n", 64},
		{"erase at line start", "\x08\x08ab\x08\x08\x08c\n", "c\n", 64},
		{"kill twice", "one\x15\x15two\n", "two\n", 64},
		{"buffer fills first", "abcd\x08\x08efgh\n", "abefg", 5},
	} {
		for _, gap := range []uint64{0, 2000} {
			collapsed := read(false, tc.input, gap, tc.max)
			layered := read(true, tc.input, gap, tc.max)
			if collapsed != tc.want || layered != tc.want {
				t.Errorf("%s, gap %d: collapsed %q, layered %q, want %q",
					tc.name, gap, collapsed, layered, tc.want)
			}
		}
	}
}
