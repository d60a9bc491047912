package kio_test

import (
	"fmt"
	"math/rand"
	"testing"

	"synthesis/internal/kernel"
	"synthesis/internal/kio"
	"synthesis/internal/m68k"
	"synthesis/internal/metrics"
	"synthesis/internal/synth"
)

// TestSlotChurnHoldsCodeFlat: a descriptor slot owns one code region,
// so no sequence of opens on it grows code space. Two threads first
// open every kind of descriptor once on fd 0 (and the kernel-wide
// routines get built). Then one fd opens 200 distinct files, and then
// come 1,000 opens mixed over those files and every kind, on both
// threads, each closed before the next. From there on code space must
// not move by one slot, and profiler regions, registry names and free
// heap must be where they started; a build that overflowed its region
// would panic. While each routine was filed under its (thread, fd,
// file), every new file added its read and write to code space for
// good: 75 slots each.
func TestSlotChurnHoldsCodeFlat(t *testing.T) {
	reg := metrics.New()
	k := kernel.Boot(kernel.Config{
		Machine: m68k.Config{MemSize: 1 << 20},
		Profile: true,
		Metrics: reg,
	})
	regions := logRegions(k)
	io := kio.Install(k)
	const files = 200
	for i := range files {
		if _, err := k.FS.CreateSized(fmt.Sprintf("/tmp/%d", i), []byte{byte(i)}, 64); err != nil {
			t.Fatal(err)
		}
	}
	for _, name := range []string{"/disk/a", "/disk/b"} {
		if _, err := io.StoreDiskFile(name, []byte(name)); err != nil {
			t.Fatal(err)
		}
	}
	threads := []*kernel.Thread{k.SpawnKernelStopped("a", 0), k.SpawnKernelStopped("b", 0)}

	rng := rand.New(rand.NewSource(41))
	named := func(names ...string) func(*kernel.Thread) int32 {
		return func(th *kernel.Thread) int32 { return io.Open(th, names[rng.Intn(len(names))]) }
	}
	end := func(writeEnd bool) func(*kernel.Thread) int32 {
		return func(th *kernel.Thread) int32 {
			// The end's close is the pipe's last, which frees the queue.
			return io.OpenPipeEnd(th, io.NewPipe(64), writeEnd)
		}
	}
	kinds := []struct {
		name string
		open func(*kernel.Thread) int32
	}{
		{"file", func(th *kernel.Thread) int32 { return io.Open(th, fmt.Sprintf("/tmp/%d", rng.Intn(files))) }},
		{"disk file", named("/disk/a", "/disk/b")},
		{"raw tty", named("/dev/rawtty")},
		{"pipe read end", end(false)},
		{"pipe write end", end(true)},
		{"/proc", named(kio.ProcMetricsPath, kio.ProcMetricsPromPath)},
		{"socket", func(th *kernel.Thread) int32 {
			return io.OpenSocket(th, uint32(5+rng.Intn(4)), 9)
		}},
		{"tty", named("/dev/tty")},
		{"null", named("/dev/null")},
		{"a/d", named("/dev/ad")},
	}
	type reading struct {
		codeTop, heapFree uint32
		regions, names    int
	}
	read := func() reading {
		return reading{k.M.CodeTop, k.Heap.FreeBytes(), k.Prof.Regions(), len(reg.Names())}
	}
	var warm reading
	cycle := func(th *kernel.Thread, i int) {
		t.Helper()
		if fd := kinds[i].open(th); fd != 0 {
			t.Fatalf("%s: %s open = %d, want fd 0", th.Name, kinds[i].name, fd)
		}
		if warm.codeTop != 0 && k.M.CodeTop != warm.codeTop {
			t.Fatalf("%s: a %s open moved code space %d -> %d", th.Name, kinds[i].name, warm.codeTop, k.M.CodeTop)
		}
		checkUnixCells(t, k, io, regions)
		if !io.Close(th, 0) {
			t.Fatalf("%s: %s close failed", th.Name, kinds[i].name)
		}
	}
	// Warm-up: every kind, and every socket port, once on each thread.
	for _, th := range threads {
		for i := range kinds {
			cycle(th, i)
		}
		for port := uint32(5); port < 9; port++ {
			io.Close(th, io.OpenSocket(th, port, 9))
		}
	}
	warm = read()

	for i := range files {
		if fd := io.Open(threads[0], fmt.Sprintf("/tmp/%d", i)); fd != 0 {
			t.Fatalf("open of file %d = %d", i, fd)
		}
		if k.M.CodeTop != warm.codeTop {
			t.Fatalf("opening file %d moved code space %d -> %d", i, warm.codeTop, k.M.CodeTop)
		}
		io.Close(threads[0], 0)
	}
	if got := read(); got != warm {
		t.Errorf("%d distinct files on one slot moved the kernel:\n after warm-up: %+v\n after:         %+v", files, warm, got)
	}
	for range 1000 {
		cycle(threads[rng.Intn(len(threads))], rng.Intn(len(kinds)))
	}
	if got := read(); got != warm {
		t.Errorf("1,000 mixed opens moved the kernel:\n after warm-up: %+v\n after:         %+v", warm, got)
	}
}

// handlerRig boots a kernel with the file /f, a file the handlers
// below open on the descriptor their thread was interrupted in.
func handlerRig(t *testing.T) (*kernel.Kernel, *kio.IO) {
	k, io := boot(t)
	if _, err := k.FS.CreateSized("/f", []byte("file!"), 64); err != nil {
		t.Fatal(err)
	}
	pokeName(k, hName, "/f")
	return k, io
}

const (
	hName  = 0x9100 // "/f"
	hOpen  = 0x9000 // what the handler's open returned
	hCalls = 0x9004 // handler entries
	hRead  = 0x9008 // what the interrupted read returned
	hAfter = 0x900c // what a read of /f, opened after the handler, returned
	hBuf   = 0x9200
)

// emitReopenHandler emits a signal and error handler that closes fd 0
// and opens /f on it, on its first entry only, with every register the
// interrupted code may hold saved around the calls, and returns through
// sig_return.
func emitReopenHandler(e *synth.Emitter) {
	saved := []m68k.Operand{m68k.D(0), m68k.D(1), m68k.D(2), m68k.A(0), m68k.A(1)}
	for _, r := range saved {
		e.MoveL(r, m68k.PreDec(7))
	}
	e.AddL(m68k.Imm(1), m68k.Abs(hCalls))
	e.CmpL(m68k.Imm(1), m68k.Abs(hCalls))
	e.Bne("again")
	emitClose(e, 0)
	emitOpen(e, hName)
	e.MoveL(m68k.D(0), m68k.Abs(hOpen))
	e.Label("again")
	for i := len(saved) - 1; i >= 0; i-- {
		e.MoveL(m68k.PostInc(7), saved[i])
	}
	e.Trap(kernel.TrapSig)
}

// emitReadAfter opens /f on fd 0 once the handler is done and reads it
// into hBuf: the count lands in hAfter.
func emitReadAfter(e *synth.Emitter) {
	emitClose(e, 0)
	emitOpen(e, hName)
	e.MoveL(m68k.Imm(hBuf), m68k.D(1))
	e.MoveL(m68k.Imm(16), m68k.D(2))
	e.Trap(kernel.TrapRead + 0)
	e.MoveL(m68k.D(0), m68k.Abs(hAfter))
}

// checkHandlerRule reads what a handler test left: the handler ran
// once and its open failed, the interrupted read finished in the code
// it began in and returned want, and /f opened on the slot after the
// handler returned reads whole.
func checkHandlerRule(t *testing.T, k *kernel.Kernel, want int32) {
	t.Helper()
	if got := k.M.Peek(hCalls, 4); got == 0 {
		t.Fatal("the handler did not run")
	}
	if got := int32(k.M.Peek(hOpen, 4)); got != -1 {
		t.Errorf("the handler's open of the descriptor it interrupted = %d, want -1", got)
	}
	if got := int32(k.M.Peek(hRead, 4)); got != want {
		t.Errorf("the interrupted read returned %d, want %d", got, want)
	}
	if got := int32(k.M.Peek(hAfter, 4)); got != 5 || string(k.M.PeekBytes(hBuf, 5)) != "file!" {
		t.Errorf("/f opened after the handler read %d bytes %q, want 5 \"file!\"", got, k.M.PeekBytes(hBuf, 5))
	}
}

// TestHandlerCannotRebuildInterruptedSlot: a signal handler may close
// the descriptor its thread is parked in, but its open on that slot
// fails while it runs. The reader parks in a pipe read on fd 0 and is
// signalled; the writer's bytes wake it into the handler, which closes
// fd 0 and opens /f there. Had the open rebuilt the slot's region, the
// read would resume from block_on into the middle of /f's routines;
// the rule keeps the pipe read intact, and it returns the bytes.
func TestHandlerCannotRebuildInterruptedSlot(t *testing.T) {
	k, io := handlerRig(t)
	handler := k.C.Synthesize(nil, "handler", nil, emitReopenHandler)
	reader := k.SpawnKernel("reader", k.C.Synthesize(nil, "reader", nil, func(e *synth.Emitter) {
		e.MoveL(m68k.Imm(hBuf+0x80), m68k.D(1))
		e.MoveL(m68k.Imm(5), m68k.D(2))
		e.Trap(kernel.TrapRead + 0)
		e.MoveL(m68k.D(0), m68k.Abs(hRead))
		emitReadAfter(e)
		exitSeq(e)
	}))
	const wbuf = 0x9300
	k.M.PokeBytes(wbuf, []byte("pipe!"))
	writer := k.SpawnKernel("writer", k.C.Synthesize(nil, "writer", nil, func(e *synth.Emitter) {
		e.MoveL(m68k.Imm(kernel.SysYield), m68k.D(0)) // the reader parks
		e.Trap(kernel.TrapSys)
		e.MoveL(m68k.Imm(kernel.SysSignal), m68k.D(0))
		e.MoveL(m68k.Imm(int32(reader.TTE)), m68k.D(1))
		e.MoveL(m68k.Imm(int32(handler)), m68k.D(2))
		e.Trap(kernel.TrapSys)
		e.MoveL(m68k.Imm(wbuf), m68k.D(1))
		e.MoveL(m68k.Imm(5), m68k.D(2))
		e.Trap(kernel.TrapWrite + 0)
		exitSeq(e)
	}))
	q := io.NewPipe(64)
	if io.OpenPipeEnd(reader, q, false) != 0 || io.OpenPipeEnd(writer, q, true) != 0 {
		t.Fatal("pipe end fds")
	}
	run(t, k, reader, 50_000_000)
	checkHandlerRule(t, k, 5)
	if got := string(k.M.PeekBytes(hBuf+0x80, 5)); got != "pipe!" {
		t.Errorf("the interrupted read got %q, want \"pipe!\"", got)
	}
}

// TestErrorHandlerCannotRebuildInterruptedSlot is the error-trap case:
// a pipe read whose buffer runs past the end of RAM faults inside the
// slot's routine, and the error handler closes fd 0 and opens /f on
// it. The open fails, so each faulting store resumes in the pipe read
// it came from, and the read returns its count.
func TestErrorHandlerCannotRebuildInterruptedSlot(t *testing.T) {
	k, _ := handlerRig(t)
	handler := k.C.Synthesize(nil, "handler", nil, emitReopenHandler)
	end := int32(k.M.MemSize())
	const wbuf = 0x9300
	k.M.PokeBytes(wbuf, []byte("pipe!"))
	th := k.SpawnKernel("main", k.C.Synthesize(nil, "main", nil, func(e *synth.Emitter) {
		e.MoveL(m68k.Imm(kernel.SysPipe), m68k.D(0)) // fd 0 reads, fd 1 writes
		e.Trap(kernel.TrapSys)
		e.MoveL(m68k.Imm(wbuf), m68k.D(1))
		e.MoveL(m68k.Imm(5), m68k.D(2))
		e.Trap(kernel.TrapWrite + 1)
		e.MoveL(m68k.Imm(end-2), m68k.D(1))
		e.MoveL(m68k.Imm(5), m68k.D(2))
		e.Trap(kernel.TrapRead + 0)
		e.MoveL(m68k.D(0), m68k.Abs(hRead))
		emitReadAfter(e)
		exitSeq(e)
	}))
	k.M.Poke(th.TTE+kernel.TTEErrPC, 4, uint32(handler))
	run(t, k, th, 50_000_000)
	checkHandlerRule(t, k, 5)
}

// BenchmarkReopen is the host's cost of one open and close of a
// descriptor on a slot that has been open before: /dev/tty's routines
// are built once per kernel and a reopen only accounts them, a file's
// are built again into the slot's region. tty_registry is tty with the
// metrics plane attached, which an open and close leave alone.
func BenchmarkReopen(b *testing.B) {
	for _, c := range []struct {
		name, path string
		reg        *metrics.Registry
	}{{"tty", "/dev/tty", nil}, {"file", "/tmp/f", nil}, {"tty_registry", "/dev/tty", metrics.New()}} {
		b.Run(c.name, func(b *testing.B) {
			k := kernel.Boot(kernel.Config{Machine: m68k.Sun3Config(), ChargeSynthesis: true, Metrics: c.reg})
			io := kio.Install(k)
			if _, err := k.FS.CreateSized("/tmp/f", []byte("data"), 64); err != nil {
				b.Fatal(err)
			}
			th := k.SpawnKernelStopped("main", 0)
			for b.Loop() {
				if io.Open(th, c.path) != 0 || !io.Close(th, 0) {
					b.Fatal("open or close failed")
				}
			}
		})
	}
}
