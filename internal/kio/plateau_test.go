package kio_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"synthesis/internal/kernel"
	"synthesis/internal/kio"
	"synthesis/internal/m68k"
	"synthesis/internal/metrics"
	"synthesis/internal/synth"
)

// emitClose closes descriptor fd; the result lands in D0.
func emitClose(e *synth.Emitter, fd int32) {
	e.MoveL(m68k.Imm(kernel.SysClose), m68k.D(0))
	e.MoveL(m68k.Imm(fd), m68k.D(1))
	e.Trap(kernel.TrapSys)
}

// TestSocketChurnReturnsItsHeap: socket churn costs no heap. A
// socket's receive queue and staging frame are its table entry's block,
// allocated once at boot, so an open takes none and a close gives none
// back.
func TestSocketChurnReturnsItsHeap(t *testing.T) {
	k, _ := boot(t)
	const cycles, res = 10_000, 0x9000
	prog := k.C.Synthesize(nil, "main", nil, func(e *synth.Emitter) {
		e.Clr(4, m68k.Abs(res))
		e.MoveL(m68k.Imm(cycles), m68k.D(5))
		e.Label("loop")
		emitSock(e, 7, 7)
		e.OrL(m68k.D(0), m68k.Abs(res)) // every open must return fd 0
		emitClose(e, 0)
		e.OrL(m68k.D(0), m68k.Abs(res))
		e.SubL(m68k.Imm(1), m68k.D(5))
		e.Bne("loop")
		exitSeq(e)
	})
	th := k.SpawnKernel("main", prog)
	free := k.Heap.FreeBytes()
	run(t, k, th, 2_000_000_000)
	if got := k.M.Peek(res, 4); got != 0 {
		t.Errorf("an open or a close failed: results or to %#x", got)
	}
	if got := k.Heap.FreeBytes(); got != free {
		t.Errorf("%d socket cycles moved the heap's free bytes %d -> %d", cycles, free, got)
	}
}

// TestSocketChurnPlateaus: a closed socket's table entry keeps its
// port and its block, so a port that reopens, in whatever order, gets
// its own queue back, and each reopen builds its send and receive
// routines into its descriptor slot's own code region: after one warm
// pass, churn grows no code and allocates nothing. Eight threads hold
// one socket each; a pass closes every pair of them and reopens the
// pair in swapped order.
//
// A second churn fills the table: sixteen threads with a port each,
// and each step opens or closes the socket of a thread drawn from a
// seeded sequence, so the set of open ports keeps changing and seldom
// repeats. An open or a close patches its entry's demux cell, so after
// one warm pass of 1,000 steps the next changes nothing either. While
// every open and close resynthesized the receive handler, each new
// open set was a new handler: checked in a scratch copy, this pass
// then minted about 102 code slots per step.
func TestSocketChurnPlateaus(t *testing.T) {
	k := kernel.Boot(kernel.Config{
		Machine: m68k.Config{MemSize: 1 << 20},
		Profile: true,
	})
	regions := logRegions(k)
	io := kio.Install(k)
	const threads, port, passes = 8, 100, 20
	th := make([]*kernel.Thread, threads)
	open := func(i int) {
		t.Helper()
		if fd := io.OpenSocket(th[i], port+uint32(i), port); fd != 0 {
			t.Fatalf("%s: socket open = %d, want fd 0", th[i].Name, fd)
		}
	}
	for i := range th {
		th[i] = k.SpawnKernelStopped(fmt.Sprintf("t%d", i), 0)
		open(i)
	}
	pass := func() {
		for i := 0; i < threads; i++ {
			for j := i + 1; j < threads; j++ {
				io.Close(th[i], 0)
				io.Close(th[j], 0)
				open(j)
				open(i)
			}
		}
	}
	type reading struct {
		codeTop, heapFree uint32
		regions           int
	}
	read := func() reading {
		return reading{k.M.CodeTop, k.Heap.FreeBytes(), k.Prof.Regions()}
	}
	pass()
	warm := read()
	for p := 0; p < passes; p++ {
		pass()
	}
	if got := read(); got != warm {
		t.Errorf("%d passes of socket churn moved the kernel:\n after warm-up: %+v\n after churn:   %+v", passes, warm, got)
	}
	socks := io.NetSockets()
	for i, s := range socks {
		if s.Port != port+uint32(i) {
			t.Errorf("socket table entry %d holds port %d, want %d", i, s.Port, port+i)
		}
	}
	if len(socks) != threads {
		t.Errorf("%d sockets open, want %d", len(socks), threads)
	}

	held := make([]bool, kio.MaxSockets)
	for i := range th {
		held[i] = true
	}
	for i := threads; i < kio.MaxSockets; i++ {
		th = append(th, k.SpawnKernelStopped(fmt.Sprintf("t%d", i), 0))
	}
	rng := rand.New(rand.NewSource(36))
	random := func() {
		for range 1000 {
			i := rng.Intn(kio.MaxSockets)
			if !held[i] {
				open(i)
			} else if !io.Close(th[i], 0) {
				t.Fatalf("%s: socket close failed", th[i].Name)
			}
			held[i] = !held[i]
		}
	}
	random()
	warm = read()
	random()
	if got := read(); got != warm {
		t.Errorf("1,000 random socket opens and closes moved the kernel:\n after warm-up: %+v\n after churn:   %+v", warm, got)
	}
	for _, s := range io.NetSockets() {
		if i := s.Port - port; !held[i] {
			t.Errorf("port %d is in the socket table but was closed", s.Port)
		}
	}
	checkUnixCells(t, k, io, regions)
}

// TestExitClosesDescriptors: a thread that exits while others live
// closes what it had open. Its socket's port opens again, its
// per-socket metrics are gone, and its pipe's queue and its TTE are
// back in the heap. Without the closes the port would stay taken for
// the kernel's life.
func TestExitClosesDescriptors(t *testing.T) {
	k, io, reg := bootMetrics(t)
	const res = 0x9000
	progA := k.C.Synthesize(nil, "a", nil, func(e *synth.Emitter) {
		emitSock(e, 7, 7)
		e.MoveL(m68k.Imm(kernel.SysPipe), m68k.D(0))
		e.Trap(kernel.TrapSys)
		exitSeq(e)
	})
	progB := k.C.Synthesize(nil, "b", nil, func(e *synth.Emitter) {
		// Let a run to its exit, then take its port.
		for i := 0; i < 4; i++ {
			e.MoveL(m68k.Imm(kernel.SysYield), m68k.D(0))
			e.Trap(kernel.TrapSys)
		}
		emitSock(e, 7, 7)
		e.MoveL(m68k.D(0), m68k.Abs(res))
		emitClose(e, 0)
		exitSeq(e)
	})
	a := k.SpawnKernel("a", progA)
	b := k.SpawnKernel("b", progB)
	// The first open of port 7 allocates the invocation counters of its
	// routines' names, which live as long as the registry does.
	io.Close(b, io.OpenSocket(b, 7, 7))
	// b exits last, and the last thread keeps its TTE.
	size, _ := k.Heap.SizeOf(a.TTE)
	free := k.Heap.FreeBytes() + size
	run(t, k, a, 50_000_000)
	if got := int32(k.M.Peek(res, 4)); got != 0 {
		t.Errorf("b's open of a's port = %d, want fd 0", got)
	}
	if onChain(k, a.TTE) {
		t.Error("a is still on the live chain")
	}
	for _, name := range reported(reg, "kio.sock.7.", "kio.pipe.", "kio.fd.a.") {
		t.Errorf("%s outlived its descriptor", name)
	}
	if got := k.Heap.FreeBytes(); got != free {
		t.Errorf("heap free bytes = %d, want %d (all but b's TTE)", got, free)
	}
}

// TestPipeChurnReturnsItsHeap: the last close of a pipe's ends, in
// whichever thread, frees its 8 KB queue, and no earlier close does;
// a snapshot reports the pipe's kio.pipe.* family while an end is
// open and not after. The queue used to stay, so a 1 MB
// kernel ran out of heap after ~118 pipe()/close/close rounds and the
// host process panicked inside the pipe service.
func TestPipeChurnReturnsItsHeap(t *testing.T) {
	k, io, reg := bootMetrics(t)
	regions := logRegions(k)
	// Across threads: the queue lives while either end is open.
	q := io.NewPipe(64)
	reader, writer := k.SpawnKernelStopped("reader", 0), k.SpawnKernelStopped("writer", 0)
	if io.OpenPipeEnd(reader, q, false) != 0 || io.OpenPipeEnd(writer, q, true) != 0 {
		t.Fatal("pipe end fds")
	}
	checkUnixCells(t, k, io, regions)
	for _, end := range []*kernel.Thread{reader, writer} {
		if _, live := k.Heap.SizeOf(q.Addr); !live {
			t.Fatalf("the queue was freed before %s's end closed", end.Name)
		}
		if got := reported(reg, "kio.pipe."); len(got) != 2 {
			t.Errorf("with %s's end open a snapshot reports %v, want the pipe's two metrics", end.Name, got)
		}
		io.Close(end, 0)
	}
	if _, live := k.Heap.SizeOf(q.Addr); live {
		t.Error("the queue outlived both ends")
	}

	const cycles, res, wbuf, rbuf = 1000, 0x9000, 0x9100, 0x9200
	k.M.Poke(wbuf, 1, 'p')
	prog := k.C.Synthesize(nil, "main", nil, func(e *synth.Emitter) {
		e.Clr(4, m68k.Abs(res))
		e.MoveL(m68k.Imm(cycles), m68k.D(5))
		e.Label("loop")
		e.MoveL(m68k.Imm(kernel.SysPipe), m68k.D(0))
		e.Trap(kernel.TrapSys)
		e.OrL(m68k.D(0), m68k.Abs(res)) // the read end must be fd 0 ...
		e.SubL(m68k.Imm(1), m68k.D(1))
		e.OrL(m68k.D(1), m68k.Abs(res)) // ... and the write end fd 1
		for _, rw := range []struct {
			trap uint8
			buf  int32
		}{{kernel.TrapWrite + 1, wbuf}, {kernel.TrapRead + 0, rbuf}} {
			e.MoveL(m68k.Imm(rw.buf), m68k.D(1))
			e.MoveL(m68k.Imm(1), m68k.D(2))
			e.Trap(rw.trap)
			e.SubL(m68k.Imm(1), m68k.D(0)) // one byte each way
			e.OrL(m68k.D(0), m68k.Abs(res))
		}
		emitClose(e, 0)
		e.OrL(m68k.D(0), m68k.Abs(res))
		emitClose(e, 1)
		e.OrL(m68k.D(0), m68k.Abs(res))
		e.SubL(m68k.Imm(1), m68k.D(5))
		e.Bne("loop")
		exitSeq(e)
	})
	th := k.SpawnKernel("main", prog)
	free := k.Heap.FreeBytes()
	run(t, k, th, 2_000_000_000)
	if got := k.M.Peek(res, 4); got != 0 {
		t.Errorf("a pipe, a transfer or a close failed: results or to %#x", got)
	}
	if got := k.M.Peek(rbuf, 1); got != 'p' {
		t.Errorf("the last read got %q, want 'p'", rune(got))
	}
	if got := k.Heap.FreeBytes(); got != free {
		t.Errorf("%d pipe cycles moved the heap's free bytes %d -> %d", cycles, free, got)
	}
	for _, name := range reported(reg, "kio.pipe.") {
		t.Errorf("%s outlived its pipe", name)
	}
	checkUnixCells(t, k, io, regions)
}

// TestPipeFailsWhole: a pipe() that finds no heap for its queue, or
// room for only one end, returns -1 in D0 and D1 and leaves nothing
// behind: no heap, no metrics, no half-open descriptor.
func TestPipeFailsWhole(t *testing.T) {
	for _, short := range []string{"heap", "descriptors"} {
		k, io, reg := bootMetrics(t)
		const res = 0x9000
		prog := k.C.Synthesize(nil, "main", nil, func(e *synth.Emitter) {
			e.MoveL(m68k.Imm(kernel.SysPipe), m68k.D(0))
			e.Trap(kernel.TrapSys)
			e.MoveL(m68k.D(0), m68k.Abs(res))
			e.MoveL(m68k.D(1), m68k.Abs(res+4))
			exitSeq(e)
		})
		th := k.SpawnKernel("main", prog)
		if short == "heap" {
			for {
				if _, err := k.Heap.Alloc(4096); err != nil {
					break
				}
			}
		} else {
			for fd := int32(0); fd < kernel.MaxFD-1; fd++ {
				if io.Open(th, "/dev/null") != fd {
					t.Fatalf("fd %d", fd)
				}
			}
		}
		free := k.Heap.FreeBytes()
		run(t, k, th, 50_000_000)
		if r, w := int32(k.M.Peek(res, 4)), int32(k.M.Peek(res+4, 4)); r != -1 || w != -1 {
			t.Errorf("short of %s: pipe() = %d, %d, want -1, -1", short, r, w)
		}
		if got := k.Heap.FreeBytes(); got != free {
			t.Errorf("short of %s: the failed pipe() moved the heap's free bytes %d -> %d", short, free, got)
		}
		if got := reported(reg, "kio.pipe."); len(got) != 0 {
			t.Errorf("short of %s: the failed pipe() left %v behind", short, got)
		}
		if got := k.M.Peek(kernel.FDCell(th.TTE, kernel.MaxFD-1, kernel.FDKind), 4); got != kio.FDFree {
			t.Errorf("short of %s: the last slot holds kind %d", short, got)
		}
	}
}

// TestOpenCloseChurnPlateaus: reopening what has been open before
// costs no code space, no profiler region, no registry entry and no
// heap, whatever kind of descriptor it is, /proc/metrics with a fresh
// snapshot length included; every reopen is accounted its two
// routines, code outside the slot's own region stays as it was, and
// the routines still work.
func TestOpenCloseChurnPlateaus(t *testing.T) {
	reg := metrics.New()
	k := kernel.Boot(kernel.Config{
		Machine: m68k.Config{MemSize: 1 << 20},
		Profile: true,
		Metrics: reg,
	})
	regions := logRegions(k)
	io := kio.Install(k)
	if _, err := k.FS.CreateSized("/tmp/data", nil, 256); err != nil {
		t.Fatal(err)
	}
	const (
		warm, cycles = 2, 2000
		res          = 0x9000 // every open's and close's result, or-ed
		names        = 0x9100 // 32 bytes per name
		wbuf, rbuf   = 0x9300, 0x9700
		sockBuf      = 0x9800
	)
	files := []string{"/dev/tty", "/dev/rawtty", "/dev/null", "/tmp/data", kio.ProcMetricsPath}
	const tty, data, proc = 0, 3, 4
	for i, n := range files {
		pokeName(k, names+uint32(i)*32, n)
	}
	k.M.PokeBytes(wbuf, []byte("plateau!"))

	// Every descriptor is fd 0 of the one thread, so every
	// per-descriptor routine is built into that slot's region.
	open := func(e *synth.Emitter, file uint32) {
		emitOpen(e, names+file*32)
		e.OrL(m68k.D(0), m68k.Abs(res))
	}
	sock := func(e *synth.Emitter) {
		emitSock(e, 7, 7) // its own peer: the loopback NIC echoes
		e.OrL(m68k.D(0), m68k.Abs(res))
	}
	closeFD := func(e *synth.Emitter) {
		emitClose(e, 0)
		e.OrL(m68k.D(0), m68k.Abs(res))
	}
	rw := func(e *synth.Emitter, trap uint8, buf, n int32, result uint32) {
		e.MoveL(m68k.Imm(buf), m68k.D(1))
		e.MoveL(m68k.Imm(n), m68k.D(2))
		e.Trap(trap)
		e.MoveL(m68k.D(0), m68k.Abs(result))
	}
	// churn emits a loop of `cycles` rounds of body that halts, for the
	// host to take a reading, after round `warm` and after the last.
	// (The optimizer keeps what follows a halt only under a label.)
	churn := func(e *synth.Emitter, name string, body func()) {
		e.Clr(4, m68k.D(5))
		e.Label(name)
		body()
		e.AddL(m68k.Imm(1), m68k.D(5))
		e.CmpL(m68k.Imm(warm), m68k.D(5))
		e.Bne(name + "_on")
		e.Halt()
		e.Label(name + "_on")
		e.CmpL(m68k.Imm(cycles), m68k.D(5))
		e.Bne(name)
		e.Halt()
		e.Label(name + "_done")
	}
	prog := k.C.Synthesize(nil, "main", nil, func(e *synth.Emitter) {
		e.Clr(4, m68k.Abs(res))
		churn(e, "five", func() {
			for file := uint32(0); file < proc; file++ {
				open(e, file)
				closeFD(e)
			}
			sock(e)
			closeFD(e)
		})
		open(e, tty)
		rw(e, kernel.TrapWrite, wbuf, 8, res+4)
		closeFD(e)
		open(e, data)
		rw(e, kernel.TrapWrite, wbuf, 8, res+8)
		closeFD(e)
		open(e, data)
		rw(e, kernel.TrapRead, rbuf, 64, res+12)
		closeFD(e)
		sock(e)
		rw(e, kernel.TrapWrite, wbuf, 8, res+16)
		rw(e, kernel.TrapRead, sockBuf, 64, res+20)
		closeFD(e)
		churn(e, "proc", func() {
			open(e, proc)
			closeFD(e)
		})
		exitSeq(e)
	})
	main := k.SpawnKernel("main", prog)
	k.Start(main)

	type reading struct {
		regions, metrics  int
		heapFree, codeTop uint32
	}
	// next runs the guest to its next halt and takes a reading.
	next := func(round uint32) reading {
		t.Helper()
		k.M.ClearHalt()
		if err := k.Run(4_000_000_000); err != nil {
			t.Fatalf("run: %v\n%s", err, where(k))
		}
		if round != 0 && k.M.D[5] != round {
			t.Fatalf("halted after round %d, want %d", k.M.D[5], round)
		}
		return reading{k.Prof.Regions(), len(reg.Names()), k.Heap.FreeBytes(), k.M.CodeTop}
	}

	// installed is code space outside fd 0's region, which every
	// reopen rewrites.
	installed := func() []m68k.Instr {
		slot := k.M.Peek(kernel.FDCell(main.TTE, 0, kio.FDCode), 4)
		return slices.Concat(k.M.Code[:slot], k.M.Code[slot+kio.FDCodeSlots:])
	}
	early := next(warm)
	checkUnixCells(t, k, io, regions)
	before, routines := installed(), k.C.Routines
	if late := next(cycles); late != early {
		t.Errorf("rounds %d..%d of five kinds moved the kernel:\n after %4d: %+v\n after %4d: %+v",
			warm, cycles, warm, early, cycles, late)
	}
	// A round is five reopens of two routines each: each is built again
	// or, for a kernel-wide routine, accounted again, and nothing is
	// installed outside fd 0's region. The socket's open and close patch
	// its demux cell instead of rebuilding the net handler.
	const rounds = cycles - warm
	if got := k.C.Routines - routines; got != 10*rounds {
		t.Errorf("%d rounds accounted %d routines, want %d", rounds, got, 10*rounds)
	}

	early = next(warm) // through the working descriptors into the /proc/metrics loop
	if late := next(cycles); late != early {
		t.Errorf("rounds %d..%d of /proc/metrics moved the kernel:\n after %4d: %+v\n after %4d: %+v",
			warm, cycles, warm, early, cycles, late)
	}
	if !slices.Equal(installed(), before) {
		t.Errorf("code outside fd 0's region changed under churn after round %d", warm)
	}

	next(0) // to the exit
	if got := k.M.Peek(res, 4); got != 0 {
		t.Errorf("an open or a close failed: results or to %#x", got)
	}
	if n := k.M.Peek(res+4, 4); n != 8 || string(k.TTY.Output()) != "plateau!" {
		t.Errorf("tty write returned %d and emitted %q", int32(n), k.TTY.Output())
	}
	if w, r := k.M.Peek(res+8, 4), k.M.Peek(res+12, 4); w != 8 || r != 8 || string(k.M.PeekBytes(rbuf, 8)) != "plateau!" {
		t.Errorf("file write returned %d, read %d bytes %q", int32(w), int32(r), k.M.PeekBytes(rbuf, 8))
	}
	if w, r := k.M.Peek(res+16, 4), k.M.Peek(res+20, 4); w != 8 || r != 8 || string(k.M.PeekBytes(sockBuf, 8)) != "plateau!" {
		t.Errorf("socket send returned %d, echo %d bytes %q", int32(w), int32(r), k.M.PeekBytes(sockBuf, 8))
	}
	if io.NetStackDrops() != 0 {
		t.Errorf("stack drops = %d", io.NetStackDrops())
	}
}
