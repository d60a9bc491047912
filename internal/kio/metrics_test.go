package kio_test

import (
	"fmt"
	"strings"
	"testing"

	"synthesis/internal/fault"
	"synthesis/internal/kernel"
	"synthesis/internal/kio"
	"synthesis/internal/m68k"
	"synthesis/internal/metrics"
	"synthesis/internal/synth"
)

// bootMetrics is boot with the observability plane wired from the
// start, so the counter plane stitches invocation counters into the
// synthesized socket routines.
func bootMetrics(t *testing.T) (*kernel.Kernel, *kio.IO, *metrics.Registry) {
	t.Helper()
	reg := metrics.New()
	k := kernel.Boot(kernel.Config{
		Machine: m68k.Config{MemSize: 1 << 20},
		Metrics: reg,
	})
	io := kio.Install(k)
	return k, io, reg
}

// TestSocketMetricsServeQueueCells proves the acceptance criterion for
// the kio counters: the registry's kio.sock.<port>.* sampled metrics
// read the very queue cells the synthesized code maintains, and the
// counter plane's synth.<region>.calls metrics count routine entries.
func TestSocketMetricsServeQueueCells(t *testing.T) {
	k, io, reg := bootMetrics(t)
	const wbuf, rbuf = 0x9300, 0x9700
	k.M.PokeBytes(wbuf, []byte("ping!"))
	const rounds = 4
	prog := k.C.Synthesize(nil, "main", nil, func(e *synth.Emitter) {
		emitSock(e, 5, 9) // fd 0
		emitSock(e, 9, 5) // fd 1
		e.MoveL(m68k.Imm(rounds), m68k.D(7))
		e.Label("loop")
		e.MoveL(m68k.Imm(wbuf), m68k.D(1))
		e.MoveL(m68k.Imm(5), m68k.D(2))
		e.Trap(kernel.TrapWrite + 0)
		e.MoveL(m68k.Imm(rbuf), m68k.D(1))
		e.MoveL(m68k.Imm(64), m68k.D(2))
		e.Trap(kernel.TrapRead + 1)
		e.SubL(m68k.Imm(1), m68k.D(7))
		e.Bne("loop")
		exitSeq(e)
	})
	th := k.SpawnKernel("main", prog)
	run(t, k, th, 20_000_000)

	snap := reg.Snapshot()
	if snap.Cycles == 0 || snap.ClockMHz == 0 {
		t.Fatalf("snapshot has no time base: %+v cycles=%d", snap.ClockMHz, snap.Cycles)
	}

	// The registry must serve the same values as the raw queue cells.
	var sock9 kio.Socket
	for _, s := range io.NetSockets() {
		if s.Port == 9 {
			sock9 = s
		}
	}
	if sock9.Queue == 0 {
		t.Fatal("socket 9 not open")
	}
	cell := uint64(k.M.Peek(sock9.Queue+kio.NQHead, 4))
	if cell != rounds {
		t.Fatalf("queue gauge cell = %d, want %d", cell, rounds)
	}
	if got := snap.Counters["kio.sock.9.rx_frames"]; got != cell {
		t.Errorf("kio.sock.9.rx_frames = %d, cell = %d", got, cell)
	}
	for _, name := range []string{"kio.sock.9.tx_fail", "kio.sock.9.rx_errs", "kio.sock.9.rx_drops"} {
		if got, ok := snap.Counters[name]; !ok {
			t.Errorf("%s not registered", name)
		} else if got != 0 {
			t.Errorf("%s = %d, want 0 on a clean run", name, got)
		}
	}
	if depth, ok := snap.Gauges["kio.sock.9.queue_depth"]; !ok {
		t.Error("kio.sock.9.queue_depth not registered")
	} else if depth != 0 {
		t.Errorf("queue depth = %g after a drained run", depth)
	}

	// Stitched invocation counters: send and recv ran `rounds` times,
	// the receive interrupt at least that often.
	if got := snap.Counters["synth.kio.sock5.send.calls"]; got != rounds {
		t.Errorf("synth.kio.sock5.send.calls = %d, want %d", got, rounds)
	}
	if got := snap.Counters["synth.kio.sock9.recv.calls"]; got != rounds {
		t.Errorf("synth.kio.sock9.recv.calls = %d, want %d", got, rounds)
	}
	if got := snap.Counters["synth.kio.net_intr.calls"]; got < rounds {
		t.Errorf("synth.kio.net_intr.calls = %d, want >= %d", got, rounds)
	}
	// The handler was synthesized once, at install: the two opens
	// patched their demux cells.
	if got := snap.Counters["synth.kio.net_intr.resynth"]; got != 1 {
		t.Errorf("synth.kio.net_intr.resynth = %d, want 1", got)
	}
	if got := snap.Counters["kernel.spurious_irq"]; got != 0 {
		t.Errorf("kernel.spurious_irq = %d", got)
	}
}

// TestSocketCloseUnregistersMetrics proves the per-socket family goes
// with the socket: a snapshot after the close reports none of it.
func TestSocketCloseUnregistersMetrics(t *testing.T) {
	k, io, reg := bootMetrics(t)
	prog := k.C.Synthesize(nil, "main", nil, func(e *synth.Emitter) {
		emitSock(e, 5, 9) // fd 0
		e.MoveL(m68k.Imm(kernel.SysClose), m68k.D(0))
		e.MoveL(m68k.Imm(0), m68k.D(1))
		e.Trap(kernel.TrapSys)
		exitSeq(e)
	})
	// The family is there while the socket is open.
	other := k.SpawnKernelStopped("other", 0)
	if got := reported(reg, "kio.sock.5."); len(got) != 0 {
		t.Fatalf("no socket is open and a snapshot reports %v", got)
	}
	fd := io.OpenSocket(other, 5, 9)
	if got := reported(reg, "kio.sock.5."); len(got) != 5 {
		t.Errorf("an open socket reports %v, want its five metrics", got)
	}
	io.Close(other, fd)

	th := k.SpawnKernel("main", prog)
	run(t, k, th, 20_000_000)
	if got := reported(reg, "kio.sock.5."); len(got) != 0 {
		t.Errorf("metrics %v survived socket close", got)
	}
}

// TestDisabledPlaneGeneratesIdenticalCode is the zero-cost guarantee
// at the machine-code level: without a registry the Counted() option
// is inert and the synthesized socket routines are byte-for-byte the
// code a benchmark measures.
func TestDisabledPlaneGeneratesIdenticalCode(t *testing.T) {
	build := func(reg *metrics.Registry) (*kernel.Kernel, uint32) {
		k := kernel.Boot(kernel.Config{
			Machine: m68k.Config{MemSize: 1 << 20},
			Metrics: reg,
		})
		kio.Install(k)
		prog := k.C.Synthesize(nil, "main", nil, func(e *synth.Emitter) {
			emitSock(e, 5, 9)
			exitSeq(e)
		})
		th := k.SpawnKernel("main", prog)
		k.Start(th)
		if err := k.Run(20_000_000); err != nil {
			t.Fatalf("run: %v", err)
		}
		var send uint32
		for th := range k.Threads() {
			if a, ok := th.Q.Entries["sock_send"]; ok {
				send = a
			}
		}
		if send == 0 {
			t.Fatal("no sock_send entry synthesized")
		}
		return k, send
	}
	kOff, sendOff := build(nil)
	kOn, sendOn := build(metrics.New())
	offCode := m68k.Disassemble(kOff.M.Code, sendOff, 6)
	onCode := m68k.Disassemble(kOn.M.Code, sendOn, 6)
	if offCode == onCode {
		t.Fatal("instrumented build emitted identical code — counter not stitched?")
	}
	if !strings.Contains(onCode, "add.l #1") {
		t.Errorf("instrumented sock_send does not start with the counter bump:\n%s", onCode)
	}
	// The disabled build must not contain any counter bump at entry.
	if strings.Contains(strings.SplitN(offCode, "\n", 2)[0], "add.l #1") {
		t.Errorf("disabled sock_send carries a counter bump:\n%s", offCode)
	}
}

// A reopened descriptor starts its byte count at zero: close moves the
// slot's gauge cell to the thread's own gauge (the scheduler's
// ioGauge sums both, so it still sees the events) and clears it, for
// files, pipe ends and sockets alike.
func TestReopenedDescriptorCountsFromZero(t *testing.T) {
	k, _, reg := bootMetrics(t)
	const nameAddr, buf = 0x9100, 0x9300
	pokeName(k, nameAddr, "/tmp/f")
	if _, err := k.FS.Create("/tmp/f", []byte("hello, world")); err != nil {
		t.Fatal(err)
	}
	openAll := func(e *synth.Emitter) {
		emitOpen(e, nameAddr) // fd 0
		e.MoveL(m68k.Imm(kernel.SysPipe), m68k.D(0))
		e.Trap(kernel.TrapSys) // fd 1 reads, fd 2 writes
		emitSock(e, 5, 9)      // fd 3
	}
	io := func(e *synth.Emitter, trap uint8, n int32) {
		e.MoveL(m68k.Imm(buf), m68k.D(1))
		e.MoveL(m68k.Imm(n), m68k.D(2))
		e.Trap(trap)
	}
	prog := k.C.Synthesize(nil, "main", nil, func(e *synth.Emitter) {
		openAll(e)
		io(e, kernel.TrapRead+0, 5)
		io(e, kernel.TrapWrite+2, 3)
		io(e, kernel.TrapRead+1, 2)
		io(e, kernel.TrapWrite+3, 4)
		for fd := int32(0); fd < 4; fd++ {
			e.MoveL(m68k.Imm(kernel.SysClose), m68k.D(0))
			e.MoveL(m68k.Imm(fd), m68k.D(1))
			e.Trap(kernel.TrapSys)
		}
		openAll(e)
		exitSeq(e)
	})
	th := k.SpawnKernel("main", prog)
	run(t, k, th, 20_000_000)

	snap := reg.Snapshot()
	for fd, kind := range []uint32{kio.FDFile, kio.FDPipeR, kio.FDPipeW, kio.FDSock} {
		if got := k.M.Peek(kernel.FDCell(th.TTE, fd, kernel.FDKind), 4); got != kind {
			t.Fatalf("fd %d is kind %d after the reopen, want %d", fd, got, kind)
		}
		if got := k.M.Peek(kernel.FDCell(th.TTE, fd, kernel.FDGauge), 4); got != 0 {
			t.Errorf("reopened kind %d on fd %d inherits a gauge of %d", kind, fd, got)
		}
		name := fmt.Sprintf("kio.fd.main.%d.bytes", fd)
		if got, ok := snap.Counters[name]; kind != kio.FDSock && (!ok || got != 0) {
			t.Errorf("%s = %d (registered %v), want 0", name, got, ok)
		}
	}
	if got := k.M.Peek(th.TTE+kernel.TTEIOGauge, 4); got != 5+3+2+4 {
		t.Errorf("thread gauge holds %d events after the closes, want %d", got, 5+3+2+4)
	}
}

// A queue's gauge counts what its producer put, once: the tty
// interrupt for kio.tty.rx_chars, the write end for
// kio.pipe.<queue>.bytes. The consumer leaves it alone, on the one-byte
// path and the bulk path alike; when the read added to it too, five
// characters read raw showed as 10 and every pipe byte as two.
func TestQueueGaugesCountWhatWasPut(t *testing.T) {
	k, _, reg := bootMetrics(t)
	const nameAddr, buf, res = 0x9100, 0x9300, 0x9000
	pokeName(k, nameAddr, "/dev/rawtty")
	k.TTY.InputString("hello", 0, 0)
	prog := k.C.Synthesize(nil, "main", nil, func(e *synth.Emitter) {
		io := func(trap uint8, n int32) {
			e.MoveL(m68k.Imm(buf), m68k.D(1))
			e.MoveL(m68k.Imm(n), m68k.D(2))
			e.Trap(trap)
		}
		emitOpen(e, nameAddr) // fd 0
		// Two characters one at a time, then the rest in bulk reads.
		io(kernel.TrapRead+0, 1)
		io(kernel.TrapRead+0, 1)
		e.MoveL(m68k.Imm(3), m68k.D(5))
		e.Label("rest")
		io(kernel.TrapRead+0, 16)
		e.SubL(m68k.D(0), m68k.D(5))
		e.Bne("rest")
		e.MoveL(m68k.Imm(kernel.SysPipe), m68k.D(0))
		e.Trap(kernel.TrapSys) // fd 1 reads, fd 2 writes
		io(kernel.TrapWrite+2, 1)
		io(kernel.TrapRead+1, 1)
		io(kernel.TrapWrite+2, 1024)
		io(kernel.TrapRead+1, 1024)
		e.MoveL(m68k.D(0), m68k.Abs(res))
		exitSeq(e)
	})
	run(t, k, k.SpawnKernel("main", prog), 20_000_000)
	if got := k.M.Peek(res, 4); got != 1024 {
		t.Fatalf("the bulk pipe read returned %d, want 1024", got)
	}

	snap := reg.Snapshot()
	if got := snap.Counters["kio.tty.rx_chars"]; got != 5 {
		t.Errorf("kio.tty.rx_chars = %d after 5 characters were received and read, want 5", got)
	}
	pipes := 0
	for name, v := range snap.Counters {
		if strings.HasPrefix(name, "kio.pipe.") && strings.HasSuffix(name, ".bytes") {
			pipes++
			if v != 1+1024 {
				t.Errorf("%s = %d after 1 + 1024 bytes were written and read, want %d", name, v, 1+1024)
			}
		}
	}
	if pipes != 1 {
		t.Errorf("%d pipe byte counters, want 1", pipes)
	}
}

// TestWatchdogMetricsReadTheEventLog: the watchdog's metrics are read
// from its event log and its throttle at snapshot time. Before the
// install there are none; from the install each kind's counter reads
// 0; after a storm each counter reads its kind's events, and the
// throttle gauge reads the throttle.
func TestWatchdogMetricsReadTheEventLog(t *testing.T) {
	k, io, reg := bootMetrics(t)
	if _, ok := reg.Snapshot().Counters["kio.net.recovery_events"]; ok {
		t.Fatal("kio.net.recovery_events before the watchdog's install")
	}
	fault.New(fault.Plan{Storms: []fault.Storm{
		{Level: m68k.IRQNet, At: k.M.Cycles + 20_000, Count: 1500, Gap: 100},
	}}, 1).Attach(k.M)
	wd := io.InstallWatchdog(8)
	check := func(when string, throttled float64) {
		t.Helper()
		snap := reg.Snapshot()
		want := map[string]uint64{"throttle-on": 0, "throttle-off": 0, "rebuild": 0}
		for _, ev := range wd.Events {
			want[ev.Kind]++
		}
		for kind, n := range want {
			if got, ok := snap.Counters["kio.net.recovery."+kind]; !ok || got != n {
				t.Errorf("%s: kio.net.recovery.%s = %d (reported %v), want %d", when, kind, got, ok, n)
			}
		}
		if got := snap.Counters["kio.net.recovery_events"]; got != uint64(len(wd.Events)) {
			t.Errorf("%s: kio.net.recovery_events = %d, want %d", when, got, len(wd.Events))
		}
		if got, ok := snap.Gauges["kio.net.throttled"]; !ok || got != throttled {
			t.Errorf("%s: kio.net.throttled = %g (reported %v), want %g", when, got, ok, throttled)
		}
	}
	check("at install", 0)
	run(t, k, k.SpawnKernel("spin", emitSpin(k, 80_000)), 100_000_000)
	if len(wd.Events) < 2 {
		t.Fatalf("the storm logged %v, want throttle-on ... throttle-off", wd.Events)
	}
	check("after the storm", 0)
	io.SetNetMode(true)
	check("throttled", 1)
}
