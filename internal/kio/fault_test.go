package kio_test

import (
	"errors"
	"testing"

	"synthesis/internal/fault"
	"synthesis/internal/kernel"
	"synthesis/internal/kio"
	"synthesis/internal/m68k"
	synnet "synthesis/internal/net"
	"synthesis/internal/synth"
)

// TestSendGivesUpWhenRingStaysFull: with the receive ring forced full
// on every delivery, the synthesized send must burn its whole retry
// budget, return -1 and count the failure — never spin forever or
// silently claim success.
func TestSendGivesUpWhenRingStaysFull(t *testing.T) {
	k, io := boot(t)
	fault.New(fault.Plan{RingFull: 1}, 1).Attach(k.M)
	const res, wbuf = 0x9000, 0x9300
	prog := k.C.Synthesize(nil, "main", nil, func(e *synth.Emitter) {
		emitSock(e, 5, 9) // fd 0
		emitSock(e, 9, 5) // fd 1
		e.MoveL(m68k.Imm(wbuf), m68k.D(1))
		e.MoveL(m68k.Imm(16), m68k.D(2))
		e.Trap(kernel.TrapWrite + 0)
		e.MoveL(m68k.D(0), m68k.Abs(res))
		exitSeq(e)
	})
	th := k.SpawnKernel("main", prog)
	run(t, k, th, 50_000_000)
	if got := int32(k.M.Peek(res, 4)); got != -1 {
		t.Errorf("send into a permanently full ring = %d, want -1", got)
	}
	s := io.NetSockets()[0]
	if got := k.M.Peek(s.Queue+kio.NQTxFail, 4); got != 1 {
		t.Errorf("NQTxFail = %d, want 1", got)
	}
}

// TestSendRetriesThroughTransientRingFull: with the ring full only
// part of the time, the bounded backoff must eventually land the
// frame and the caller never sees the turbulence.
func TestSendRetriesThroughTransientRingFull(t *testing.T) {
	k, io := boot(t)
	inj := fault.New(fault.Plan{RingFull: 0.5}, 2)
	inj.Attach(k.M)
	const sends = 4
	const res, wbuf = 0x9000, 0x9300
	prog := k.C.Synthesize(nil, "main", nil, func(e *synth.Emitter) {
		emitSock(e, 5, 9) // fd 0
		emitSock(e, 9, 5) // fd 1
		for i := 0; i < sends; i++ {
			e.MoveL(m68k.Imm(wbuf), m68k.D(1))
			e.MoveL(m68k.Imm(16), m68k.D(2))
			e.Trap(kernel.TrapWrite + 0)
			e.MoveL(m68k.D(0), m68k.Abs(res+uint32(4*i)))
		}
		exitSeq(e)
	})
	th := k.SpawnKernel("main", prog)
	run(t, k, th, 50_000_000)
	for i := 0; i < sends; i++ {
		if got := k.M.Peek(res+uint32(4*i), 4); got != 16 {
			t.Fatalf("send %d through transient ring-full = %d, want 16", i, got)
		}
	}
	if inj.Stats.ForcedFull == 0 {
		t.Fatal("injector never forced the ring full; test proves nothing")
	}
	recv := io.NetSockets()[1]
	if got := k.M.Peek(recv.Queue+kio.NQHead, 4); got != sends {
		t.Errorf("frames deposited = %d, want %d", got, sends)
	}
}

// TestCorruptFrameDroppedAndCounted: a frame corrupted on the wire
// must fail the receive-side checksum, land in the owning socket's
// error counter and never reach the queue.
func TestCorruptFrameDroppedAndCounted(t *testing.T) {
	k, io := boot(t)
	inj := fault.New(fault.Plan{Wire: fault.Wire{Corrupt: 1}}, 1)
	inj.Attach(k.M)
	const wbuf = 0x9300
	k.M.PokeBytes(wbuf, []byte("precious cargo!!"))
	prog := k.C.Synthesize(nil, "main", nil, func(e *synth.Emitter) {
		emitSock(e, 5, 9) // fd 0
		emitSock(e, 9, 5) // fd 1
		e.MoveL(m68k.Imm(wbuf), m68k.D(1))
		e.MoveL(m68k.Imm(16), m68k.D(2))
		e.Trap(kernel.TrapWrite + 0)
		exitSeq(e)
	})
	th := k.SpawnKernel("main", prog)
	run(t, k, th, 50_000_000)
	if inj.Stats.Corrupted != 1 {
		t.Fatalf("Corrupted = %d, want 1", inj.Stats.Corrupted)
	}
	recv := io.NetSockets()[1]
	if got := k.M.Peek(recv.Queue+kio.NQErrs, 4); got != 1 {
		t.Errorf("NQErrs = %d, want 1", got)
	}
	if got := k.M.Peek(recv.Queue+kio.NQHead, 4); got != 0 {
		t.Errorf("corrupt frame was deposited: gauge = %d, want 0", got)
	}
}

// emitSpin synthesizes a program that burns roughly iters loop
// iterations and exits.
func emitSpin(k *kernel.Kernel, iters int32) uint32 {
	return k.C.Synthesize(nil, "spin", nil, func(e *synth.Emitter) {
		e.MoveL(m68k.Imm(iters), m68k.D(5))
		e.Label("spin")
		e.SubL(m68k.Imm(1), m68k.D(5))
		e.Bne("spin")
		exitSeq(e)
	})
}

// TestWatchdogStormThrottleEngagesAndReleases: an IRQ storm on the
// NIC level must flip the handler to the coalescing form, and the
// storm's end must flip it back, with both transitions logged.
func TestWatchdogStormThrottleEngagesAndReleases(t *testing.T) {
	k, io := boot(t)
	stormAt := k.M.Cycles + 20_000
	inj := fault.New(fault.Plan{Storms: []fault.Storm{
		{Level: m68k.IRQNet, At: stormAt, Count: 1500, Gap: 100},
	}}, 1)
	inj.Attach(k.M)
	wd := io.InstallWatchdog(8)
	th := k.SpawnKernel("spin", emitSpin(k, 80_000))
	run(t, k, th, 100_000_000)

	if inj.Stats.StormUp != 1500 {
		t.Fatalf("storm asserted %d interrupts, want 1500", inj.Stats.StormUp)
	}
	var kinds []string
	for _, ev := range wd.Events {
		kinds = append(kinds, ev.Kind)
	}
	if len(kinds) < 2 || kinds[0] != "throttle-on" || kinds[len(kinds)-1] != "throttle-off" {
		t.Fatalf("watchdog events = %v, want throttle-on ... throttle-off", kinds)
	}
	if wd.Throttled() {
		t.Error("throttle still engaged after the storm died")
	}
	if n := rebuilds(wd); n != 0 {
		t.Errorf("a storm alone logged %d rebuilds: %v", n, kinds)
	}
}

// TestAlarmChannelHasOneOwner: the alarm interrupt dispatches through
// one procedure cell, so whichever host policy is installed second,
// the scheduler's or the watchdog's, is refused, and the first keeps
// running: the scheduler still raises a busy thread's quantum, and the
// watchdog still engages its storm throttle.
func TestAlarmChannelHasOneOwner(t *testing.T) {
	refused := func(t *testing.T, second string, install func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("the %s took the alarm channel from the first policy", second)
			}
		}()
		install()
	}
	t.Run("scheduler first", func(t *testing.T) {
		k, io := boot(t)
		k.OnAlarm(1000, k.Adapt)
		refused(t, "watchdog", func() { io.InstallWatchdog(8) })
		th := k.SpawnKernel("io", k.C.Synthesize(nil, "io", nil, func(e *synth.Emitter) {
			e.MoveL(m68k.Abs(kernel.GCurTTE), m68k.A(0))
			e.Label("loop")
			e.AddL(m68k.Imm(1), m68k.Disp(kernel.TTEIOGauge, 0))
			e.Bra("loop")
		}))
		k.Start(th)
		if err := k.Run(10_000_000); !errors.Is(err, m68k.ErrCycleLimit) {
			t.Fatalf("run: %v", err)
		}
		if q := k.QuantumUS(th); q <= kernel.BaseQuantumUS {
			t.Errorf("the scheduler stopped adapting: a busy thread's quantum is %.0f usec", q)
		}
	})
	t.Run("watchdog first", func(t *testing.T) {
		k, io := boot(t)
		fault.New(fault.Plan{Storms: []fault.Storm{
			{Level: m68k.IRQNet, At: k.M.Cycles + 20_000, Count: 1500, Gap: 100},
		}}, 1).Attach(k.M)
		wd := io.InstallWatchdog(8)
		refused(t, "scheduler", func() { k.OnAlarm(1000, k.Adapt) })
		run(t, k, k.SpawnKernel("spin", emitSpin(k, 80_000)), 100_000_000)
		if len(wd.Events) == 0 || wd.Events[0].Kind != "throttle-on" {
			t.Errorf("the watchdog stopped sampling: events %v", wd.Events)
		}
	})
}

// rebuilds counts the watchdog's rebuild events.
func rebuilds(wd *kio.Watchdog) int {
	n := 0
	for _, ev := range wd.Events {
		if ev.Kind == "rebuild" {
			n++
		}
	}
	return n
}

// wedgeRig is a kernel with port 9 open on its one thread and the
// watchdog installed, its routines logged from before the install.
type wedgeRig struct {
	k       *kernel.Kernel
	io      *kio.IO
	th      *kernel.Thread
	wd      *kio.Watchdog
	regions *regionLog
}

// newWedgeRig builds the rig around a thread running prog.
func newWedgeRig(t *testing.T, prog func(e *synth.Emitter)) *wedgeRig {
	t.Helper()
	k, io := boot(t)
	th := k.SpawnKernel("spin", k.C.Synthesize(nil, "spin", nil, prog))
	if io.OpenSocket(th, 9, 5) != 0 {
		t.Fatal("socket fd")
	}
	regions := logRegions(k)
	return &wedgeRig{k, io, th, io.InstallWatchdog(64), regions}
}

// handler returns the receive handler's region: its base and end.
func (r *wedgeRig) handler(t *testing.T) (base, end uint32) {
	t.Helper()
	for i := len(r.regions.names) - 1; i >= 0; i-- {
		if r.regions.names[i] == "kio.net_intr" {
			return r.regions.spans[i][0], r.regions.spans[i][1]
		}
	}
	t.Fatal("no kio.net_intr region was installed")
	return 0, 0
}

// netVector is the net vector's offset in a vector table.
const netVector = uint32(m68k.VecAutovector+m68k.IRQNet) * 4

// clobberVector points the net vector, in the prototype table and the
// thread's own, at a handler that acknowledges nothing.
func (r *wedgeRig) clobberVector(stub uint32) {
	r.k.M.Poke(r.k.ProtoVectors()+netVector, 4, stub)
	r.k.M.Poke(r.th.TTE+kernel.TTEVec+netVector, 4, stub)
}

// inject delivers n valid frames for port 9 from outside.
func (r *wedgeRig) inject(t *testing.T, n int) {
	t.Helper()
	payload := []byte("hello from the far side of the wire")
	frame := synnet.EncodeFrame(synnet.Frame{Dst: 9, Src: 5, Sum: synnet.Checksum(payload), Payload: payload})
	for range n {
		if !r.k.Net.Deliver(frame) {
			t.Fatal("inject failed")
		}
	}
}

// delivered returns the frames port 9's queue has taken.
func (r *wedgeRig) delivered() uint32 {
	return r.k.M.Peek(r.io.NetSockets()[0].Queue+kio.NQHead, 4)
}

// stubHandler synthesizes a handler that acknowledges nothing.
func stubHandler(k *kernel.Kernel) uint32 {
	return k.C.Synthesize(nil, "wedged", nil, func(e *synth.Emitter) { e.Rte() })
}

// TestWatchdogWedgeRebuildsHandler: when the installed receive handler
// runs but stops draining (here: the vector is clobbered with an
// rte-only stub), the watchdog must notice the stalled cursor, rebuild
// the specialized handler, point the vector back at it and recover
// the pending frames. The rebuilt demux then treats a closed port's
// entry, which keeps the port, as nobody home. In a scratch copy whose
// watchdog only posts the interrupt on a wedge, it fails: no rebuild
// is logged and no frame is recovered.
func TestWatchdogWedgeRebuildsHandler(t *testing.T) {
	// Spin, halt for the host to look and close the socket, spin again.
	spin := func(e *synth.Emitter, label string) {
		e.MoveL(m68k.Imm(80_000), m68k.D(5))
		e.Label(label)
		e.SubL(m68k.Imm(1), m68k.D(5))
		e.Bne(label)
	}
	r := newWedgeRig(t, func(e *synth.Emitter) {
		spin(e, "first")
		e.Halt()
		e.Label("again") // the optimizer keeps what follows a halt only under a label
		spin(e, "second")
		exitSeq(e)
	})
	k, io := r.k, r.io
	r.clobberVector(stubHandler(k))
	r.inject(t, 3)
	run(t, k, r.th, 100_000_000)

	if n := rebuilds(r.wd); n != 1 {
		t.Fatalf("%d rebuild events, want 1: %v", n, r.wd.Events)
	}
	base, _ := r.handler(t)
	for _, table := range []uint32{k.ProtoVectors(), r.th.TTE + kernel.TTEVec} {
		if got := k.M.Peek(table+netVector, 4); got != base {
			t.Errorf("net vector in the table at %#x = %d, want kio.net_intr at %d", table, got, base)
		}
	}
	if got := r.delivered(); got != 3 {
		t.Errorf("frames recovered = %d, want 3", got)
	}
	if pending := k.Net.RxPending(); pending != 0 {
		t.Errorf("RxPending = %d after recovery, want 0", pending)
	}

	s := io.NetSockets()[0]
	if !io.Close(r.th, 0) {
		t.Fatal("close")
	}
	drops := io.NetStackDrops()
	r.inject(t, 1)
	k.M.ClearHalt()
	if err := k.Run(100_000_000); err != nil {
		t.Fatalf("run: %v", err)
	}
	if got := io.NetStackDrops(); got != drops+1 {
		t.Errorf("frame for the closed port: stack drops %d -> %d, want one more", drops, got)
	}
	if got := k.M.Peek(s.Queue+kio.NQHead, 4); got != 3 {
		t.Errorf("the closed port's queue gauge = %d, want 3", got)
	}
}

// TestWatchdogWedgeRebuildsDemuxCell: a wedge inside the handler's
// code region, not its vector. Port 9's demux cell is clobbered with a
// branch to the handler's exit, so the handler runs, drains nothing
// and returns. The rebuild must write the cell from the socket table
// again and recover the pending frames.
func TestWatchdogWedgeRebuildsDemuxCell(t *testing.T) {
	r := newWedgeRig(t, func(e *synth.Emitter) {
		e.MoveL(m68k.Imm(80_000), m68k.D(5))
		e.Label("spin")
		e.SubL(m68k.Imm(1), m68k.D(5))
		e.Bne("spin")
		exitSeq(e)
	})
	k := r.k
	compare := m68k.Instr{Op: m68k.CMP, Sz: 4, Src: m68k.Imm(9), Dst: m68k.D(1)}
	base, end := r.handler(t)
	var cell, exit uint32
	for a := base; a < end; a++ {
		switch in := k.M.Code[a]; {
		case in == compare:
			cell = a
		case in.Op == m68k.MOVEM && in.Dir == 1:
			exit = a
		}
	}
	if cell == 0 || exit == 0 {
		t.Fatalf("no demux cell for port 9 (%d) or restoring MOVEM (%d) in kio.net_intr", cell, exit)
	}
	k.C.Patch(cell, m68k.Instr{Op: m68k.BRA, Dst: m68k.Abs(exit)})
	r.inject(t, 3)
	run(t, k, r.th, 100_000_000)

	if n := rebuilds(r.wd); n != 1 {
		t.Fatalf("%d rebuild events, want 1: %v", n, r.wd.Events)
	}
	if k.M.Code[cell] != compare {
		t.Errorf("port 9's demux cell after the rebuild: %v, want %v", k.M.Code[cell], compare)
	}
	if got := r.delivered(); got != 3 {
		t.Errorf("frames recovered = %d, want 3", got)
	}
	if pending := k.Net.RxPending(); pending != 0 {
		t.Errorf("RxPending = %d after recovery, want 0", pending)
	}
}

// TestWatchdogRebuildsOncePerStall: a wedge the rebuild cannot clear,
// the vector clobbered again at the first instruction after each
// rebuild, is rebuilt once and then left alone for as long as the
// cursor stays put. Once the cursor has moved, the next wedge is
// rebuilt again.
func TestWatchdogRebuildsOncePerStall(t *testing.T) {
	r := newWedgeRig(t, func(e *synth.Emitter) {
		e.Label("spin")
		e.Bra("spin")
	})
	k := r.k
	base, _ := r.handler(t)
	stub := stubHandler(k)
	r.clobberVector(stub)
	r.inject(t, 3)
	k.Start(r.th)
	window := uint64(kio.WatchdogWindowUS * k.M.ClockMHz)
	reclobbered := 0
	for limit := k.M.Cycles + 20*window; k.M.Cycles < limit; {
		if err := k.M.Step(); err != nil {
			t.Fatalf("step: %v", err)
		}
		if k.M.Peek(r.th.TTE+kernel.TTEVec+netVector, 4) != stub {
			r.clobberVector(stub)
			reclobbered++
		}
	}
	if n := rebuilds(r.wd); n != 1 || reclobbered != 1 {
		t.Fatalf("20 stalled windows: %d rebuilds and %d re-clobbers, want 1 and 1: %v", n, reclobbered, r.wd.Events)
	}
	if got := k.Net.RxPending(); got != 3 {
		t.Fatalf("RxPending = %d under the stuck wedge, want 3", got)
	}

	// Move the cursor: the host puts the handler back and raises the
	// level once.
	k.SetVector(m68k.VecAutovector+m68k.IRQNet, base)
	k.M.PostInterrupt(m68k.IRQNet)
	if err := k.Run(2 * window); !errors.Is(err, m68k.ErrCycleLimit) {
		t.Fatalf("run: %v", err)
	}
	if got := r.delivered(); got != 3 || k.Net.RxPending() != 0 {
		t.Fatalf("after the host's repair: %d frames delivered, %d pending, want 3 and 0", got, k.Net.RxPending())
	}

	// A second wedge, which the rebuild clears.
	r.clobberVector(stub)
	r.inject(t, 2)
	if err := k.Run(10 * window); !errors.Is(err, m68k.ErrCycleLimit) {
		t.Fatalf("run: %v", err)
	}
	if n := rebuilds(r.wd); n != 2 {
		t.Errorf("%d rebuilds after a second wedge, want 2: %v", n, r.wd.Events)
	}
	if got := r.delivered(); got != 5 || k.Net.RxPending() != 0 {
		t.Errorf("after the second wedge: %d frames delivered, %d pending, want 5 and 0", got, k.Net.RxPending())
	}
}
