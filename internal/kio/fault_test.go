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
	if got := k.M.Peek(recv.Queue+kio.NQGauge, 4); got != sends {
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
	if got := k.M.Peek(recv.Queue+kio.NQGauge, 4); got != 0 {
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
	if io.GenericFallback() {
		t.Error("storm alone must not trigger the generic fallback")
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

// TestWatchdogWedgeFallsBackToGeneric: when the installed receive
// handler runs but stops draining (here: the vector is clobbered with
// an rte-only stub), the watchdog must notice the stalled cursor,
// resynthesize the handler in the generic layered discipline and
// recover the pending frames. The generic walk then treats a closed
// port's entry, which keeps the port, as nobody home.
func TestWatchdogWedgeFallsBackToGeneric(t *testing.T) {
	k, io := boot(t)
	// Spin, halt for the host to look and close the socket, spin again.
	spin := func(e *synth.Emitter, label string) {
		e.MoveL(m68k.Imm(80_000), m68k.D(5))
		e.Label(label)
		e.SubL(m68k.Imm(1), m68k.D(5))
		e.Bne(label)
	}
	th := k.SpawnKernel("spin", k.C.Synthesize(nil, "spin", nil, func(e *synth.Emitter) {
		spin(e, "first")
		e.Halt()
		e.Label("again") // the optimizer keeps what follows a halt only under a label
		spin(e, "second")
		exitSeq(e)
	}))
	if io.OpenSocket(th, 9, 5) != 0 {
		t.Fatal("socket fd")
	}
	wd := io.InstallWatchdog(64)

	// Wedge: clobber the net vector with a handler that acknowledges
	// nothing, in the prototype table and the existing thread.
	stub := k.C.Synthesize(nil, "wedged", nil, func(e *synth.Emitter) { e.Rte() })
	vec := uint32(m68k.VecAutovector+m68k.IRQNet) * 4
	k.M.Poke(k.ProtoVectors()+vec, 4, stub)
	k.M.Poke(th.TTE+kernel.TTEVec+vec, 4, stub)

	// Three valid frames for the open port arrive from outside.
	payload := []byte("hello from the far side of the wire")
	frame := make([]byte, synnet.HeaderBytes+len(payload))
	put4 := func(off int, v uint32) {
		frame[off] = byte(v >> 24)
		frame[off+1] = byte(v >> 16)
		frame[off+2] = byte(v >> 8)
		frame[off+3] = byte(v)
	}
	put4(0, 9) // dst port
	put4(4, 5) // src port
	put4(8, synnet.Checksum(payload))
	copy(frame[synnet.HeaderBytes:], payload)
	for i := 0; i < 3; i++ {
		if !k.Net.InjectFrame(frame) {
			t.Fatal("inject failed")
		}
	}

	run(t, k, th, 100_000_000)

	if !io.GenericFallback() {
		t.Fatal("watchdog never fell back to the generic handler")
	}
	found := false
	for _, ev := range wd.Events {
		if ev.Kind == "generic-fallback" {
			found = true
		}
	}
	if !found {
		t.Fatalf("no generic-fallback event: %v", wd.Events)
	}
	// The generic handler must have drained the wedged frames.
	s := io.NetSockets()[0]
	if got := k.M.Peek(s.Queue+kio.NQGauge, 4); got != 3 {
		t.Errorf("frames recovered = %d, want 3", got)
	}
	if pending := k.Net.RxPending(); pending != 0 {
		t.Errorf("RxPending = %d after recovery, want 0", pending)
	}

	if !io.Close(th, 0) {
		t.Fatal("close")
	}
	drops := io.NetStackDrops()
	if !k.Net.InjectFrame(frame) {
		t.Fatal("inject failed")
	}
	k.M.ClearHalt()
	if err := k.Run(100_000_000); err != nil {
		t.Fatalf("run: %v", err)
	}
	if got := io.NetStackDrops(); got != drops+1 {
		t.Errorf("frame for the closed port: stack drops %d -> %d, want one more", drops, got)
	}
	if got := k.M.Peek(s.Queue+kio.NQGauge, 4); got != 3 {
		t.Errorf("the closed port's queue gauge = %d, want 3", got)
	}
}
