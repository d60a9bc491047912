package kernel_test

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"synthesis/internal/kernel"
	"synthesis/internal/m68k"
	"synthesis/internal/synth"
)

// The fine-grain scheduler: threads with higher I/O rates get larger
// quanta; idle-handed threads drift back to the base quantum; bounds
// hold.

func TestSchedulerAdaptsQuantumToIORate(t *testing.T) {
	k := boot(t)

	// Two spinning threads: one "does I/O" by bumping its own gauge
	// (as every synthesized queue operation does), one computes.
	busyIO := k.C.Synthesize(nil, "io", nil, func(e *synth.Emitter) {
		e.MoveL(m68k.Abs(kernel.GCurTTE), m68k.A(0))
		e.Label("loop")
		e.AddL(m68k.Imm(1), m68k.Disp(kernel.TTEIOGauge, 0))
		e.Bra("loop")
	})
	compute := k.C.Synthesize(nil, "cpu", nil, func(e *synth.Emitter) {
		e.Label("loop")
		e.AddL(m68k.Imm(1), m68k.D(3))
		e.Bra("loop")
	})
	tIO := k.SpawnKernel("io", busyIO)
	tCPU := k.SpawnKernel("cpu", compute)

	k.Start(tIO)
	// Let both run, adapting between slices.
	for round := 0; round < 6; round++ {
		if err := k.Run(2_000_000); !errors.Is(err, m68k.ErrCycleLimit) {
			t.Fatalf("run: %v", err)
		}
		k.Adapt()
	}
	qIO := k.QuantumUS(tIO)
	qCPU := k.QuantumUS(tCPU)
	if qIO <= qCPU {
		t.Errorf("I/O thread quantum %.0f usec not larger than compute thread's %.0f", qIO, qCPU)
	}
	if qIO > kernel.MaxQuantumUS || qIO < kernel.MinQuantumUS {
		t.Errorf("quantum %.0f outside [%v, %v]", qIO, kernel.MinQuantumUS, kernel.MaxQuantumUS)
	}
	if qCPU < kernel.MinQuantumUS {
		t.Errorf("compute quantum %.0f below floor", qCPU)
	}
	t.Logf("quanta after adaptation: io=%.0f usec, cpu=%.0f usec", qIO, qCPU)

	// When the I/O stops, the quantum decays back toward base.
	k.M.Poke(tIO.TTE+kernel.TTEIOGauge, 4, 0)
	for i := 0; i < 12; i++ {
		k.Adapt()
		k.M.Poke(tIO.TTE+kernel.TTEIOGauge, 4, 0)
	}
	if got := k.QuantumUS(tIO); got > kernel.BaseQuantumUS*1.2 {
		t.Errorf("quantum did not decay: %.0f usec (base %v)", got, kernel.BaseQuantumUS)
	}
}

// A thread given a dead thread's TTE starts from the base quantum, not
// from the I/O rate of the thread that held it: creation clears the
// TTERate cell the policy smooths in.
func TestSchedulerForgetsDeadThreads(t *testing.T) {
	k := boot(t)
	spin := k.C.Synthesize(nil, "spin", nil, func(e *synth.Emitter) {
		e.Label("loop")
		e.Bra("loop")
	})
	const base = kernel.BaseQuantumUS
	reused := 0
	var last uint32
	for round := range 100 {
		th := k.SpawnKernelStopped(fmt.Sprintf("t%d", round), spin)
		if th.TTE == last {
			reused++
		}
		last = th.TTE
		k.Adapt()
		if q := k.QuantumUS(th); math.Abs(q-base) > 1 {
			t.Fatalf("round %d: a new thread's quantum is %.0f usec, want the base %v", round, q, base)
		}
		// A busy thread, then gone.
		k.M.Poke(th.TTE+kernel.TTEIOGauge, 4, 1000)
		k.Adapt()
		k.FreeThread(th.TTE)
	}
	if reused == 0 {
		t.Error("no TTE was handed out again")
	}
}

func TestSchedulerAlarmDriverRunsOnMachineTime(t *testing.T) {
	k := boot(t)
	k.OnAlarm(1000, k.Adapt) // adapt every simulated millisecond

	prog := k.C.Synthesize(nil, "spin", nil, func(e *synth.Emitter) {
		e.MoveL(m68k.Abs(kernel.GCurTTE), m68k.A(0))
		e.Label("loop")
		e.AddL(m68k.Imm(1), m68k.Disp(kernel.TTEIOGauge, 0))
		e.Bra("loop")
	})
	th := k.SpawnKernel("spin", prog)
	k.Start(th)
	if err := k.Run(30_000_000); !errors.Is(err, m68k.ErrCycleLimit) {
		t.Fatalf("run: %v", err)
	}
	// Several adaptation windows have elapsed; the busy thread's
	// quantum should be above base.
	if got := k.QuantumUS(th); got <= kernel.BaseQuantumUS {
		t.Errorf("alarm-driven adaptation never raised the quantum: %.0f usec", got)
	}
}

func TestUnblockedThreadRunsBeforeQueueTail(t *testing.T) {
	// Section 4.4: "As an event unblocks a thread, its TTE is placed
	// at the front of the ready queue, giving it immediate access to
	// the CPU." With three threads linked, waking a blocked thread
	// must schedule it before the others get another turn.
	k := boot(t)
	const cell, order = 0x9000, 0x9010
	logV := func(e *synth.Emitter, id int32) {
		e.MoveL(m68k.Abs(order), m68k.D(3))
		e.Mulu(m68k.Imm(10), m68k.D(3))
		e.AddL(m68k.Imm(id), m68k.D(3))
		e.MoveL(m68k.D(3), m68k.Abs(order))
	}
	waiter := k.C.Synthesize(nil, "waiter", nil, func(e *synth.Emitter) {
		e.Lea(m68k.Abs(cell), 0)
		e.Jsr(k.BlockOnRoutine())
		logV(e, 1) // must log before the spinner's next turn (id 2)
		e.MoveL(m68k.Imm(kernel.SysExit), m68k.D(0))
		e.Trap(kernel.TrapSys)
	})
	// The waker: wakes, then logs, then yields forever.
	waker := k.C.Synthesize(nil, "waker", nil, func(e *synth.Emitter) {
		e.MoveL(m68k.Imm(kernel.SysYield), m68k.D(0))
		e.Trap(kernel.TrapSys) // give the waiter time to block
		e.Lea(m68k.Abs(cell), 0)
		e.Jsr(k.WakeCellRoutine())
		e.MoveL(m68k.Imm(kernel.SysYield), m68k.D(0))
		e.Trap(kernel.TrapSys) // front-of-queue: the WAITER must run now
		logV(e, 2)
		e.MoveL(m68k.Imm(kernel.SysExit), m68k.D(0))
		e.Trap(kernel.TrapSys)
	})
	tw := k.SpawnKernel("waiter", waiter)
	k.SpawnKernel("waker", waker)
	k.Start(tw)
	if err := k.Run(10_000_000); err != nil && !errors.Is(err, m68k.ErrCycleLimit) {
		t.Fatalf("run: %v", err)
	}
	if got := k.M.Peek(order, 4); got != 12 {
		t.Errorf("execution order = %d, want 12 (woken thread first)", got)
	}
}

// BenchmarkFigure3_ExecutableReadyQueue: Figure 3's executable ready
// queue, repeated quantum-driven context switches between two spinning
// threads on the simulated machine (sim-usec per switch).
func BenchmarkFigure3_ExecutableReadyQueue(b *testing.B) {
	k := kernel.Boot(kernel.Config{Machine: m68k.Sun3Config()})
	spin := func(name string) *kernel.Thread {
		prog := k.C.Synthesize(nil, name, nil, func(e *synth.Emitter) {
			e.Label("loop")
			e.AddL(m68k.Imm(1), m68k.Abs(0x9000))
			e.Bra("loop")
		})
		return k.SpawnKernel(name, prog)
	}
	t1 := spin("a")
	spin("b")
	k.Start(t1)
	if err := k.M.Run(2_000_000); err != nil && !errors.Is(err, m68k.ErrCycleLimit) {
		b.Fatal(err)
	}
	var total float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		us := kernel.MeasureSwitchMicros(k)
		if us < 0 {
			b.Fatal("switch measurement failed")
		}
		total += us
	}
	b.ReportMetric(total/float64(b.N), "sim-usec/switch")
}
