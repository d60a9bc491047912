package kernel_test

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"testing"

	"synthesis/internal/fault"
	"synthesis/internal/kernel"
	"synthesis/internal/m68k"
	"synthesis/internal/metrics"
	"synthesis/internal/synth"
)

func boot(t *testing.T) *kernel.Kernel {
	t.Helper()
	k := kernel.Boot(kernel.Config{
		Machine: m68k.Config{MemSize: 1 << 20},
	})
	return k
}

// exitSeq appends the native exit system call.
func exitSeq(e *synth.Emitter) {
	e.MoveL(m68k.Imm(kernel.SysExit), m68k.D(0))
	e.Trap(kernel.TrapSys)
}

// runToCompletion starts t and runs until all user threads exit.
func runToCompletion(t *testing.T, k *kernel.Kernel, first *kernel.Thread, budget uint64) {
	t.Helper()
	k.Start(first)
	if err := k.Run(budget); err != nil {
		t.Fatalf("run: %v\n%s", err, where(k))
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

// where renders the machine's registers and the code around its PC,
// for a failure message.
func where(k *kernel.Kernel) string {
	m := k.M
	return fmt.Sprintf("pc=%d sr=%#04x\nd=%08x\na=%08x\n%s",
		m.PC, m.SR, m.D, m.A, m68k.Disassemble(m.Code, m.PC-min(m.PC, 4), 8))
}

func TestBootAndExit(t *testing.T) {
	k := boot(t)
	const flag = 0x9000
	prog := k.C.Synthesize(nil, "main", nil, func(e *synth.Emitter) {
		e.MoveL(m68k.Imm(0xabcd), m68k.Abs(flag))
		exitSeq(e)
	})
	th := k.SpawnKernel("main", prog)
	runToCompletion(t, k, th, 2_000_000)
	if k.M.Peek(flag, 4) != 0xabcd {
		t.Error("program did not run")
	}
}

func TestQuantumPreemptionInterleavesThreads(t *testing.T) {
	k := boot(t)
	const c1, c2 = 0x9000, 0x9004
	spin := func(counter uint32) uint32 {
		return k.C.Synthesize(nil, "spin", nil, func(e *synth.Emitter) {
			e.Label("loop")
			e.AddL(m68k.Imm(1), m68k.Abs(counter))
			e.Bra("loop")
		})
	}
	t1 := k.SpawnKernel("t1", spin(c1))
	t2 := k.SpawnKernel("t2", spin(c2))
	_ = t2
	k.Start(t1)
	err := k.Run(3_000_000) // several quanta at 50 MHz
	if !errors.Is(err, m68k.ErrCycleLimit) {
		t.Fatalf("run: %v", err)
	}
	n1, n2 := k.M.Peek(c1, 4), k.M.Peek(c2, 4)
	if n1 == 0 || n2 == 0 {
		t.Fatalf("no interleaving: c1=%d c2=%d", n1, n2)
	}
	// Round-robin with equal quanta: neither starves.
	if n1 > n2*20 || n2 > n1*20 {
		t.Errorf("grossly unfair: c1=%d c2=%d", n1, n2)
	}
}

func TestVoluntaryYield(t *testing.T) {
	k := boot(t)
	const order = 0x9000 // running log: threads append their id
	logSelf := func(e *synth.Emitter, id int32) {
		// mem[order] = mem[order]*10 + id
		e.MoveL(m68k.Abs(order), m68k.D(3))
		e.Mulu(m68k.Imm(10), m68k.D(3))
		e.AddL(m68k.Imm(id), m68k.D(3))
		e.MoveL(m68k.D(3), m68k.Abs(order))
	}
	yield := func(e *synth.Emitter) {
		e.MoveL(m68k.Imm(kernel.SysYield), m68k.D(0))
		e.Trap(kernel.TrapSys)
	}
	p1 := k.C.Synthesize(nil, "p1", nil, func(e *synth.Emitter) {
		logSelf(e, 1)
		yield(e)
		logSelf(e, 3)
		exitSeq(e)
	})
	p2 := k.C.Synthesize(nil, "p2", nil, func(e *synth.Emitter) {
		logSelf(e, 2)
		yield(e)
		logSelf(e, 4)
		exitSeq(e)
	})
	t1 := k.SpawnKernel("t1", p1)
	t2 := k.SpawnKernel("t2", p2)
	_ = t2
	runToCompletion(t, k, t1, 5_000_000)
	got := k.M.Peek(order, 4)
	// t1 logs 1, yields; ring from t1: next inserted... both orders
	// that alternate are acceptable; what is NOT acceptable is a
	// thread running twice before the other ran at all.
	if got != 1234 && got != 1243 && got != 2134 {
		t.Errorf("execution order log = %d", got)
	}
}

func TestBlockAndWake(t *testing.T) {
	k := boot(t)
	const cell, val = 0x9000, 0x9004
	// consumer blocks on the cell, then records that it woke.
	cons := k.C.Synthesize(nil, "cons", nil, func(e *synth.Emitter) {
		e.Lea(m68k.Abs(cell), 0)
		e.Jsr(k.BlockOnRoutine())
		e.MoveL(m68k.Imm(77), m68k.Abs(val))
		exitSeq(e)
	})
	// producer spins a bit, then wakes the consumer.
	prod := k.C.Synthesize(nil, "prod", nil, func(e *synth.Emitter) {
		e.MoveL(m68k.Imm(1000), m68k.D(3))
		e.Label("spin")
		e.Dbra(3, "spin")
		e.Lea(m68k.Abs(cell), 0)
		e.Jsr(k.WakeCellRoutine())
		exitSeq(e)
	})
	tc := k.SpawnKernel("cons", cons)
	k.SpawnKernel("prod", prod)
	runToCompletion(t, k, tc, 5_000_000)
	if k.M.Peek(val, 4) != 77 {
		t.Error("consumer never woke")
	}
}

func TestStopStartFromPeer(t *testing.T) {
	k := boot(t)
	const counter, phase = 0x9000, 0x9004
	victim := k.C.Synthesize(nil, "victim", nil, func(e *synth.Emitter) {
		e.Label("loop")
		e.AddL(m68k.Imm(1), m68k.Abs(counter))
		e.Bra("loop")
	})
	tv := k.SpawnKernel("victim", victim)
	controller := k.C.Synthesize(nil, "ctl", nil, func(e *synth.Emitter) {
		// Let the victim run a little.
		e.MoveL(m68k.Imm(kernel.SysYield), m68k.D(0))
		e.Trap(kernel.TrapSys)
		// Stop it, snapshot the counter twice with a delay between.
		e.MoveL(m68k.Imm(kernel.SysStop), m68k.D(0))
		e.MoveL(m68k.Imm(int32(tv.TTE)), m68k.D(1))
		e.Trap(kernel.TrapSys)
		e.MoveL(m68k.Abs(counter), m68k.D(3))
		e.MoveL(m68k.D(3), m68k.Abs(phase))
		e.MoveL(m68k.Imm(20000), m68k.D(3))
		e.Label("wait")
		e.Dbra(3, "wait") // long enough for several quanta
		e.MoveL(m68k.Abs(counter), m68k.D(3))
		e.SubL(m68k.Abs(phase), m68k.D(3))
		e.MoveL(m68k.D(3), m68k.Abs(phase)) // delta while stopped
		exitSeq(e)
	})
	tc := k.SpawnKernel("ctl", controller)
	k.Start(tc)
	err := k.Run(20_000_000)
	// The victim never exits; the controller's exit leaves it live,
	// so the run ends on the cycle budget with the victim looping or
	// parked. What matters is the recorded delta.
	if err != nil && !errors.Is(err, m68k.ErrCycleLimit) && !errors.Is(err, m68k.ErrIdle) {
		t.Fatalf("run: %v", err)
	}
	if delta := k.M.Peek(phase, 4); delta != 0 {
		t.Errorf("victim advanced %d increments while stopped", delta)
	}
	if k.M.Peek(counter, 4) == 0 {
		t.Error("victim never ran at all")
	}
}

func TestStepExecutesExactlyOneInstruction(t *testing.T) {
	k := boot(t)
	const counter = 0x9000
	stepped := k.C.Synthesize(nil, "stepped", nil, func(e *synth.Emitter) {
		for i := 0; i < 8; i++ {
			e.AddL(m68k.Imm(1), m68k.Abs(counter))
		}
		exitSeq(e)
	})
	ts := k.SpawnKernelStopped("stepped", stepped)
	const snap1, snap2 = 0x9010, 0x9014
	driver := k.C.Synthesize(nil, "driver", nil, func(e *synth.Emitter) {
		stepOnce := func() {
			e.MoveL(m68k.Imm(kernel.SysStep), m68k.D(0))
			e.MoveL(m68k.Imm(int32(ts.TTE)), m68k.D(1))
			e.Trap(kernel.TrapSys)
			e.MoveL(m68k.Imm(kernel.SysYield), m68k.D(0))
			e.Trap(kernel.TrapSys)
		}
		stepOnce()
		e.MoveL(m68k.Abs(counter), m68k.D(3))
		e.MoveL(m68k.D(3), m68k.Abs(snap1))
		stepOnce()
		e.MoveL(m68k.Abs(counter), m68k.D(3))
		e.MoveL(m68k.D(3), m68k.Abs(snap2))
		exitSeq(e)
	})
	td := k.SpawnKernel("driver", driver)
	k.Start(td)
	if err := k.Run(10_000_000); err != nil && !errors.Is(err, m68k.ErrCycleLimit) && !errors.Is(err, m68k.ErrIdle) {
		t.Fatalf("run: %v", err)
	}
	if got := k.M.Peek(snap1, 4); got != 1 {
		t.Errorf("after one step counter = %d, want 1", got)
	}
	if got := k.M.Peek(snap2, 4); got != 2 {
		t.Errorf("after two steps counter = %d, want 2", got)
	}
}

func TestSignalDelivery(t *testing.T) {
	k := boot(t)
	const flag, after = 0x9000, 0x9004
	handler := k.C.Synthesize(nil, "handler", nil, func(e *synth.Emitter) {
		e.MoveL(m68k.Imm(5), m68k.Abs(flag))
		e.Trap(kernel.TrapSig) // return from signal
	})
	victim := k.C.Synthesize(nil, "victim", nil, func(e *synth.Emitter) {
		e.Label("loop")
		e.TstL(m68k.Abs(flag))
		e.Beq("loop")
		e.MoveL(m68k.Imm(9), m68k.Abs(after)) // signal returned here
		exitSeq(e)
	})
	tv := k.SpawnKernel("victim", victim)
	signaller := k.C.Synthesize(nil, "sig", nil, func(e *synth.Emitter) {
		// stop + signal + start so the victim's frame is valid.
		e.MoveL(m68k.Imm(kernel.SysStop), m68k.D(0))
		e.MoveL(m68k.Imm(int32(tv.TTE)), m68k.D(1))
		e.Trap(kernel.TrapSys)
		e.MoveL(m68k.Imm(kernel.SysSignal), m68k.D(0))
		e.MoveL(m68k.Imm(int32(tv.TTE)), m68k.D(1))
		e.MoveL(m68k.Imm(int32(handler)), m68k.D(2))
		e.Trap(kernel.TrapSys)
		e.MoveL(m68k.Imm(kernel.SysStart), m68k.D(0))
		e.MoveL(m68k.Imm(int32(tv.TTE)), m68k.D(1))
		e.Trap(kernel.TrapSys)
		exitSeq(e)
	})
	tsig := k.SpawnKernel("sig", signaller)
	k.Start(tsig)
	if err := k.Run(10_000_000); err != nil && !errors.Is(err, m68k.ErrCycleLimit) {
		t.Fatalf("run: %v", err)
	}
	if k.M.Peek(flag, 4) != 5 {
		t.Error("signal handler did not run")
	}
	if k.M.Peek(after, 4) != 9 {
		t.Error("victim did not resume after the signal")
	}
}

func TestCreateSyscallSpawnsThread(t *testing.T) {
	k := boot(t)
	const childFlag = 0x9000
	childProg := k.C.Synthesize(nil, "child", nil, func(e *synth.Emitter) {
		e.MoveL(m68k.Imm(42), m68k.Abs(childFlag))
		exitSeq(e)
	})
	parent := k.C.Synthesize(nil, "parent", nil, func(e *synth.Emitter) {
		e.MoveL(m68k.Imm(kernel.SysCreate), m68k.D(0))
		e.MoveL(m68k.Imm(int32(childProg)), m68k.D(1))
		e.MoveL(m68k.Imm(0), m68k.D(2))
		e.Trap(kernel.TrapSys)
		// D0 = child TTE; start it.
		e.MoveL(m68k.D(0), m68k.D(1))
		e.MoveL(m68k.Imm(kernel.SysStart), m68k.D(0))
		e.Trap(kernel.TrapSys)
		exitSeq(e)
	})
	tp := k.SpawnKernel("parent", parent)
	// The child's exit decrements the live count the parent's spawn
	// never incremented: pre-add one.
	k.M.Poke(kernel.GLiveThreads, 4, k.M.Peek(kernel.GLiveThreads, 4)+1)
	runToCompletion(t, k, tp, 10_000_000)
	if k.M.Peek(childFlag, 4) != 42 {
		t.Error("created thread never ran")
	}
	if n := len(slices.Collect(k.Threads())); n < 2 {
		t.Errorf("the live chain did not grow: %d threads", n)
	}
}

// TestCreateFailsOnExhaustedHeap: a thread that creates threads until
// the heap runs out gets -1 from the create call, as open gives on a
// failed lookup, instead of taking the host down; a failed create
// registers no thread and allocates no code.
func TestCreateFailsOnExhaustedHeap(t *testing.T) {
	k := boot(t)
	const created, failed = 0x9000, 0x9004
	prog := k.C.Synthesize(nil, "creator", nil, func(e *synth.Emitter) {
		e.Label("loop")
		e.Kcall(kernel.SvcMark)
		e.MoveL(m68k.Imm(kernel.SysCreate), m68k.D(0))
		e.MoveL(m68k.Imm(0), m68k.D(1)) // never started
		e.MoveL(m68k.Imm(0), m68k.D(2))
		e.Trap(kernel.TrapSys)
		e.MoveL(m68k.D(0), m68k.Abs(failed))
		e.TstL(m68k.D(0))
		e.Bmi("out")
		e.AddL(m68k.Imm(1), m68k.Abs(created))
		e.Bra("loop")
		e.Label("out")
		exitSeq(e)
	})
	th := k.SpawnKernel("creator", prog)
	// The mark before each create records what a failed one must
	// leave as it found it.
	var threads int
	var codeTop uint32
	k.M.RegisterService(kernel.SvcMark, func(m *m68k.Machine) uint64 {
		threads, codeTop = len(slices.Collect(k.Threads())), m.CodeTop
		return 0
	})
	runToCompletion(t, k, th, 2_000_000_000)
	if got := int32(k.M.Peek(failed, 4)); got != -1 {
		t.Fatalf("create on an exhausted heap returned %d, want -1", got)
	}
	if n := k.M.Peek(created, 4); n < 100 {
		t.Fatalf("only %d creates succeeded on a 1 MB machine", n)
	}
	if n := len(slices.Collect(k.Threads())); n != threads || k.M.CodeTop != codeTop {
		t.Errorf("failed create left %d threads and code top %d, want %d and %d",
			n, k.M.CodeTop, threads, codeTop)
	}
}

func TestLazyFPResynthesis(t *testing.T) {
	k := boot(t)
	const res1, res2 = 0x9000, 0x9010
	// Each thread loads FP2 once and stores it at the end; between,
	// the other thread loads its own value into the same register.
	fpsum := func(result uint32, start, rounds int32) uint32 {
		return k.C.Synthesize(nil, "fp", nil, func(e *synth.Emitter) {
			e.FmoveTo(m68k.Imm(start), 2) // first FP use: line-F trap
			e.MoveL(m68k.Imm(rounds), m68k.D(3))
			e.Label("loop")
			// Burn enough time per round that quantum switches
			// interleave the two FP threads.
			e.MoveL(m68k.Imm(2000), m68k.D(4))
			e.Label("spin")
			e.Dbra(4, "spin")
			e.Dbra(3, "loop")
			e.FmoveFrom(2, m68k.Abs(result))
			exitSeq(e)
		})
	}
	t1 := k.SpawnKernel("fp1", fpsum(res1, 100, 49))
	t2 := k.SpawnKernel("fp2", fpsum(res2, 500, 49))
	_ = t2
	runToCompletion(t, k, t1, 80_000_000)
	read := func(addr uint32) float64 {
		hi := uint64(k.M.Peek(addr, 4))
		lo := uint64(k.M.Peek(addr+4, 4))
		bits := hi<<32 | lo
		return floatFromBits(bits)
	}
	if got := read(res1); got != 100 {
		t.Errorf("fp1 FP2 = %v, want 100 (FP context lost across switches?)", got)
	}
	if got := read(res2); got != 500 {
		t.Errorf("fp2 FP2 = %v, want 500", got)
	}
	usesFP := func(th *kernel.Thread) bool {
		return k.M.Peek(th.TTE+kernel.TTEFlags, 4)&kernel.TTEFlagFP != 0
	}
	if !usesFP(t1) {
		t.Error("thread not upgraded to FP switch variant")
	}
	if usesFP(k.Idle) {
		t.Error("idle thread wrongly pays for FP state")
	}
}

func floatFromBits(b uint64) float64 { return math.Float64frombits(b) }

// The quantum is the lowest interrupt level, taken only from thread
// context, so in every TTE it enters sw_out exactly where the
// voluntary switch trap does.
func TestQuantumVectorIsSwitchVector(t *testing.T) {
	k := boot(t)
	prog := k.C.Synthesize(nil, "main", nil, exitSeq)
	k.SpawnKernel("kernel", prog)
	ubase, ulimit := k.AllocUserSpace(4096)
	k.SpawnUser("user", prog, ubase, ulimit)
	for th := range k.Threads() {
		vec := func(v int) uint32 { return k.M.Peek(th.TTE+kernel.TTEVec+uint32(v)*4, 4) }
		swout := k.M.Peek(th.TTE+kernel.TTESwoutPt, 4)
		if q, sw := vec(m68k.VecAutovector+m68k.IRQTimer), vec(m68k.VecTrapBase+kernel.TrapSwitch); q != swout || sw != swout {
			t.Errorf("%s: quantum vector %d, switch-trap vector %d, sw_out at %d", th.Name, q, sw, swout)
		}
	}
}

func TestErrorTrapReflectsToHandler(t *testing.T) {
	k := boot(t)
	const flag, after = 0x9000, 0x9004
	handler := k.C.Synthesize(nil, "errh", nil, func(e *synth.Emitter) {
		e.MoveL(m68k.Imm(1), m68k.Abs(flag))
		e.Trap(kernel.TrapSig)
	})
	prog := k.C.Synthesize(nil, "faulty", nil, func(e *synth.Emitter) {
		e.MoveL(m68k.Imm(5), m68k.D(3))
		e.Divu(m68k.Imm(0), m68k.D(3)) // divide by zero
		e.MoveL(m68k.Imm(2), m68k.Abs(after))
		exitSeq(e)
	})
	th := k.SpawnKernel("faulty", prog)
	k.M.Poke(th.TTE+kernel.TTEErrPC, 4, handler)
	runToCompletion(t, k, th, 5_000_000)
	if k.M.Peek(flag, 4) != 1 {
		t.Error("error handler did not run")
	}
	if k.M.Peek(after, 4) != 2 {
		t.Error("thread did not continue after error handling")
	}
}

func TestErrorTrapWithoutHandlerPanics(t *testing.T) {
	k := boot(t)
	prog := k.C.Synthesize(nil, "faulty", nil, func(e *synth.Emitter) {
		e.MoveL(m68k.Imm(5), m68k.D(3))
		e.Divu(m68k.Imm(0), m68k.D(3))
		exitSeq(e)
	})
	th := k.SpawnKernel("faulty", prog)
	k.Start(th)
	err := k.Run(5_000_000)
	if !errors.Is(err, kernel.ErrPanic) {
		t.Errorf("run = %v, want kernel panic", err)
	}
}

func TestAlarm(t *testing.T) {
	k := boot(t)
	const flag = 0x9000
	proc := k.C.Synthesize(nil, "alarmproc", nil, func(e *synth.Emitter) {
		e.MoveL(m68k.Imm(33), m68k.Abs(flag))
		e.Rts()
	})
	prog := k.C.Synthesize(nil, "main", nil, func(e *synth.Emitter) {
		e.MoveL(m68k.Imm(kernel.SysSetAlarm), m68k.D(0))
		e.MoveL(m68k.Imm(5000), m68k.D(1)) // cycles
		e.MoveL(m68k.Imm(int32(proc)), m68k.D(2))
		e.Trap(kernel.TrapSys)
		e.Label("wait")
		e.TstL(m68k.Abs(flag))
		e.Beq("wait")
		exitSeq(e)
	})
	th := k.SpawnKernel("main", prog)
	runToCompletion(t, k, th, 5_000_000)
	if k.M.Peek(flag, 4) != 33 {
		t.Error("alarm procedure did not run")
	}
}

func TestProcedureChaining(t *testing.T) {
	k := boot(t)
	const flag, after = 0x9000, 0x9004
	// The chained procedure runs after the handler returns, in the
	// interrupted context, and resumes the original code via the
	// displaced PC.
	chained := k.C.Synthesize(nil, "chained", nil, func(e *synth.Emitter) {
		e.MoveL(m68k.Imm(1), m68k.Abs(flag))
		e.JmpVia(m68k.Abs(kernel.GChainPC))
	})
	// A custom trap handler that chains the procedure. The chain
	// routine locates the exception frame directly above its return
	// address, so the handler must not have pushed anything (it may
	// clobber D1 by convention).
	handler := k.C.Synthesize(nil, "handler", nil, func(e *synth.Emitter) {
		e.MoveL(m68k.Imm(int32(chained)), m68k.D(1))
		e.Jsr(k.ChainRoutine())
		e.Rte() // resumes into `chained`, not the original code
	})
	prog := k.C.Synthesize(nil, "main", nil, func(e *synth.Emitter) {
		e.Trap(5)
		e.MoveL(m68k.Abs(flag), m68k.D(3)) // chained proc must have run by now
		e.MoveL(m68k.D(3), m68k.Abs(after))
		exitSeq(e)
	})
	th := k.SpawnKernel("main", prog)
	k.M.Poke(th.TTE+kernel.TTEVec+uint32(m68k.VecTrapBase+5)*4, 4, handler)
	runToCompletion(t, k, th, 5_000_000)
	if k.M.Peek(flag, 4) != 1 {
		t.Error("chained procedure did not run")
	}
	if k.M.Peek(after, 4) != 1 {
		t.Error("chained procedure ran after, not before, the resumed code")
	}
}

func TestUserThreadQuaspaceConfinement(t *testing.T) {
	k := boot(t)
	ub, ul := k.AllocUserSpace(4096)
	const okFlagOff = 16
	handler := k.C.Synthesize(nil, "errh", nil, func(e *synth.Emitter) {
		e.MoveL(m68k.Imm(7), m68k.Abs(ub+okFlagOff)) // inside own space
		e.Trap(kernel.TrapSig)
	})
	prog := k.C.Synthesize(nil, "user", nil, func(e *synth.Emitter) {
		e.MoveL(m68k.Imm(1), m68k.Abs(ub+8))   // inside: fine
		e.MoveL(m68k.Imm(1), m68k.Abs(0x9000)) // outside: bus error -> handler
		exitSeq(e)
	})
	th := k.SpawnUser("user", prog, ub, ul)
	k.M.Poke(th.TTE+kernel.TTEErrPC, 4, handler)
	runToCompletion(t, k, th, 5_000_000)
	if k.M.Peek(ub+8, 4) != 1 {
		t.Error("in-quaspace store failed")
	}
	if k.M.Peek(0x9000, 4) != 0 {
		t.Error("out-of-quaspace store succeeded")
	}
	if k.M.Peek(ub+okFlagOff, 4) != 7 {
		t.Error("error handler did not run for quaspace violation")
	}
}

// TestPrivilegedOpInUserThreadIsAnErrorTrap: a user thread that
// executes a privileged instruction gets the error trap and nothing
// else. RTE is the telling case: if it ran after vectoring it would pop
// the trap's own frame, the handler would never run and the thread
// would carry on past it. The dispatcher's five tallies are served
// from the same machine.
func TestPrivilegedOpInUserThreadIsAnErrorTrap(t *testing.T) {
	k := kernel.Boot(kernel.Config{Machine: m68k.Config{MemSize: 1 << 20}, Metrics: metrics.New()})
	ub, ul := k.AllocUserSpace(4096)
	handler := k.C.Synthesize(nil, "errh", nil, func(e *synth.Emitter) {
		e.AddL(m68k.Imm(1), m68k.Abs(ub+16))
		e.MoveL(m68k.Imm(kernel.SysExit), m68k.D(0))
		e.Trap(kernel.TrapSys)
	})
	prog := k.C.Synthesize(nil, "user", nil, func(e *synth.Emitter) {
		e.Rte()
		e.MoveL(m68k.Imm(1), m68k.Abs(ub+20)) // not reached: the handler exits the thread
		exitSeq(e)
	})
	th := k.SpawnUser("user", prog, ub, ul)
	k.M.Poke(th.TTE+kernel.TTEErrPC, 4, handler)
	runToCompletion(t, k, th, 5_000_000)
	if got := k.M.Peek(ub+16, 4); got != 1 {
		t.Errorf("error handler ran %d times for a user-state RTE, want 1", got)
	}
	if k.M.Peek(ub+20, 4) != 0 {
		t.Error("thread continued past its privileged instruction")
	}
	// The thread copies nothing, so the copy-loop tallies are set here, to
	// two values no other tally holds.
	k.M.CollapsedPasses, k.M.CollapseFallbacks = 1<<40+1, 1<<40+2
	c := k.Metrics.Snapshot().Counters
	if c["m68k.dispatch.translations"] != k.M.Translations || k.M.Translations == 0 ||
		c["m68k.dispatch.slow_instrs"] != k.M.SlowInstrs ||
		c["m68k.dispatch.slow_steps"] != k.M.SlowSteps || k.M.SlowSteps == 0 ||
		c["m68k.dispatch.collapsed_passes"] != k.M.CollapsedPasses ||
		c["m68k.dispatch.collapse_fallbacks"] != k.M.CollapseFallbacks {
		t.Errorf("registry serves %d translations, %d slow instructions, %d slow steps, %d collapsed passes and %d fallbacks, the machine counted %d, %d, %d, %d and %d",
			c["m68k.dispatch.translations"], c["m68k.dispatch.slow_instrs"], c["m68k.dispatch.slow_steps"],
			c["m68k.dispatch.collapsed_passes"], c["m68k.dispatch.collapse_fallbacks"],
			k.M.Translations, k.M.SlowInstrs, k.M.SlowSteps, k.M.CollapsedPasses, k.M.CollapseFallbacks)
	}
}

func TestOpenLookupVMRoutineFindsFiles(t *testing.T) {
	k := boot(t)
	f1, err := k.FS.Create("/etc/motd", []byte("hello"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := k.FS.CreateSpecial("/dev/null", 1); err != nil {
		t.Fatal(err)
	}
	// Place a name string in memory and call the lookup routine.
	const nameAddr = 0x9100
	for i, c := range []byte("/etc/motd\x00") {
		k.M.Poke(nameAddr+uint32(i), 1, uint32(c))
	}
	const result = 0x9200
	prog := k.C.Synthesize(nil, "main", nil, func(e *synth.Emitter) {
		e.MoveL(m68k.Imm(nameAddr), m68k.D(1))
		e.Jsr(k.LookupRoutine())
		e.MoveL(m68k.D(0), m68k.Abs(result))
		// Now a missing name.
		e.MoveL(m68k.Imm(nameAddr+5), m68k.D(1)) // "motd", the name's tail: no such file
		e.Jsr(k.LookupRoutine())
		e.MoveL(m68k.D(0), m68k.Abs(result+4))
		exitSeq(e)
	})
	th := k.SpawnKernel("main", prog)
	runToCompletion(t, k, th, 5_000_000)
	if got := k.M.Peek(result, 4); got != f1.Entry {
		t.Errorf("lookup = %#x, want entry %#x", got, f1.Entry)
	}
	if got := k.M.Peek(result+4, 4); got != 0 {
		t.Errorf("lookup of missing name = %#x, want 0", got)
	}
}

func TestContextSwitchTimeIsMicroseconds(t *testing.T) {
	// At the SUN 3/160 emulation point a full integer context switch
	// must land in the paper's decade: Table 4 reports 11 usec; we
	// accept single-digit-to-low-tens.
	k := kernel.Boot(kernel.Config{Machine: m68k.Sun3Config()})
	const c1 = 0x9000
	spin := k.C.Synthesize(nil, "spin", nil, func(e *synth.Emitter) {
		e.Label("loop")
		e.AddL(m68k.Imm(1), m68k.Abs(c1))
		e.Bra("loop")
	})
	t1 := k.SpawnKernel("t1", spin)
	k.SpawnKernel("t2", spin)
	k.Start(t1)
	if err := k.Run(5_000_000); !errors.Is(err, m68k.ErrCycleLimit) {
		t.Fatalf("run: %v", err)
	}
	us := kernel.MeasureSwitchMicros(k)
	if us < 5 || us > 40 {
		t.Errorf("context switch = %.1f usec, want the paper's decade (11)", us)
	}
	t.Logf("full context switch: %.2f usec (paper: 11)", us)
}

func TestQuaspaceSwitchingReloadsBounds(t *testing.T) {
	// Two user threads in DIFFERENT quaspaces, preempted by the
	// quantum timer: every switch between them must go through the
	// sw_in.mmu entry and reload the bounds registers, so each thread
	// stays confined to its own space for the whole run.
	k := boot(t)
	ubA, ulA := k.AllocUserSpace(4096)
	ubB, ulB := k.AllocUserSpace(4096)

	// Each thread fills its own space with its tag in a loop and
	// ALSO pokes one probe store at the other's space, which must
	// bus-fault into its error handler (counting the faults).
	mk := func(base, probe uint32, tag int32) uint32 {
		return k.C.Synthesize(nil, "user", nil, func(e *synth.Emitter) {
			e.Label("loop")
			e.MoveL(m68k.Imm(tag), m68k.Abs(base+64))
			e.MoveL(m68k.Imm(tag), m68k.Abs(probe+64)) // other space: faults
			e.Bra("loop")
		})
	}
	handlerFor := func(base uint32) uint32 {
		return k.C.Synthesize(nil, "errh", nil, func(e *synth.Emitter) {
			e.AddL(m68k.Imm(1), m68k.Abs(base+128)) // fault counter, own space
			e.Trap(kernel.TrapSig)
		})
	}
	ta := k.SpawnUser("A", mk(ubA, ubB, 0xAAAA), ubA, ulA)
	tb := k.SpawnUser("B", mk(ubB, ubA, 0xBBBB), ubB, ulB)
	k.M.Poke(ta.TTE+kernel.TTEErrPC, 4, handlerFor(ubA))
	k.M.Poke(tb.TTE+kernel.TTEErrPC, 4, handlerFor(ubB))

	k.Start(ta)
	if err := k.Run(30_000_000); !errors.Is(err, m68k.ErrCycleLimit) {
		t.Fatalf("run: %v", err)
	}
	if got := k.M.Peek(ubA+64, 4); got != 0xAAAA {
		t.Errorf("space A tag = %#x (cross-write leaked?)", got)
	}
	if got := k.M.Peek(ubB+64, 4); got != 0xBBBB {
		t.Errorf("space B tag = %#x", got)
	}
	if k.M.Peek(ubA+128, 4) == 0 || k.M.Peek(ubB+128, 4) == 0 {
		t.Error("cross-space probes never faulted: bounds not enforced")
	}
	// Both threads made progress across many quantum switches.
	if k.M.Peek(ubA+64, 4) == 0 || k.M.Peek(ubB+64, 4) == 0 {
		t.Error("a thread starved")
	}
}

func TestDoubleStartAndDoubleStopAreIdempotent(t *testing.T) {
	// Pairing errors between stop and start must never corrupt the
	// executable ready queue: the ring routines check the link state.
	k := boot(t)
	const c1, c2 = 0x9000, 0x9004
	spin := func(counter uint32) uint32 {
		return k.C.Synthesize(nil, "spin", nil, func(e *synth.Emitter) {
			e.Label("loop")
			e.AddL(m68k.Imm(1), m68k.Abs(counter))
			e.Bra("loop")
		})
	}
	victim := k.SpawnKernelStopped("victim", spin(c1))
	driver := k.C.Synthesize(nil, "driver", nil, func(e *synth.Emitter) {
		sys := func(fn int32) {
			e.MoveL(m68k.Imm(fn), m68k.D(0))
			e.MoveL(m68k.Imm(int32(victim.TTE)), m68k.D(1))
			e.Trap(kernel.TrapSys)
		}
		sys(kernel.SysStart)
		sys(kernel.SysStart) // double start: must be a no-op
		sys(kernel.SysStop)
		sys(kernel.SysStop) // double stop: must be a no-op
		sys(kernel.SysStart)
		// Let everyone run a few quanta; the ring must stay sane.
		e.Label("work")
		e.AddL(m68k.Imm(1), m68k.Abs(c2))
		e.CmpL(m68k.Imm(20000), m68k.Abs(c2))
		e.Bne("work")
		exitSeq(e)
	})
	td := k.SpawnKernel("driver", driver)
	k.Start(td)
	err := k.Run(50_000_000)
	if err != nil && !errors.Is(err, m68k.ErrCycleLimit) {
		t.Fatalf("run: %v (ring corrupted?)", err)
	}
	if k.M.Peek(c1, 4) == 0 {
		t.Error("victim never ran after restart")
	}
	if k.M.Peek(c2, 4) == 0 {
		t.Error("driver starved")
	}
}

func TestBusErrorReapsFaultingThread(t *testing.T) {
	k := boot(t)
	const flagBefore, flagAfter, flagPeer = 0x9100, 0x9104, 0x9108
	victim := k.C.Synthesize(nil, "victim", nil, func(e *synth.Emitter) {
		e.MoveL(m68k.Imm(1), m68k.Abs(flagBefore))
		e.Tst(4, m68k.Abs(0x00e0_0000)) // unmapped: bus error
		e.MoveL(m68k.Imm(1), m68k.Abs(flagAfter))
		exitSeq(e)
	})
	peer := k.C.Synthesize(nil, "peer", nil, func(e *synth.Emitter) {
		e.MoveL(m68k.Imm(2000), m68k.D(1))
		e.Label("spin")
		e.SubL(m68k.Imm(1), m68k.D(1))
		e.Bne("spin")
		e.MoveL(m68k.Imm(1), m68k.Abs(flagPeer))
		exitSeq(e)
	})
	tv := k.SpawnKernel("victim", victim)
	k.SpawnKernel("peer", peer)
	k.Start(tv)
	if err := k.Run(10_000_000); err != nil {
		t.Fatalf("run: %v\n%s", err, where(k))
	}
	if k.PanicMsg != "" {
		t.Fatalf("kernel panicked: %s", k.PanicMsg)
	}
	if k.M.Peek(flagBefore, 4) != 1 {
		t.Error("victim never ran")
	}
	if k.M.Peek(flagAfter, 4) != 0 {
		t.Error("victim survived its bus error")
	}
	if k.M.Peek(flagPeer, 4) != 1 {
		t.Error("peer thread did not keep running after the fault")
	}
	if onChain(k, tv.TTE) {
		t.Error("the reaped victim is still on the live chain")
	}
	if len(k.Faults) != 1 {
		t.Fatalf("fault log: got %d records, want 1", len(k.Faults))
	}
	if k.Faults[0].Name != "victim" {
		t.Errorf("fault log names %q, want victim", k.Faults[0].Name)
	}
	if k.Faults[0].PC == 0 {
		t.Error("fault log lost the faulting PC")
	}
}

func TestBusErrorStillReflectsToHandler(t *testing.T) {
	k := boot(t)
	const flag = 0x9200
	var handler uint32
	prog := k.C.Synthesize(nil, "main", nil, func(e *synth.Emitter) {
		e.Tst(4, m68k.Abs(0x00e0_0000)) // unmapped: bus error
		e.MoveL(m68k.Imm(7), m68k.Abs(flag))
		exitSeq(e)
	})
	handler = k.C.Synthesize(nil, "handler", nil, func(e *synth.Emitter) {
		e.MoveL(m68k.Imm(kernel.SysExit), m68k.D(0))
		e.Trap(kernel.TrapSys)
	})
	th := k.SpawnKernel("faulty", prog)
	k.M.Poke(th.TTE+kernel.TTEErrPC, 4, handler)
	k.Start(th)
	if err := k.Run(5_000_000); err != nil {
		t.Fatalf("run: %v", err)
	}
	if k.PanicMsg != "" {
		t.Fatalf("kernel panicked: %s", k.PanicMsg)
	}
	if len(k.Faults) != 0 {
		t.Errorf("reflected fault must not be logged as a reap, got %v", k.Faults)
	}
	if k.M.Peek(kernel.GLiveThreads, 4) != 0 {
		t.Error("handler never exited the thread")
	}
}

func TestSpuriousInterruptsAreCountedNotFatal(t *testing.T) {
	k := boot(t)
	inj := fault.New(fault.Plan{
		// The NIC's level: no driver claims it without the I/O layer.
		Storms: []fault.Storm{{Level: m68k.IRQNet, At: 2_000, Count: 5, Gap: 500}},
	}, 1)
	inj.Attach(k.M)
	const flag = 0x9300
	prog := k.C.Synthesize(nil, "main", nil, func(e *synth.Emitter) {
		e.MoveL(m68k.Imm(20_000), m68k.D(1))
		e.Label("spin")
		e.SubL(m68k.Imm(1), m68k.D(1))
		e.Bne("spin")
		e.MoveL(m68k.Imm(1), m68k.Abs(flag))
		exitSeq(e)
	})
	th := k.SpawnKernel("main", prog)
	runToCompletion(t, k, th, 5_000_000)
	if k.M.Peek(flag, 4) != 1 {
		t.Error("thread did not survive the spurious interrupts")
	}
	if got := k.SpuriousIRQs(); got != 5 {
		t.Errorf("spurious counter = %d, want 5", got)
	}
	if inj.Stats.StormUp != 5 {
		t.Errorf("injector asserted %d storm interrupts, want 5", inj.Stats.StormUp)
	}
}
