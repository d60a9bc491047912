package kernel_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"synthesis/internal/kernel"
	"synthesis/internal/m68k"
	"synthesis/internal/synth"
)

// The ring tests' command loop: every worker polls ringCmd, runs the
// command it finds there with the argument in ringArg, and polls
// again. Worker i blocks on the cell at ringCells+4*i; create leaves
// the new TTE in ringRes.
const ringCmd, ringArg, ringRes, ringCells = 0x9000, 0x9004, 0x9008, 0x9100

const (
	opYield = iota + 1
	opStop
	opStart
	opBlock
	opWake
	opDestroy
	opCreate // the new thread runs worker 0's loop
	opExit
	opFault // a bus error with no handler: the thread is reaped
)

var opNames = []string{opYield: "yield", opStop: "stop", opStart: "start", opBlock: "block", opWake: "wake",
	opDestroy: "destroy", opCreate: "create", opExit: "exit", opFault: "fault"}

// ringRig is n kernel threads, w0 to w(n-1), running the command loop
// with the quantum off, so a command runs to its end, or to the switch
// it asks for, before any other thread polls. w0 runs first; all n
// start on the ring.
type ringRig struct {
	t       *testing.T
	k       *kernel.Kernel
	workers []*kernel.Thread
	polls   map[uint32]bool
	entry   uint32 // worker 0's loop, where a created thread starts
}

func newRingRig(t *testing.T, n int) *ringRig {
	k := boot(t)
	r := &ringRig{t: t, k: k, polls: map[uint32]bool{}}
	for i := 0; i < n; i++ {
		cell := ringCell(i)
		prog := k.C.Synthesize(nil, fmt.Sprint("w", i), nil, func(e *synth.Emitter) {
			e.Label("poll")
			e.Tst(4, m68k.Abs(ringCmd))
			e.Beq("poll")
			e.MoveL(m68k.Abs(ringCmd), m68k.D(0))
			e.Clr(4, m68k.Abs(ringCmd))
			e.MoveL(m68k.Abs(ringArg), m68k.D(1))
			sys := func(label string, fn int32) {
				e.Label(label)
				e.MoveL(m68k.Imm(fn), m68k.D(0))
				e.Trap(kernel.TrapSys)
				e.Bra("poll")
			}
			for op, label := range opNames {
				if label != "" {
					e.CmpL(m68k.Imm(int32(op)), m68k.D(0))
					e.Beq(label)
				}
			}
			e.Halt() // an unknown command
			sys("yield", kernel.SysYield)
			sys("stop", kernel.SysStop)
			sys("start", kernel.SysStart)
			sys("destroy", kernel.SysDestroy)
			sys("exit", kernel.SysExit)
			e.Label("create")
			e.MoveL(m68k.Imm(kernel.SysCreate), m68k.D(0))
			e.Trap(kernel.TrapSys)
			e.MoveL(m68k.D(0), m68k.Abs(ringRes))
			e.Bra("poll")
			e.Label("fault")
			e.Tst(4, m68k.Abs(0x00e0_0000)) // unmapped
			e.Bra("poll")
			e.Label("block")
			e.Lea(m68k.Abs(cell), 0)
			e.Jsr(k.BlockOnRoutine())
			e.Bra("poll")
			e.Label("wake")
			e.MoveL(m68k.D(1), m68k.A(0))
			e.Jsr(k.WakeCellRoutine())
			e.Bra("poll")
		})
		r.polls[prog], r.polls[prog+1] = true, true
		if i == 0 {
			r.entry = prog
		}
		w := k.SpawnKernel(fmt.Sprint("w", i), prog)
		k.M.Poke(w.TTE+kernel.TTEQuantum, 4, 0)
		r.workers = append(r.workers, w)
	}
	k.M.Poke(k.Idle.TTE+kernel.TTEQuantum, 4, 0)
	k.Start(r.workers[0])
	r.step("boot", r.polling)
	return r
}

func ringCell(i int) uint32 { return ringCells + 4*uint32(i) }

func (r *ringRig) polling() bool { return r.polls[r.k.M.PC] }

// step runs the machine until done reports true, checking the ring at
// every boundary below IPL 7.
func (r *ringRig) step(what string, done func() bool) {
	r.t.Helper()
	k := r.k
	for limit := k.M.Cycles + 200_000; !done(); {
		if k.M.IPL() < 7 {
			if err := k.CheckReadyRing(); err != nil {
				r.t.Fatalf("%s, at cycle %d: %v", what, k.M.Cycles, err)
			}
		}
		if err := k.M.Step(); err != nil || k.M.Cycles > limit {
			r.t.Fatalf("%s: the machine stopped at cycle %d: %v", what, k.M.Cycles, err)
		}
	}
}

// post hands op with argument a to whichever thread polls next and
// runs until it has run and some thread polls again.
func (r *ringRig) post(what string, op int, a uint32) {
	r.t.Helper()
	r.k.M.Poke(ringArg, 4, a)
	r.k.M.Poke(ringCmd, 4, uint32(op))
	r.step(what, func() bool { return r.k.M.Peek(ringCmd, 4) == 0 })
	r.step(what, r.polling)
}

// TestReadyRingRandomOps drives 2 to 8 kernel threads through a seeded
// random sequence of stop, start, block, wake and yield, and checks the
// ready ring at every instruction boundary below IPL 7
// (Kernel.CheckReadyRing) and, after each operation, each thread's
// place on it and its wait cell against a model.
//
// The threads run ringRig's command loop. The host posts a command
// only when one thread stays runnable after it, so some thread always
// polls.
//
// Checked to fail, in a scratch copy, with the insert's two TTENextSw
// stores swapped and with the unlink's prev.next store dropped.
func TestReadyRingRandomOps(t *testing.T) {
	for n := 2; n <= 8; n++ {
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			r := newRingRig(t, n)
			k, workers := r.k, r.workers
			onRing := map[uint32]bool{}
			for _, w := range workers {
				onRing[w.TTE] = true
			}
			runnable := func() int {
				c := 0
				for _, w := range workers {
					if onRing[w.TTE] {
						c++
					}
				}
				return c
			}
			cellOf := func(tte uint32) uint32 {
				return ringCell(slices.IndexFunc(workers, func(w *kernel.Thread) bool { return w.TTE == tte }))
			}
			rng := rand.New(rand.NewSource(int64(n)))
			for i := 0; i < 150; i++ {
				op := 1 + rng.Intn(5)
				target := workers[rng.Intn(n)]
				if (op == opBlock || op == opStop && onRing[target.TTE]) && runnable() < 2 {
					op = opStart // the last runnable thread must stay so
				}
				a := target.TTE
				parked := k.M.Peek(cellOf(target.TTE), 4) != 0
				if op == opWake {
					a = cellOf(target.TTE)
				}
				what := fmt.Sprintf("op %d, %s %s", i, opNames[op], target.Name)
				claimer := k.CurTTE()
				r.post(what, op, a)

				switch op {
				case opStop:
					onRing[target.TTE] = false
				case opStart:
					onRing[target.TTE] = true
				case opBlock:
					onRing[claimer] = false
					if got := k.M.Peek(cellOf(claimer), 4); got != claimer {
						t.Fatalf("%s: the blocked thread's cell holds %#x, want %#x", what, got, claimer)
					}
				case opWake:
					if got := k.M.Peek(cellOf(target.TTE), 4); got != 0 {
						t.Fatalf("%s: the cell still holds %#x", what, got)
					}
					onRing[target.TTE] = onRing[target.TTE] || parked
				}
				for _, w := range workers {
					if on := k.M.Peek(w.TTE+kernel.TTENext, 4) != 0; on != onRing[w.TTE] {
						t.Fatalf("%s: %s on the ring is %v, want %v", what, w.Name, on, onRing[w.TTE])
					}
				}
			}
		})
	}
}

// TestLeavingAParkClearsTheCell parks w1 on its cell, takes it out of
// the park without a wake, destroys it and then wakes the cell. The
// start or destroy that ended the park must have cleared the cell, so
// the wake finds no one. Each case failed while they did not, with
// the wake splicing the freed TTE into the ring:
//
//   - destroy-then-wake: "wake w1's cell, at cycle 1680: ring member
//     w0 links to 0x10e60, no live thread". The destroy freed the
//     parked w1 and left its cell naming it.
//   - start-then-wake: "wake w1's cell, at cycle 1954: ring member w0
//     links to 0x10e60, no live thread". The start put w1 back on the
//     ring with its cell still naming it; the destroy then unlinked
//     and freed it.
func TestLeavingAParkClearsTheCell(t *testing.T) {
	for _, tc := range []struct {
		name string
		ops  []int
	}{
		{"destroy-then-wake", []int{opDestroy}},
		{"start-then-wake", []int{opStart, opDestroy}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newRingRig(t, 2)
			w1 := r.workers[1]
			for r.k.CurTTE() != w1.TTE {
				r.post("yield to w1", opYield, 0)
			}
			r.post("w1 blocks", opBlock, 0)
			for _, op := range tc.ops {
				r.post(opNames[op]+" w1", op, w1.TTE)
			}
			r.post("wake w1's cell", opWake, ringCell(1))
			if got := r.k.M.Peek(ringCell(1), 4); got != 0 {
				t.Errorf("w1's cell holds %#x after the wake", got)
			}
			if onChain(r.k, w1.TTE) || r.k.CurTTE() != r.workers[0].TTE {
				t.Errorf("w1 is not gone or w0 is not running: current TTE %#x", r.k.CurTTE())
			}
		})
	}
}

// TestSpawnAfterIdleLeftTheRing spawns a thread from the host once the
// idle thread has left the ready ring: two workers yield to each other
// twice, then SpawnKernel links a third. It must land on the ring after
// a member and run. It failed while every spawn linked after the idle
// thread: "thread idle is off the ring with TTENext …", the spawn
// having written the new TTE into boot vector 33 (0 + TTEPrev).
func TestSpawnAfterIdleLeftTheRing(t *testing.T) {
	r := newRingRig(t, 2)
	k := r.k
	r.post("yield", opYield, 0)
	r.post("yield", opYield, 0)
	if k.M.Peek(k.Idle.TTE+kernel.TTENext, 4) != 0 {
		t.Fatal("the idle thread is still on the ring after two yields")
	}
	low := k.M.Peek(kernel.TTEPrev, 4)
	late := k.SpawnKernel("late", r.entry)
	k.M.Poke(late.TTE+kernel.TTEQuantum, 4, 0)
	if err := k.CheckReadyRing(); err != nil {
		t.Fatalf("after the spawn: %v", err)
	}
	if got := k.M.Peek(kernel.TTEPrev, 4); got != low {
		t.Fatalf("the spawn wrote %#x at address %#x, below every TTE", got, kernel.TTEPrev)
	}
	for i := 0; k.CurTTE() != late.TTE; i++ {
		if i == 3 {
			t.Fatal("the spawned thread never ran")
		}
		r.post("yield to the spawned thread", opYield, 0)
	}
}

// TestLiveChainChurn drives every life-cycle path through a seeded
// random sequence: the host's SpawnKernel (the rig's workers),
// SpawnUser and SpawnKernelStopped, and the guest's create, start,
// stop, destroy of another thread, self-destroy, exit and bus-error
// reap. After each step the chain of live TTEs (Kernel.Threads) must
// list exactly the model's threads in creation order; CheckReadyRing,
// at every boundary below IPL 7, holds the handle table equal to it.
//
// Checked to fail, in a scratch copy, with FreeThread's unlink dropped
// and with initThread's link dropped.
func TestLiveChainChurn(t *testing.T) {
	ran := map[int]int{}
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			r := newRingRig(t, 3)
			k := r.k
			k.M.Poke(kernel.GLiveThreads, 4, 1000) // no exit halts the machine
			model := []uint32{k.Idle.TTE}
			for _, w := range r.workers {
				model = append(model, w.TTE)
			}
			check := func(what string) {
				t.Helper()
				var chain []uint32
				for th := range k.Threads() {
					chain = append(chain, th.TTE)
				}
				if !slices.Equal(chain, model) {
					t.Fatalf("%s: the live chain is %#x, want %#x", what, chain, model)
				}
				if err := k.CheckReadyRing(); err != nil {
					t.Fatalf("%s: %v", what, err)
				}
			}
			check("boot")
			// The idle thread is still on the ring until some thread
			// yields, so a host spawn may link after it.
			ubase, ulimit := k.AllocUserSpace(4096)
			user := k.SpawnUser("user", r.entry, ubase, ulimit)
			model = append(model, user.TTE)
			check("spawn user")
			r.post("stop user", opStop, user.TTE) // its loop would fault outside its quaspace

			on := func(tte uint32) bool { return k.M.Peek(tte+kernel.TTENext, 4) != 0 }
			runnable := func() []uint32 {
				return slices.DeleteFunc(slices.Clone(model), func(tte uint32) bool { return tte == k.Idle.TTE || !on(tte) })
			}
			stopped := func() []uint32 {
				return slices.DeleteFunc(slices.Clone(model), func(tte uint32) bool { return tte == k.Idle.TTE || tte == user.TTE || on(tte) })
			}
			drop := func(tte uint32) { model = slices.DeleteFunc(model, func(m uint32) bool { return m == tte }) }
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 80; i++ {
				cur := k.CurTTE()
				var others []uint32
				for _, tte := range model {
					if tte != k.Idle.TTE && tte != cur {
						others = append(others, tte)
					}
				}
				pick := func(from []uint32) uint32 { return from[rng.Intn(len(from))] }
				// A self-removal needs another runnable thread to poll next.
				can := map[int]bool{
					opCreate: len(model) < 8, opSpawnStopped: len(model) < 8,
					opStart: len(stopped()) > 0, opStop: len(others) > 0, opDestroy: len(others) > 0,
					opSelfDestroy: len(runnable()) > 1, opExit: len(runnable()) > 1, opFault: len(runnable()) > 1,
				}
				op := []int{opCreate, opSpawnStopped, opStart, opStop, opDestroy, opSelfDestroy, opExit, opFault}[rng.Intn(8)]
				if !can[op] {
					op = opYield
				}
				what := fmt.Sprintf("step %d, %s", i, churnNames[op])
				switch op {
				case opCreate:
					r.post(what, opCreate, r.entry)
					tte := k.M.Peek(ringRes, 4)
					k.M.Poke(tte+kernel.TTEQuantum, 4, 0)
					model = append(model, tte)
				case opSpawnStopped:
					th := k.SpawnKernelStopped("stopped", r.entry)
					k.M.Poke(th.TTE+kernel.TTEQuantum, 4, 0)
					model = append(model, th.TTE)
				case opStart:
					r.post(what, opStart, pick(stopped()))
				case opStop:
					r.post(what, opStop, pick(others))
				case opDestroy:
					tte := pick(others)
					r.post(what, opDestroy, tte)
					drop(tte)
				case opSelfDestroy:
					r.post(what, opDestroy, cur)
					drop(cur)
				case opExit, opFault:
					faults := len(k.Faults)
					r.post(what, op, 0)
					drop(cur)
					if op == opFault && len(k.Faults) != faults+1 {
						t.Fatalf("%s: %d fault records, want %d", what, len(k.Faults), faults+1)
					}
				case opYield:
					r.post(what, opYield, 0)
				}
				ran[op]++
				check(what)
			}
		})
	}
	for op, name := range churnNames {
		if ran[op] == 0 {
			t.Errorf("no seed ran %s", name)
		}
	}
}

// The churn test's steps beyond the rig's commands.
const (
	opSpawnStopped = 100 + iota
	opSelfDestroy
)

var churnNames = map[int]string{opCreate: "create", opSpawnStopped: "spawn stopped", opStart: "start", opStop: "stop",
	opDestroy: "destroy", opSelfDestroy: "self-destroy", opExit: "exit", opFault: "fault", opYield: "yield"}
