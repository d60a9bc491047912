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

// TestReadyRingRandomOps drives 2 to 8 kernel threads through a seeded
// random sequence of stop, start, block, wake and yield, and checks the
// ready ring at every instruction boundary below IPL 7
// (Kernel.CheckReadyRing) and, after each operation, each thread's
// place on it and its wait cell against a model.
//
// Every thread runs the same loop: poll a command cell, run the command
// it finds there, poll again. The quantum is off, so a command runs to
// its end, or to the switch it asks for, before any other thread polls.
// The host posts a command only when one thread stays runnable after
// it, so some thread always polls.
//
// Checked to fail, in a scratch copy, with the insert's two TTENextSw
// stores swapped and with the unlink's prev.next store dropped.
func TestReadyRingRandomOps(t *testing.T) {
	const cmd, arg, cells = 0x9000, 0x9004, 0x9100
	const (
		opYield = iota + 1
		opStop
		opStart
		opBlock
		opWake
	)
	names := []string{opYield: "yield", opStop: "stop", opStart: "start", opBlock: "block", opWake: "wake"}
	for n := 2; n <= 8; n++ {
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			k := boot(t)
			var workers []*kernel.Thread
			polls := map[uint32]bool{}
			for i := 0; i < n; i++ {
				cell := int32(cells + 4*i)
				prog := k.C.Synthesize(nil, fmt.Sprint("w", i), nil, func(e *synth.Emitter) {
					e.Label("poll")
					e.Tst(4, m68k.Abs(cmd))
					e.Beq("poll")
					e.MoveL(m68k.Abs(cmd), m68k.D(0))
					e.Clr(4, m68k.Abs(cmd))
					e.MoveL(m68k.Abs(arg), m68k.D(1))
					sys := func(label string, fn int32) {
						e.Label(label)
						e.MoveL(m68k.Imm(fn), m68k.D(0))
						e.Trap(kernel.TrapSys)
						e.Bra("poll")
					}
					for op, label := range names {
						if label != "" {
							e.CmpL(m68k.Imm(int32(op)), m68k.D(0))
							e.Beq(label)
						}
					}
					e.Halt() // an unknown command
					sys("yield", kernel.SysYield)
					sys("stop", kernel.SysStop)
					sys("start", kernel.SysStart)
					e.Label("block")
					e.Lea(m68k.Abs(uint32(cell)), 0)
					e.Jsr(k.BlockOnRoutine())
					e.Bra("poll")
					e.Label("wake")
					e.MoveL(m68k.D(1), m68k.A(0))
					e.Jsr(k.WakeCellRoutine())
					e.Bra("poll")
				})
				polls[prog], polls[prog+1] = true, true
				w := k.SpawnKernel(fmt.Sprint("w", i), prog)
				k.M.Poke(w.TTE+kernel.TTEQuantum, 4, 0)
				workers = append(workers, w)
			}
			k.M.Poke(k.Idle.TTE+kernel.TTEQuantum, 4, 0)
			k.Start(workers[0])

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
			// step runs the machine until done reports true, checking
			// the ring at every boundary below IPL 7.
			step := func(what string, done func() bool) {
				t.Helper()
				for limit := k.M.Cycles + 200_000; !done(); {
					if k.M.IPL() < 7 {
						if err := k.CheckReadyRing(); err != nil {
							t.Fatalf("%s, at cycle %d: %v", what, k.M.Cycles, err)
						}
					}
					if err := k.M.Step(); err != nil || k.M.Cycles > limit {
						t.Fatalf("%s: the machine stopped at cycle %d: %v", what, k.M.Cycles, err)
					}
				}
			}
			step("boot", func() bool { return polls[k.M.PC] })

			cellOf := func(tte uint32) uint32 { return cells + 4*uint32(slices.Index(workers, k.Threads[tte])) }
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
				what := fmt.Sprintf("op %d, %s %s", i, names[op], target.Name)
				k.M.Poke(arg, 4, a)
				k.M.Poke(cmd, 4, uint32(op))
				claimer := k.CurTTE()
				step(what, func() bool { return k.M.Peek(cmd, 4) == 0 })
				step(what, func() bool { return polls[k.M.PC] })

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
