package kio_test

import (
	"fmt"
	"testing"

	"synthesis/internal/kernel"
	"synthesis/internal/kio"
	"synthesis/internal/m68k"
	synnet "synthesis/internal/net"
	"synthesis/internal/synth"
)

// TestQuantumInHandlerEnumerated checks by enumeration that the
// quantum never preempts an interrupt handler. The quantum is the
// lowest interrupt level, so a handler's own level masks it from entry
// to RTE, and the switch it asks for happens once, from thread context,
// right after the handler returns.
//
// For each of the receive, tty and A/D handlers a reader parks on its
// device while a spinner runs; the device's interrupt wakes the reader.
// The quantum is made to expire at every cycle from that interrupt's
// raise to the handler's RTE, each on a fresh machine, and every run
// must:
//   - take exactly one quantum interrupt;
//   - enter sw_out from it with a stacked IPL of 0, after the RTE;
//   - hand the handler's frame, byte or sample element to the reader.
//
// It fails on the two designs before this one (each checked in a
// scratch copy):
//   - the quantum above every handler, vectored into a prologue that
//     re-arms a short quantum when the stacked IPL is nonzero: a
//     deferral takes two timer interrupts, three when the re-armed
//     quantum lands in the handler again;
//   - the quantum above every handler and no prologue: the switch
//     strands a half-run handler, entering sw_out with the handler's
//     level stacked — for net_intr, in the one-instruction window
//     before its mask that the first multi-VM soaks found (DESIGN.md
//     §3a).
//
// Each way of failing is reported once, with its count of injection
// points.
func TestQuantumInHandlerEnumerated(t *testing.T) {
	const res, ttyName, adName, buf = 0x9000, 0x9100, 0x9200, 0x9300
	const arriveAfter = 1_000   // cycles from the spinner's start to the frame or byte
	const deliverWithin = 5_000 // cycles from the handler's RTE to the reader's return
	payload := []byte("frame")
	frame := synnet.EncodeFrame(synnet.Frame{Dst: 9, Src: 5, Sum: synnet.Checksum(payload), Payload: payload})
	element := 4 * kio.ADBlockingFactor

	type scenario struct {
		name  string
		level int
		// reader emits the reader's program up to its blocking read,
		// which leaves its result in D0.
		reader func(e *synth.Emitter)
		// arrive runs on the host once the spinner has started.
		arrive func(k *kernel.Kernel)
		// got reports whether the reader returned what the handler
		// delivered.
		got func(k *kernel.Kernel) bool
	}
	scenarios := []scenario{{
		name:  "net_intr",
		level: m68k.IRQNet,
		reader: func(e *synth.Emitter) {
			emitSock(e, 9, 5) // fd 0
			e.MoveL(m68k.Imm(buf), m68k.D(1))
			e.MoveL(m68k.Imm(64), m68k.D(2))
			e.Trap(kernel.TrapRead + 0)
		},
		arrive: func(k *kernel.Kernel) { k.Net.InjectFrame(frame) },
		got: func(k *kernel.Kernel) bool {
			return int(k.M.Peek(res, 4)) == len(payload) && string(k.M.PeekBytes(buf, len(payload))) == string(payload)
		},
	}, {
		name:  "tty_intr",
		level: m68k.IRQTTY,
		reader: func(e *synth.Emitter) {
			emitOpen(e, ttyName) // fd 0
			e.MoveL(m68k.Imm(buf), m68k.D(1))
			e.MoveL(m68k.Imm(1), m68k.D(2))
			e.Trap(kernel.TrapRead + 0)
		},
		arrive: func(k *kernel.Kernel) { k.TTY.InputNow('Q') },
		got: func(k *kernel.Kernel) bool {
			return k.M.Peek(res, 4) == 1 && k.M.Peek(buf, 1) == 'Q'
		},
	}, {
		name:  "ad_intr",
		level: m68k.IRQAD,
		reader: func(e *synth.Emitter) {
			emitOpen(e, adName) // fd 0
			e.MoveL(m68k.Imm(1), m68k.Abs(m68k.ADBase+m68k.ADRegCtl))
			e.MoveL(m68k.Imm(buf), m68k.D(1))
			e.MoveL(m68k.Imm(int32(element)), m68k.D(2))
			e.Trap(kernel.TrapRead + 0)
		},
		arrive: func(k *kernel.Kernel) {},
		got: func(k *kernel.Kernel) bool {
			// One element of the sampler's ramp: channel 0 counts up.
			return int(k.M.Peek(res, 4)) == element && k.M.Peek(buf+4, 4)>>16 == k.M.Peek(buf, 4)>>16+1
		},
	}}

	// quantum is one quantum interrupt as the CPU took it.
	type quantum struct {
		at         uint64
		stackedIPL uint32
		swout      bool
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			// run boots a fresh machine, runs it to the spinner's start,
			// arms the quantum to expire at cycle q (0: never), lets the
			// device deliver and steps until done reports true. It
			// returns the quantum interrupts taken and the raise cycle of
			// the latest device interrupt.
			run := func(q uint64, done func(k *kernel.Kernel, reader *kernel.Thread) bool) (*kernel.Kernel, []quantum, uint64) {
				k := kernel.Boot(kernel.Config{Machine: m68k.Config{MemSize: 1 << 20}, Profile: true})
				kio.Install(k)
				pokeName(k, ttyName, "/dev/rawtty")
				pokeName(k, adName, "/dev/ad")
				var quanta []quantum
				var raised uint64
				k.Prof.OnIRQ = func(level, vec int, raisedAt, takenAt uint64) {
					m := k.M
					switch level {
					case m68k.IRQTimer:
						quanta = append(quanta, quantum{
							at:         takenAt,
							stackedIPL: m.Peek(m.A[7], 4) >> 8 & 7,
							swout:      m.PC == m.Peek(k.CurTTE()+kernel.TTESwoutPt, 4),
						})
					case sc.level:
						raised = raisedAt
					}
				}
				prog := k.C.Synthesize(nil, "reader", nil, func(e *synth.Emitter) {
					sc.reader(e)
					e.MoveL(m68k.D(0), m68k.Abs(res))
					e.Kcall(kernel.SvcMark)
					exitSeq(e)
				})
				spin := k.C.Synthesize(nil, "spinner", nil, func(e *synth.Emitter) {
					e.Kcall(kernel.SvcMark)
					e.Label("spin")
					e.Bra("spin")
				})
				reader := k.SpawnKernel("reader", prog)
				k.SpawnKernel("spinner", spin)
				k.Start(reader)
				for len(k.Marks) == 0 {
					if err := k.M.Step(); err != nil {
						t.Fatalf("before the spinner started: %v", err)
					}
				}
				if len(quanta) != 0 {
					t.Fatal("a quantum expired before the spinner started")
				}
				// This replaces the quantum the spinner's sw_in armed.
				arm := uint32(0)
				if q != 0 {
					arm = uint32(q - k.M.Cycles)
				}
				k.Timer.Store(m68k.TimerRegQuantum, 4, arm)
				k.M.Kick(k.Timer)
				for k.M.Cycles < k.Marks[0]+arriveAfter {
					if err := k.M.Step(); err != nil {
						t.Fatalf("quantum at cycle %d: %v", q, err)
					}
				}
				sc.arrive(k)
				for !done(k, reader) {
					if err := k.M.Step(); err != nil {
						t.Fatalf("quantum at cycle %d: %v", q, err)
					}
				}
				return k, quanta, raised
			}

			// The window: from the raise of the interrupt whose handler
			// wakes the reader to that handler's RTE, back at IPL 0.
			woken := false
			k, _, from := run(0, func(k *kernel.Kernel, reader *kernel.Thread) bool {
				if k.M.Cycles > 1_000_000 {
					t.Fatal("the handler never woke the reader")
				}
				woken = woken || k.M.Peek(reader.TTE+kernel.TTENext, 4) != 0
				return woken && k.M.IPL() == 0
			})
			to := k.M.Cycles
			if from < k.Marks[0]+arriveAfter {
				t.Fatalf("the device interrupt (cycle %d) came before the quantum was armed (%d)", from, k.Marks[0]+arriveAfter)
			}

			var kinds []string
			failed := map[string][]uint64{}
			for at := from; at <= to; at++ {
				k, quanta, _ := run(at, func(k *kernel.Kernel, _ *kernel.Thread) bool {
					return len(k.Marks) == 2 || k.M.Cycles > to+deliverWithin
				})
				var why string
				switch {
				case len(quanta) != 1:
					why = fmt.Sprintf("%d quantum interrupts, want 1", len(quanta))
				case !quanta[0].swout:
					why = "the quantum vector did not enter sw_out"
				case quanta[0].stackedIPL != 0:
					why = fmt.Sprintf("sw_out entered with IPL %d stacked, inside a handler", quanta[0].stackedIPL)
				case quanta[0].at < to:
					why = "the switch came before the handler's RTE"
				case len(k.Marks) != 2:
					why = fmt.Sprintf("the reader did not return within %d cycles of the RTE", deliverWithin)
				case !sc.got(k):
					why = "the reader did not get what the handler delivered"
				default:
					continue
				}
				if failed[why] == nil {
					kinds = append(kinds, why)
				}
				failed[why] = append(failed[why], at)
			}
			for _, why := range kinds {
				t.Errorf("%s: %d of %d injection points (cycles %d..%d), first at cycle %d",
					why, len(failed[why]), to-from+1, from, to, failed[why][0])
			}
			t.Logf("%d injection points, cycles %d..%d", to-from+1, from, to)
		})
	}
}

// TestIdleLeaveWindowEnumerated checks by enumeration that the idle
// thread's step out of the ready ring is one atomic act. A reader
// parks on its socket, so the idle thread is alone in the ring and in
// STOP; a frame's interrupt wakes the reader, and the idle thread then
// sees another thread in the ring and unlinks itself. The quantum is
// made to expire at every cycle from the frame's arrival to the
// reader's return, each on a fresh machine, and a second frame must
// then reach the reader too.
//
// With the idle thread's ring check unmasked it fails: a quantum
// between the check and the mask switches to the reader, which reads,
// parks again and leaves the idle thread alone in the ring; the idle
// thread then unlinks itself from a ring of one and spins at IPL 7
// forever on a ring with no thread in it, the net interrupt never
// taken. Multi-VM echo fleets met it once per few hundred thousand
// echoes.
func TestIdleLeaveWindowEnumerated(t *testing.T) {
	const buf = 0x9300
	payload := []byte("frame")
	frame := synnet.EncodeFrame(synnet.Frame{Dst: 9, Src: 5, Sum: synnet.Checksum(payload), Payload: payload})
	// run boots a fresh machine, steps it until the reader is parked
	// and the CPU in STOP, arms the quantum to expire at cycle q (0:
	// never), delivers one frame and then, once the reader has it and
	// the CPU is back in STOP, a second. It returns the marks the
	// reader left, one per frame, and the cycle the first frame
	// arrived.
	run := func(q uint64) ([]uint64, uint64) {
		k := kernel.Boot(kernel.Config{Machine: m68k.Config{MemSize: 1 << 20}})
		kio.Install(k)
		prog := k.C.Synthesize(nil, "reader", nil, func(e *synth.Emitter) {
			emitSock(e, 9, 5) // fd 0
			e.Label("loop")
			e.MoveL(m68k.Imm(buf), m68k.D(1))
			e.MoveL(m68k.Imm(64), m68k.D(2))
			e.Trap(kernel.TrapRead + 0)
			e.Kcall(kernel.SvcMark)
			e.Bra("loop")
		})
		k.Start(k.SpawnKernel("reader", prog))
		step := func(until func() bool) {
			for limit := k.M.Cycles + 2_000_000; !until(); {
				if err := k.M.Step(); err != nil || k.M.Cycles > limit {
					return
				}
			}
		}
		step(k.M.Stopped)
		at := k.M.Cycles
		arm := uint32(0)
		if q != 0 {
			arm = uint32(q - at)
		}
		k.Timer.Store(m68k.TimerRegQuantum, 4, arm)
		k.M.Kick(k.Timer)
		k.Net.InjectFrame(frame)
		step(func() bool { return len(k.Marks) == 1 })
		step(k.M.Stopped)
		k.Net.InjectFrame(frame)
		step(func() bool { return len(k.Marks) == 2 })
		return k.Marks, at
	}
	marks, from := run(0)
	if len(marks) != 2 {
		t.Fatalf("with no quantum the reader got %d of 2 frames", len(marks))
	}
	var lost []uint64
	for q := from + 1; q <= marks[0]; q++ {
		if marks, _ := run(q); len(marks) != 2 {
			lost = append(lost, q)
		}
	}
	if len(lost) > 0 {
		t.Errorf("the second frame never reached the reader at %d of %d injection points (cycles %d..%d), first at cycle %d",
			len(lost), marks[0]-from, from+1, marks[0], lost[0])
	}
	t.Logf("%d injection points, cycles %d..%d", marks[0]-from, from+1, marks[0])
}
