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

// The enumerations below share one loop: a window of cycles is found on
// one machine, then every cycle of it, or every instruction boundary in
// it, is an injection point, each on a fresh one.

// Device names the enumerations' readers open.
const ttyName, adName = 0x9100, 0x9200

// enumBoot boots a fresh machine for one injection point: the
// measurement plane attached, kio installed and the raw tty and A/D
// names in memory.
func enumBoot() (*kernel.Kernel, *kio.IO) {
	k := kernel.Boot(kernel.Config{Machine: m68k.Config{MemSize: 1 << 20}, Profile: true})
	io := kio.Install(k)
	pokeName(k, ttyName, "/dev/rawtty")
	pokeName(k, adName, "/dev/ad")
	return k, io
}

// stepUntil steps k until stop reports true, giving up 2,000,000 cycles
// on; it returns the error that stopped the machine, if one did.
func stepUntil(k *kernel.Kernel, stop func() bool) error {
	for limit := k.M.Cycles + 2_000_000; !stop() && k.M.Cycles < limit; {
		if err := k.M.Step(); err != nil {
			return err
		}
	}
	return nil
}

// armQuantum replaces the running quantum with one that expires at
// cycle q (0: never).
func armQuantum(k *kernel.Kernel, q uint64) {
	arm := uint32(0)
	if q != 0 {
		arm = uint32(q - k.M.Cycles)
	}
	k.Timer.Store(m68k.TimerRegQuantum, 4, arm)
	k.M.Kick(k.Timer)
}

// cycles lists every cycle from..to, each an injection point.
func cycles(from, to uint64) []uint64 {
	var at []uint64
	for c := from; c <= to; c++ {
		at = append(at, c)
	}
	return at
}

// enumerate runs check at every injection point, in cycle order, and
// reports each way of failing once, with its count of points and the
// first; check returns why its run failed, or "" if it held.
func enumerate(t *testing.T, points []uint64, check func(at uint64) string) {
	t.Helper()
	var kinds []string
	failed := map[string][]uint64{}
	from, to := points[0], points[len(points)-1]
	for _, at := range points {
		why := check(at)
		if why == "" {
			continue
		}
		if failed[why] == nil {
			kinds = append(kinds, why)
		}
		failed[why] = append(failed[why], at)
	}
	for _, why := range kinds {
		t.Errorf("%s: %d of %d injection points (cycles %d..%d), first at cycle %d",
			why, len(failed[why]), len(points), from, to, failed[why][0])
	}
	t.Logf("%d injection points, cycles %d..%d", len(points), from, to)
}

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
//   - hand the handler's frame, byte or sample element to the reader;
//   - leave the ready ring whole (Kernel.CheckReadyRing).
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
	const res, buf = 0x9000, 0x9300
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
		arrive: func(k *kernel.Kernel) { k.Net.Deliver(frame) },
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
				k, _ := enumBoot()
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
				if err := stepUntil(k, func() bool { return len(k.M.Marks) != 0 }); err != nil || len(k.M.Marks) == 0 {
					t.Fatalf("the spinner never started: %v", err)
				}
				if len(quanta) != 0 {
					t.Fatal("a quantum expired before the spinner started")
				}
				// This replaces the quantum the spinner's sw_in armed.
				armQuantum(k, q)
				err := stepUntil(k, func() bool { return k.M.Cycles >= k.M.Marks[0].Cycles+arriveAfter })
				if err == nil {
					sc.arrive(k)
					err = stepUntil(k, func() bool { return done(k, reader) })
				}
				if err != nil {
					t.Fatalf("quantum at cycle %d: %v", q, err)
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
			if from < k.M.Marks[0].Cycles+arriveAfter {
				t.Fatalf("the device interrupt (cycle %d) came before the quantum was armed (%d)", from, k.M.Marks[0].Cycles+arriveAfter)
			}

			enumerate(t, cycles(from, to), func(at uint64) string {
				k, quanta, _ := run(at, func(k *kernel.Kernel, _ *kernel.Thread) bool {
					return len(k.M.Marks) == 2 || k.M.Cycles > to+deliverWithin
				})
				switch {
				case len(quanta) != 1:
					return fmt.Sprintf("%d quantum interrupts, want 1", len(quanta))
				case !quanta[0].swout:
					return "the quantum vector did not enter sw_out"
				case quanta[0].stackedIPL != 0:
					return fmt.Sprintf("sw_out entered with IPL %d stacked, inside a handler", quanta[0].stackedIPL)
				case quanta[0].at < to:
					return "the switch came before the handler's RTE"
				case len(k.M.Marks) != 2:
					return fmt.Sprintf("the reader did not return within %d cycles of the RTE", deliverWithin)
				case !sc.got(k):
					return "the reader did not get what the handler delivered"
				}
				if err := k.CheckReadyRing(); err != nil {
					return err.Error()
				}
				return ""
			})
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
// then reach the reader too, with the ready ring whole.
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
	// reader left, one per frame, the cycle the first frame arrived and
	// the machine.
	run := func(q uint64) ([]m68k.Mark, uint64, *kernel.Kernel) {
		k, _ := enumBoot()
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
		// A machine that stops on an error shows as a lost frame.
		stepUntil(k, k.M.Stopped)
		at := k.M.Cycles
		armQuantum(k, q)
		k.Net.Deliver(frame)
		stepUntil(k, func() bool { return len(k.M.Marks) == 1 })
		stepUntil(k, k.M.Stopped)
		k.Net.Deliver(frame)
		stepUntil(k, func() bool { return len(k.M.Marks) == 2 })
		return k.M.Marks, at, k
	}
	marks, from, _ := run(0)
	if len(marks) != 2 {
		t.Fatalf("with no quantum the reader got %d of 2 frames", len(marks))
	}
	enumerate(t, cycles(from+1, marks[0].Cycles), func(q uint64) string {
		marks, _, k := run(q)
		if len(marks) != 2 {
			return "the second frame never reached the reader"
		}
		if err := k.CheckReadyRing(); err != nil {
			return err.Error()
		}
		return ""
	})
}

// TestNetIntrOneActivationEnumerated checks by enumeration that the
// receive handler needs no CAS. Its mask is raised from entry to RTE,
// so one activation runs at a time: it is the one consumer of the NIC
// ring and the one producer of every socket queue, and it takes ring
// and queue slots with a plain read and advance. A frame is delivered
// to a machine whose one thread is parked on a tty read; a second frame
// and a tty byte are then posted at every cycle of that frame's
// activation, from its interrupt's entry to its RTE, each on a fresh
// machine. Every run must:
//   - begin no activation while another is live;
//   - deposit each frame exactly once, in order;
//   - leave the ring's tail equal to its head;
//   - hand the tty byte to the reader.
//
// Checked to fail, in a scratch copy, with the handler unmasking itself
// after entry (an AndSR back to IPL 0 right after its OrSR): the second
// frame's interrupt then nests inside the first activation. With the
// nesting check taken out, the deposit checks still fail: both
// activations take the same ring slot, and the resumed outer one walks
// the tail past the head, depositing stale slots until the queue fills
// (8 deposits and 5 drops for the two frames).
func TestNetIntrOneActivationEnumerated(t *testing.T) {
	const res, buf = 0x9000, 0x9300
	first, second := []byte("first frame"), []byte("second frame")
	frame := func(p []byte) []byte {
		return synnet.EncodeFrame(synnet.Frame{Dst: 9, Src: 5, Sum: synnet.Checksum(p), Payload: p})
	}
	// run boots a fresh machine, steps it until the reader is parked and
	// the CPU in STOP, delivers the first frame, and at cycle at (0:
	// never) posts the second frame and the tty byte; it then steps to
	// cycle until, and at least to the first activation's end. It
	// returns the machine, the socket's queue, the cycles the first
	// activation began and ended, and the activations that began while
	// another was live.
	run := func(at, until uint64) (k *kernel.Kernel, q uint32, from, to uint64, nested int) {
		k, io := enumBoot()
		// An activation is live from its interrupt's entry until the
		// stack pointer rises above the frame the entry pushed.
		live, sp := false, uint32(0)
		k.Prof.OnIRQ = func(level, _ int, _, takenAt uint64) {
			if level != m68k.IRQNet {
				return
			}
			if live && k.M.A[7] < sp {
				nested++
			}
			if from == 0 {
				from = takenAt
			}
			live, sp = true, k.M.A[7]
		}
		prog := k.C.Synthesize(nil, "reader", nil, func(e *synth.Emitter) {
			emitOpen(e, ttyName) // fd 1, after the socket
			e.MoveL(m68k.Imm(buf), m68k.D(1))
			e.MoveL(m68k.Imm(1), m68k.D(2))
			e.Trap(kernel.TrapRead + 1)
			e.MoveL(m68k.D(0), m68k.Abs(res))
			e.Label("spin")
			e.Bra("spin")
		})
		th := k.SpawnKernel("reader", prog)
		if io.OpenSocket(th, 9, 5) != 0 {
			t.Fatal("socket fd")
		}
		q = io.NetSockets()[0].Queue
		k.Start(th)
		step := func(stop func() bool) {
			err := stepUntil(k, func() bool {
				if live && k.M.A[7] > sp {
					live = false
					if to == 0 {
						to = k.M.Cycles
					}
				}
				return stop()
			})
			if err != nil {
				t.Fatalf("posted at cycle %d: %v", at, err)
			}
		}
		step(k.M.Stopped)
		k.Net.Deliver(frame(first))
		if at != 0 {
			step(func() bool { return k.M.Cycles >= at })
			k.Net.Deliver(frame(second))
			k.TTY.InputNow('Q')
		}
		step(func() bool { return k.M.Cycles >= until && to != 0 })
		return k, q, from, to, nested
	}
	_, _, from, to, _ := run(0, 0)
	if from == 0 || to == 0 {
		t.Fatal("the first frame's activation never began or never ended")
	}
	// slot returns the payload in queue slot i.
	slot := func(k *kernel.Kernel, q, i uint32) string {
		a := q + kio.NQSlots + i*kio.NQSlotBytes
		return string(k.M.PeekBytes(a+4, int(k.M.Peek(a, 4))))
	}
	enumerate(t, cycles(from, to), func(at uint64) string {
		k, q, _, _, nested := run(at, to+10_000)
		cell := func(off uint32) uint32 { return k.M.Peek(q+off, 4) }
		switch {
		case nested != 0:
			return "an activation began inside another"
		case cell(kio.NQHead) != 2 || cell(kio.NQErrs) != 0 || cell(kio.NQDrops) != 0:
			return fmt.Sprintf("deposited %d, errs %d, drops %d; want 2 frames deposited once",
				cell(kio.NQHead), cell(kio.NQErrs), cell(kio.NQDrops))
		case slot(k, q, 0) != string(first) || slot(k, q, 1) != string(second):
			return fmt.Sprintf("the queue holds %q, %q", slot(k, q, 0), slot(k, q, 1))
		case k.Net.RxPending() != 0:
			return fmt.Sprintf("the ring tail is %d behind its head", k.Net.RxPending())
		case k.M.Peek(res, 4) != 1 || k.M.Peek(buf, 1) != 'Q':
			return fmt.Sprintf("the tty read returned %d, %q", int32(k.M.Peek(res, 4)), byte(k.M.Peek(buf, 1)))
		}
		return ""
	})
}

// TestSockRecvWindowEnumerated checks by enumeration that the socket
// receive may test its slot's flag unmasked. A reader drains a full
// queue of eight datagrams and reads a ninth, which arrives while it
// drains. At every instruction boundary of the receive (both entries'
// fast path, the copy, the retire, and the empty queue's masked re-test
// up to its park), each on a fresh machine, either the ninth frame's
// interrupt is posted or the quantum expires, and the frame is then
// posted once the reader has been switched out. Every run must:
//   - receive each deposited datagram exactly once, in order;
//   - deposit or count as dropped every datagram, dropping one only
//     while the queue was still full;
//   - leave the ready ring whole (Kernel.CheckReadyRing).
//
// Checked to fail, in a scratch copy, with the flag cleared after the
// tail advances (the deposit refills the slot and the late clear wipes
// its flag, so the reader parks on it for good) and with the park
// path's masked re-test dropped (a deposit between the unmasked test
// and the mask wakes no one, and the reader parks with a datagram
// queued).
func TestSockRecvWindowEnumerated(t *testing.T) {
	const count, buf, log = 0x9000, 0x9300, 0x9400
	const payload = 64
	const settle = 300_000 // cycles from the ninth frame's post to a verdict
	frame := func(seq byte) []byte {
		p := make([]byte, payload)
		for i := range p {
			p[i] = seq*31 + byte(i)
		}
		p[0], p[1], p[2], p[3] = 0, 0, 0, seq
		return synnet.EncodeFrame(synnet.Frame{Dst: 9, Src: 5, Sum: synnet.Checksum(p), Payload: p})
	}
	// run boots a fresh machine: a reader holding the socket, its queue
	// full, and a spinner. From the reader's first instruction on, the
	// quantum expires at cycle quantum (0: never, and the reader's own
	// quantum is off). The ninth frame is posted at cycle post, or with
	// post 0 and a quantum, once the reader has been switched out after
	// it; the machine then runs until every frame is received or
	// dropped, or for settle cycles. at, if not nil, gets the cycle of
	// every boundary the reader's receive runs before the post. It
	// returns the machine, the queue and the tail at the post.
	run := func(quantum, post uint64, at func(cycle uint64)) (*kernel.Kernel, uint32, uint32) {
		k, io := enumBoot()
		entry := k.C.Synthesize(nil, "reader", nil, func(e *synth.Emitter) {
			e.Label("loop")
			e.MoveL(m68k.Imm(buf), m68k.D(1))
			e.MoveL(m68k.Imm(payload), m68k.D(2))
			e.Trap(kernel.TrapRead + 0)
			e.MoveL(m68k.Abs(count), m68k.D(0))
			e.LslL(m68k.Imm(2), m68k.D(0))
			e.Lea(m68k.Abs(log), 0)
			e.MoveL(m68k.Abs(buf), m68k.Idx(0, 0, 0, 1)) // the sequence number
			e.AddL(m68k.Imm(1), m68k.Abs(count))
			e.Bra("loop")
		})
		reader := k.SpawnKernel("reader", entry)
		k.M.Poke(reader.TTE+kernel.TTEQuantum, 4, 0)
		k.SpawnKernel("spinner", k.C.Synthesize(nil, "spinner", nil, func(e *synth.Emitter) {
			e.Label("spin")
			e.Bra("spin")
		}))
		if io.OpenSocket(reader, 9, 5) != 0 {
			t.Fatal("socket fd")
		}
		q := io.NetSockets()[0].Queue
		vec := func(trap int) uint32 {
			return k.M.Peek(reader.TTE+kernel.TTEVec+uint32(m68k.VecTrapBase+trap)*4, 4)
		}
		// The receive is built first in the slot's region, the send
		// right after it.
		recvFrom, recvTo := vec(kernel.TrapRead), vec(kernel.TrapWrite)
		for i := range byte(kio.NQSlotCount) {
			k.Net.Deliver(frame(i))
		}
		k.Start(reader)
		if err := stepUntil(k, func() bool { return k.M.PC == entry }); err != nil {
			t.Fatal(err)
		}
		armQuantum(k, quantum)
		due := func() bool {
			if post != 0 {
				return k.M.Cycles >= post
			}
			return quantum != 0 && k.M.Cycles >= quantum && k.CurTTE() != reader.TTE
		}
		parked := func() bool { return k.M.Peek(count, 4) == kio.NQSlotCount && k.CurTTE() != reader.TTE }
		err := stepUntil(k, func() bool {
			if at != nil && k.CurTTE() == reader.TTE && k.M.PC >= recvFrom && k.M.PC < recvTo {
				at(k.M.Cycles)
			}
			return due() || post == 0 && quantum == 0 && parked()
		})
		if err != nil {
			t.Fatalf("quantum %d, post %d: %v", quantum, post, err)
		}
		if post == 0 && quantum == 0 {
			return k, q, 0
		}
		tail := k.M.Peek(q+kio.NQTail, 4)
		k.Net.Deliver(frame(kio.NQSlotCount))
		for limit := k.M.Cycles + settle; k.M.Cycles < limit && err == nil; {
			if k.M.Peek(count, 4)+k.M.Peek(q+kio.NQDrops, 4) == kio.NQSlotCount+1 {
				break
			}
			err = k.M.Step()
		}
		if err != nil {
			t.Fatalf("quantum %d, post %d: %v", quantum, post, err)
		}
		return k, q, tail
	}

	// The window: every boundary of the reader's eight receives and of
	// the ninth up to its park.
	var points []uint64
	k, q, _ := run(0, 0, func(c uint64) { points = append(points, c) })
	if n := k.M.Peek(count, 4); n != kio.NQSlotCount || len(points) == 0 {
		t.Fatalf("the reader received %d of %d queued frames and ran %d receive boundaries", n, kio.NQSlotCount, len(points))
	}
	if k.M.Peek(q+kio.NQDrops, 4) != 0 {
		t.Fatal("the queue did not hold all eight frames before the reader ran")
	}
	check := func(k *kernel.Kernel, q, tail uint32) string {
		cell := func(off uint32) uint32 { return k.M.Peek(q+off, 4) }
		n := k.M.Peek(count, 4)
		for i := range n {
			if got := k.M.Peek(log+4*i, 4); got != i {
				return fmt.Sprintf("receive %d got datagram %d", i, got)
			}
		}
		switch {
		case n != cell(kio.NQHead):
			return fmt.Sprintf("%d datagrams deposited, %d received", cell(kio.NQHead), n)
		case cell(kio.NQHead)+cell(kio.NQDrops) != kio.NQSlotCount+1 || cell(kio.NQErrs) != 0:
			return fmt.Sprintf("deposited %d, dropped %d, errs %d; want every datagram deposited or dropped", cell(kio.NQHead), cell(kio.NQDrops), cell(kio.NQErrs))
		case tail != 0 && cell(kio.NQDrops) != 0:
			return "the ninth datagram was dropped with a slot free"
		}
		if err := k.CheckReadyRing(); err != nil {
			return err.Error()
		}
		return ""
	}
	t.Run("net_intr", func(t *testing.T) {
		enumerate(t, points, func(at uint64) string { return check(run(0, at, nil)) })
	})
	t.Run("quantum", func(t *testing.T) {
		enumerate(t, points, func(at uint64) string { return check(run(at, 0, nil)) })
	})
}

// TestQuantumInSwitchEnumerated checks by enumeration that a quantum
// expiring inside the switch path does not outlive it. A thread yields
// to a counting thread; the quantum is made to expire at every cycle
// from the yield's trap to the counter's first instruction, each on a
// fresh machine. Most of that path runs masked, so the expiry is held
// back, and the counter's sw_in re-arms the quantum before its RTE
// drops the mask. Every run must let the counter run a full quantum,
// as many loop turns as in the run with no expiry, before it is first
// preempted, and leave the ready ring whole.
//
// It fails when re-arming the quantum leaves an expiry already posted:
// the counter is then preempted before its first turn, and with every
// thread on a short quantum the whole machine livelocks on it, as
// queue_contention's N = 8 runs on 25 and 28 µs quanta did.
func TestQuantumInSwitchEnumerated(t *testing.T) {
	const count = 0x9000
	// run boots a fresh machine, steps it to the yielder's mark, arms
	// the quantum to expire at cycle q (0: never) and steps until the
	// counter is first preempted. It returns the counter's turns by
	// then, the cycles of the yielder's and the counter's marks (0: the
	// counter never ran), and the machine.
	run := func(q uint64) (turns uint32, from, to uint64, k *kernel.Kernel) {
		k, _ = enumBoot()
		var counter *kernel.Thread
		preempted := false
		k.Prof.OnIRQ = func(level, _ int, _, _ uint64) {
			if level == m68k.IRQTimer && k.CurTTE() == counter.TTE {
				preempted = true
			}
		}
		yielder := k.C.Synthesize(nil, "yielder", nil, func(e *synth.Emitter) {
			e.Kcall(kernel.SvcMark)
			e.MoveL(m68k.Imm(kernel.SysYield), m68k.D(0))
			e.Trap(kernel.TrapSys)
			e.Label("spin")
			e.Bra("spin")
		})
		prog := k.C.Synthesize(nil, "counter", nil, func(e *synth.Emitter) {
			e.Kcall(kernel.SvcMark)
			e.Label("loop")
			e.AddL(m68k.Imm(1), m68k.Abs(count))
			e.Bra("loop")
		})
		// Linked after the idle thread in turn, so the ring runs idle,
		// yielder, counter: the yield switches straight to the counter.
		counter = k.SpawnKernel("counter", prog)
		first := k.SpawnKernel("yielder", yielder)
		k.Start(first)
		if err := stepUntil(k, func() bool { return len(k.M.Marks) == 1 }); err != nil || len(k.M.Marks) != 1 {
			t.Fatalf("the yielder never ran: %v", err)
		}
		armQuantum(k, q)
		if err := stepUntil(k, func() bool { return preempted }); err != nil || !preempted {
			t.Fatalf("quantum at cycle %d: the counter was never preempted: %v", q, err)
		}
		if len(k.M.Marks) == 2 {
			to = k.M.Marks[1].Cycles
		}
		return k.M.Peek(count, 4), k.M.Marks[0].Cycles, to, k
	}
	full, from, to, _ := run(0)
	if full == 0 || to == 0 {
		t.Fatal("with no expiry in the switch the counter never turned")
	}
	enumerate(t, cycles(from, to), func(q uint64) string {
		turns, _, _, k := run(q)
		if turns != full {
			return fmt.Sprintf("the counter ran %d turns before its first preemption, want %d", turns, full)
		}
		if err := k.CheckReadyRing(); err != nil {
			return err.Error()
		}
		return ""
	})
}
