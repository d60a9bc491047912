package kio_test

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"synthesis/internal/kernel"
	"synthesis/internal/kio"
	"synthesis/internal/m68k"
	synnet "synthesis/internal/net"
	"synthesis/internal/synth"
)

// emitSock opens a socket: local port D1, remote port D2, fd in D0.
func emitSock(e *synth.Emitter, local, remote int32) {
	e.MoveL(m68k.Imm(kernel.SysSock), m68k.D(0))
	e.MoveL(m68k.Imm(local), m68k.D(1))
	e.MoveL(m68k.Imm(remote), m68k.D(2))
	e.Trap(kernel.TrapSys)
}

func TestSocketLoopbackSameThread(t *testing.T) {
	k, io := boot(t)
	const res, wbuf, rbuf = 0x9000, 0x9300, 0x9700
	k.M.PokeBytes(wbuf, []byte("ping!"))
	prog := k.C.Synthesize(nil, "main", nil, func(e *synth.Emitter) {
		emitSock(e, 5, 9) // fd 0
		e.MoveL(m68k.D(0), m68k.Abs(res))
		emitSock(e, 9, 5) // fd 1
		e.MoveL(m68k.D(0), m68k.Abs(res+4))
		// A duplicate local port must fail.
		emitSock(e, 5, 77)
		e.MoveL(m68k.D(0), m68k.Abs(res+8))
		// Send on fd 0: the loopback NIC DMAs the frame back and the
		// receive interrupt deposits it into fd 1's queue before the
		// send trap returns.
		e.MoveL(m68k.Imm(wbuf), m68k.D(1))
		e.MoveL(m68k.Imm(5), m68k.D(2))
		e.Trap(kernel.TrapWrite + 0)
		e.MoveL(m68k.D(0), m68k.Abs(res+12))
		// Receive on fd 1.
		e.MoveL(m68k.Imm(rbuf), m68k.D(1))
		e.MoveL(m68k.Imm(64), m68k.D(2))
		e.Trap(kernel.TrapRead + 1)
		e.MoveL(m68k.D(0), m68k.Abs(res+16))
		exitSeq(e)
	})
	th := k.SpawnKernel("main", prog)
	run(t, k, th, 20_000_000)
	if got := int32(k.M.Peek(res, 4)); got != 0 {
		t.Errorf("first socket fd = %d, want 0", got)
	}
	if got := int32(k.M.Peek(res+4, 4)); got != 1 {
		t.Errorf("second socket fd = %d, want 1", got)
	}
	if got := int32(k.M.Peek(res+8, 4)); got != -1 {
		t.Errorf("duplicate port open = %d, want -1", got)
	}
	if got := k.M.Peek(res+12, 4); got != 5 {
		t.Errorf("send = %d, want 5", got)
	}
	if got := k.M.Peek(res+16, 4); got != 5 {
		t.Errorf("recv = %d, want 5", got)
	}
	if got := string(k.M.PeekBytes(rbuf, 5)); got != "ping!" {
		t.Errorf("payload %q, want \"ping!\"", got)
	}
	if io.NetStackDrops() != 0 {
		t.Errorf("stack drops = %d", io.NetStackDrops())
	}
}

func TestSocketBlockingRecvAcrossThreads(t *testing.T) {
	k, io := boot(t)
	const res, wbuf, rbuf = 0x9000, 0x9300, 0x9700
	k.M.PokeBytes(wbuf, []byte("wake"))

	// The reader runs first and parks on its empty socket; the sender
	// then transmits and the receive interrupt's wakeup unblocks it.
	reader := k.C.Synthesize(nil, "reader", nil, func(e *synth.Emitter) {
		e.MoveL(m68k.Imm(rbuf), m68k.D(1))
		e.MoveL(m68k.Imm(64), m68k.D(2))
		e.Trap(kernel.TrapRead + 0)
		e.MoveL(m68k.D(0), m68k.Abs(res))
		exitSeq(e)
	})
	sender := k.C.Synthesize(nil, "sender", nil, func(e *synth.Emitter) {
		e.MoveL(m68k.Imm(wbuf), m68k.D(1))
		e.MoveL(m68k.Imm(4), m68k.D(2))
		e.Trap(kernel.TrapWrite + 0)
		e.MoveL(m68k.D(0), m68k.Abs(res+4))
		exitSeq(e)
	})
	tr := k.SpawnKernel("reader", reader)
	ts := k.SpawnKernel("sender", sender)
	if io.OpenSocket(tr, 9, 5) != 0 {
		t.Fatal("reader socket fd")
	}
	if io.OpenSocket(ts, 5, 9) != 0 {
		t.Fatal("sender socket fd")
	}
	run(t, k, tr, 50_000_000)
	if got := k.M.Peek(res, 4); got != 4 {
		t.Errorf("blocked recv = %d, want 4", got)
	}
	if got := string(k.M.PeekBytes(rbuf, 4)); got != "wake" {
		t.Errorf("payload %q, want \"wake\"", got)
	}
	if got := k.M.Peek(res+4, 4); got != 4 {
		t.Errorf("send = %d, want 4", got)
	}
}

func TestSocketUnboundPortCountsStackDrop(t *testing.T) {
	k, io := boot(t)
	const wbuf = 0x9300
	prog := k.C.Synthesize(nil, "main", nil, func(e *synth.Emitter) {
		emitSock(e, 3, 4242) // nobody listens on 4242
		e.MoveL(m68k.Imm(wbuf), m68k.D(1))
		e.MoveL(m68k.Imm(8), m68k.D(2))
		e.Trap(kernel.TrapWrite + 0)
		exitSeq(e)
	})
	th := k.SpawnKernel("main", prog)
	run(t, k, th, 20_000_000)
	if got := io.NetStackDrops(); got != 1 {
		t.Errorf("stack drops = %d, want 1", got)
	}
}

func TestSocketCloseRemovesDemux(t *testing.T) {
	k, io := boot(t)
	const res, wbuf = 0x9000, 0x9300
	prog := k.C.Synthesize(nil, "main", nil, func(e *synth.Emitter) {
		emitSock(e, 5, 9) // fd 0
		emitSock(e, 9, 5) // fd 1
		// Close the receiver; its port must vanish from the handler.
		e.MoveL(m68k.Imm(kernel.SysClose), m68k.D(0))
		e.MoveL(m68k.Imm(1), m68k.D(1))
		e.Trap(kernel.TrapSys)
		e.MoveL(m68k.D(0), m68k.Abs(res))
		e.MoveL(m68k.Imm(wbuf), m68k.D(1))
		e.MoveL(m68k.Imm(4), m68k.D(2))
		e.Trap(kernel.TrapWrite + 0)
		exitSeq(e)
	})
	th := k.SpawnKernel("main", prog)
	run(t, k, th, 20_000_000)
	if got := int32(k.M.Peek(res, 4)); got != 0 {
		t.Errorf("close = %d, want 0", got)
	}
	if got := io.NetStackDrops(); got != 1 {
		t.Errorf("frame for closed port: stack drops = %d, want 1", got)
	}
	if n := len(io.NetSockets()); n != 1 {
		t.Errorf("open sockets = %d, want 1", n)
	}
}

// TestDemuxMatchesSocketTable checks the receive demux against the
// socket table it encodes. Sixteen threads hold a port each; a seeded
// sequence of 200 steps opens or closes one thread's socket, and after
// every step one frame goes to each of the sixteen ports and one to a
// port nobody has held. Each frame must add one to the gauge of the
// entry the table says owns its port, or count one stack drop when no
// open entry does, and move nothing else. The sequence runs two ways:
// on the demux cells as built at install, and with the storm throttle
// engaged halfway, whose in-place rebuild must write every cell from
// the table again.
//
// Checked to fail, in a scratch copy, with close leaving its cell's
// compare in place (a closed port's frame is deposited), and with the
// rebuild leaving the cells as the template lays them out instead of
// writing them from the table (after the throttle every frame for an
// open port is a stack drop).
func TestDemuxMatchesSocketTable(t *testing.T) {
	const port, stray, steps = 200, 999, 200
	for _, mode := range []struct {
		name           string
		throttleAtStep int
	}{
		{"synthesized", -1},
		{"throttled halfway", steps / 2},
	} {
		t.Run(mode.name, func(t *testing.T) {
			k, io := boot(t)
			th := make([]*kernel.Thread, kio.MaxSockets)
			for i := range th {
				th[i] = k.SpawnKernelStopped(fmt.Sprintf("t%d", i), 0)
			}
			k.Start(k.SpawnKernel("spin", k.C.Synthesize(nil, "spin", nil, func(e *synth.Emitter) {
				e.Label("spin")
				e.Bra("spin")
			})))
			// deliver injects one frame for each port and steps until the
			// ring is drained and the handler has returned, posting the
			// interrupt again for the throttle's batching.
			deliver := func(ports ...uint32) {
				t.Helper()
				for _, p := range ports {
					payload := []byte{byte(p), byte(p >> 8)}
					k.Net.Deliver(synnet.EncodeFrame(synnet.Frame{Dst: p, Src: stray, Sum: synnet.Checksum(payload), Payload: payload}))
				}
				err := stepUntil(k, func() bool {
					if k.M.IPL() != 0 {
						return false
					}
					k.M.PostInterrupt(m68k.IRQNet)
					return k.Net.RxPending() == 0
				})
				if err != nil || k.Net.RxPending() != 0 {
					t.Fatalf("the ring did not drain: %v", err)
				}
			}
			held := make([]bool, kio.MaxSockets)
			ports := make([]uint32, kio.MaxSockets)
			for i := range ports {
				ports[i] = port + uint32(i)
			}
			rng := rand.New(rand.NewSource(7))
			for step := range steps {
				if step == mode.throttleAtStep {
					io.SetNetMode(true)
				}
				i := rng.Intn(kio.MaxSockets)
				if held[i] {
					io.Close(th[i], 0)
				} else if io.OpenSocket(th[i], ports[i], stray) != 0 {
					t.Fatalf("step %d: %s could not open port %d", step, th[i].Name, ports[i])
				}
				held[i] = !held[i]

				socks := io.NetSockets()
				gauge := func(s kio.Socket) uint32 { return k.M.Peek(s.Queue+kio.NQHead, 4) }
				before := make([]uint32, len(socks))
				for j, s := range socks {
					if !held[s.Port-port] {
						t.Fatalf("step %d: port %d is in the table but closed", step, s.Port)
					}
					before[j] = gauge(s)
				}
				drops := io.NetStackDrops()
				deliver(ports...)
				deliver(stray)
				for j, s := range socks {
					if got := gauge(s) - before[j]; got != 1 {
						t.Fatalf("step %d: port %d took %d of its one frame", step, s.Port, got)
					}
					// The host reads the frame: the queue never fills.
					k.M.Poke(s.Queue+kio.NQTail, 4, k.M.Peek(s.Queue+kio.NQHead, 4))
				}
				if got, want := io.NetStackDrops()-drops, uint32(kio.MaxSockets-len(socks)+1); got != want {
					t.Fatalf("step %d: %d stack drops for %d frames nobody owns", step, got, want)
				}
			}
		})
	}
}

func TestSocketQueueOverflowDrops(t *testing.T) {
	k, io := boot(t)
	const res, wbuf = 0x9000, 0x9300
	// Fire more frames than the receiver's queue holds while nobody
	// reads: the deposit path must drop the excess, not corrupt.
	prog := k.C.Synthesize(nil, "main", nil, func(e *synth.Emitter) {
		emitSock(e, 5, 9) // fd 0
		emitSock(e, 9, 5) // fd 1, never read
		e.MoveL(m68k.Imm(int32(kio.NQSlotCount)+4), m68k.D(5))
		e.Label("flood")
		e.MoveL(m68k.Imm(wbuf), m68k.D(1))
		e.MoveL(m68k.Imm(16), m68k.D(2))
		e.Trap(kernel.TrapWrite + 0)
		e.SubL(m68k.Imm(1), m68k.D(5))
		e.Bne("flood")
		e.MoveL(m68k.D(0), m68k.Abs(res))
		exitSeq(e)
	})
	th := k.SpawnKernel("main", prog)
	run(t, k, th, 50_000_000)
	s := io.NetSockets()[1]
	if got := k.M.Peek(s.Queue+kio.NQDrops, 4); got != 4 {
		t.Errorf("queue drops = %d, want 4", got)
	}
	if got := k.M.Peek(s.Queue+kio.NQHead, 4); got != kio.NQSlotCount {
		t.Errorf("frames deposited = %d, want %d", got, kio.NQSlotCount)
	}
}

// TestReopenSendsToTheNewRemote: a socket's staging frame carries its
// ports as data the open writes, not as stores in the send. A port
// reopened with another remote must send there: port 5 sends to 9,
// closes, reopens towards 7 and sends again, and 9 must get the first
// datagram alone and 7 the second.
func TestReopenSendsToTheNewRemote(t *testing.T) {
	k, io := boot(t)
	const wbuf = 0x9300
	k.M.PokeBytes(wbuf, []byte("to 9to 7"))
	send := func(e *synth.Emitter, off int32) {
		e.MoveL(m68k.Imm(wbuf+off), m68k.D(1))
		e.MoveL(m68k.Imm(4), m68k.D(2))
		e.Trap(kernel.TrapWrite + 2)
	}
	prog := k.C.Synthesize(nil, "main", nil, func(e *synth.Emitter) {
		send(e, 0)
		e.MoveL(m68k.Imm(kernel.SysClose), m68k.D(0))
		e.MoveL(m68k.Imm(2), m68k.D(1))
		e.Trap(kernel.TrapSys)
		emitSock(e, 5, 7) // fd 2 again
		send(e, 4)
		exitSeq(e)
	})
	th := k.SpawnKernel("main", prog)
	if io.OpenSocket(th, 9, 5) != 0 || io.OpenSocket(th, 7, 5) != 1 || io.OpenSocket(th, 5, 9) != 2 {
		t.Fatal("socket fds")
	}
	// The receivers' queues, which outlive the exit's closes.
	socks := io.NetSockets()
	run(t, k, th, 20_000_000)
	for i, want := range []string{"to 9", "to 7"} {
		q := socks[i].Queue
		slot := q + kio.NQSlots
		if head := k.M.Peek(q+kio.NQHead, 4); head != 1 {
			t.Errorf("port %d received %d datagrams, want 1", socks[i].Port, head)
		} else if got := string(k.M.PeekBytes(slot+4, int(k.M.Peek(slot, 4)))); got != want {
			t.Errorf("port %d received %q, want %q", socks[i].Port, got, want)
		}
	}
}

// TestSendChecksumEveryTailShape: the synthesized send sums the
// payload in the pass that copies it into the staging frame. At every
// shape of the copy — no group, one to seven leftover longs, a byte
// tail of one to three, whole groups, the MTU — the header sum must be
// the wire checksum and the frame must reach the loopback receiver
// intact. The stage from its sum long on and the bytes past the payload
// are poisoned, so a tail long left unzeroed or a long too many shows;
// the stage's port longs are the open's, written once. Checked to fail
// with the zero-padded tail long not added, and with the group pass
// count off by one.
func TestSendChecksumEveryTailShape(t *testing.T) {
	const res, wbuf, rbuf = 0x9000, 0x9300, 0x9700
	for _, n := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 31, 32, 33, 63, 64, 65, 239, 240} {
		k, io := boot(t)
		payload := make([]byte, n)
		for i := range payload {
			payload[i] = byte(0xa5 ^ i*7)
		}
		k.M.PokeBytes(wbuf, bytes.Repeat([]byte{0xff}, 2*synnet.MTU))
		k.M.PokeBytes(wbuf, payload)
		prog := k.C.Synthesize(nil, "main", nil, func(e *synth.Emitter) {
			e.MoveL(m68k.Imm(wbuf), m68k.D(1))
			e.MoveL(m68k.Imm(int32(n)), m68k.D(2))
			e.Trap(kernel.TrapWrite + 0)
			e.MoveL(m68k.D(0), m68k.Abs(res))
			e.MoveL(m68k.Imm(rbuf), m68k.D(1))
			e.MoveL(m68k.Imm(synnet.MTU), m68k.D(2))
			e.Trap(kernel.TrapRead + 1)
			e.MoveL(m68k.D(0), m68k.Abs(res+4))
			exitSeq(e)
		})
		th := k.SpawnKernel("main", prog)
		if io.OpenSocket(th, 5, 9) != 0 || io.OpenSocket(th, 9, 5) != 1 {
			t.Fatal("socket fds")
		}
		// A socket's staging frame follows its queue in its block.
		socks := io.NetSockets()
		stage := socks[0].Queue + kio.NQSlots + kio.NQSlotCount*kio.NQSlotBytes
		k.M.PokeBytes(stage+8, bytes.Repeat([]byte{0xff}, synnet.FrameMax-4))
		k.Start(th)
		err := k.Run(20_000_000)
		if got, want := k.M.Peek(stage+8, 4), synnet.Checksum(payload); got != want {
			t.Errorf("%d bytes: header sum %#x, want %#x", n, got, want)
		}
		if errs := k.M.Peek(socks[1].Queue+kio.NQErrs, 4); errs != 0 {
			t.Errorf("%d bytes: NQErrs = %d, want 0", n, errs)
		}
		if err != nil {
			t.Fatalf("%d bytes: run: %v", n, err)
		}
		if sent, got := k.M.Peek(res, 4), k.M.Peek(res+4, 4); sent != uint32(n) || got != uint32(n) {
			t.Errorf("%d bytes: sent %d, received %d", n, sent, got)
		}
		if got := k.M.PeekBytes(rbuf, n); !bytes.Equal(got, payload) {
			t.Errorf("%d bytes: received % x, want % x", n, got, payload)
		}
	}
}

// TestRuntFrameDropped: the NIC drops a frame shorter than the wire
// header. Delivered, a runt left the receive handler a payload length
// below zero and the ring slot's stale header: after a ring's worth of
// frames to an open port, a 4-byte runt (that port, and nothing else)
// sent the checksum verify summing ~2^30 longs until the machine
// halted on a bus error, with no drop counted anywhere.
func TestRuntFrameDropped(t *testing.T) {
	if m68k.NetMinFrame != synnet.HeaderBytes {
		t.Fatalf("m68k.NetMinFrame = %d, want net.HeaderBytes = %d", m68k.NetMinFrame, synnet.HeaderBytes)
	}
	k, io := boot(t)
	const res, rbuf = 0x9000, 0x9700
	reader := k.C.Synthesize(nil, "reader", nil, func(e *synth.Emitter) {
		e.Label("loop")
		e.MoveL(m68k.Imm(rbuf), m68k.D(1))
		e.MoveL(m68k.Imm(synnet.MTU), m68k.D(2))
		e.Trap(kernel.TrapRead + 0)
		e.AddL(m68k.Imm(1), m68k.Abs(res))
		e.Bra("loop")
	})
	th := k.SpawnKernel("reader", reader)
	if io.OpenSocket(th, 9, 5) != 0 {
		t.Fatal("reader socket fd")
	}
	k.Start(th)
	payload := []byte("a valid frame to port 9")
	frame := synnet.EncodeFrame(synnet.Frame{Dst: 9, Src: 5, Sum: synnet.Checksum(payload), Payload: payload})
	deliver := func(f []byte) {
		t.Helper()
		k.Net.Deliver(f)
		if err := k.Run(4_000_000); !errors.Is(err, m68k.ErrCycleLimit) || k.M.Halted() {
			t.Fatalf("after a %d-byte frame: run %v, halted %v, pc %#x", len(f), err, k.M.Halted(), k.M.PC)
		}
	}
	for i := 0; i < kio.NetRingSlots; i++ {
		deliver(frame)
	}
	drops := k.Net.Dropped()
	deliver(frame[:4])
	if got := k.Net.Dropped(); got != drops+1 {
		t.Errorf("runt: NIC drops %d -> %d, want one more", drops, got)
	}
	deliver(frame)
	if got := k.M.Peek(res, 4); got != kio.NetRingSlots+1 {
		t.Errorf("frames received = %d, want %d", got, kio.NetRingSlots+1)
	}
}

// TestDepositChecksumEveryTailShape is the receive twin of
// TestSendChecksumEveryTailShape: the receive interrupt copies a frame
// into the head slot of its socket's queue and sums it in the same
// pass, and publishes the slot only when the sum matches the header's.
// At every shape of the copy each payload must land intact and
// published. The same frame with one bit flipped — in the first long,
// in the tail long beside the pad, in the last group — must be counted
// in NQErrs, publish nothing, leave NQHead where it was, and leave its
// slot to the next good frame. Checked to fail with the pad long not
// summed, with the flag published before the compare, and with the
// head advanced on a mismatch.
func TestDepositChecksumEveryTailShape(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 31, 32, 33, 63, 64, 65, 239, 240} {
		k := kernel.Boot(kernel.Config{Machine: m68k.Config{MemSize: 1 << 20}})
		io := kio.Install(k)
		spin := k.C.Synthesize(nil, "spin", nil, func(e *synth.Emitter) {
			e.Label("spin")
			e.Bra("spin")
		})
		th := k.SpawnKernel("spin", spin)
		if io.OpenSocket(th, 9, 5) != 0 {
			t.Fatal("socket fd")
		}
		k.Start(th)
		q := io.NetSockets()[0].Queue
		cell := func(off uint32) uint32 { return k.M.Peek(q+off, 4) }
		frame := func(seed byte) ([]byte, []byte) {
			p := make([]byte, n)
			for i := range p {
				p[i] = seed ^ byte(i*7)
			}
			return p, synnet.EncodeFrame(synnet.Frame{Dst: 9, Src: 5, Sum: synnet.Checksum(p), Payload: p})
		}
		deliver := func(f []byte) {
			t.Helper()
			k.Net.Deliver(f)
			if err := k.Run(k.M.Cycles + 20_000); !errors.Is(err, m68k.ErrCycleLimit) {
				t.Fatalf("%d bytes: run: %v", n, err)
			}
		}
		// good delivers a frame that must land published in the head
		// slot.
		good := func(seed byte) {
			t.Helper()
			p, f := frame(seed)
			head := cell(kio.NQHead)
			deliver(f)
			slot := q + kio.NQSlots + head%kio.NQSlotCount*kio.NQSlotBytes
			switch {
			case cell(kio.NQHead) != head+1:
				t.Fatalf("%d bytes: NQHead %d -> %d, want +1", n, head, cell(kio.NQHead))
			case k.M.Peek(q+kio.NQFlags+head%kio.NQSlotCount, 1) != 1:
				t.Fatalf("%d bytes: slot %d not published", n, head%kio.NQSlotCount)
			case k.M.Peek(slot, 4) != uint32(n) || !bytes.Equal(k.M.PeekBytes(slot+4, n), p):
				t.Fatalf("%d bytes: slot holds %d bytes % x, want % x", n, k.M.Peek(slot, 4), k.M.PeekBytes(slot+4, n), p)
			}
		}
		// Bits to flip, numbered from the frame's first byte: the
		// payload follows the header's [dst][src][sum].
		flips := []int{8*8 + 1} // no payload: the header's sum
		if n > 0 {
			flips = []int{8 * synnet.HeaderBytes, 8*(synnet.HeaderBytes+n-1) + 3}
			if n >= 32 {
				flips = append(flips, 8*(synnet.HeaderBytes+n/32*32-13)+5)
			}
		}
		good(0x5a)
		for i, bit := range flips {
			_, f := frame(byte(0x11 * i))
			f[bit/8] ^= 1 << (bit % 8)
			head, errs := cell(kio.NQHead), cell(kio.NQErrs)
			deliver(f)
			switch {
			case cell(kio.NQErrs) != errs+1:
				t.Fatalf("%d bytes, bit %d flipped: NQErrs %d -> %d, want +1", n, bit, errs, cell(kio.NQErrs))
			case cell(kio.NQHead) != head:
				t.Fatalf("%d bytes, bit %d flipped: NQHead %d -> %d, want unchanged", n, bit, head, cell(kio.NQHead))
			case k.M.Peek(q+kio.NQFlags+head%kio.NQSlotCount, 1) != 0:
				t.Fatalf("%d bytes, bit %d flipped: slot %d published", n, bit, head%kio.NQSlotCount)
			}
			good(byte(0x33 + i))
		}
		if d := cell(kio.NQDrops); d != 0 || k.Net.RxPending() != 0 {
			t.Fatalf("%d bytes: NQDrops %d, %d frames left in the ring", n, d, k.Net.RxPending())
		}
	}
}
