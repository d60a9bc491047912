package kio_test

import (
	"testing"

	"synthesis/internal/fault"
	"synthesis/internal/kernel"
	"synthesis/internal/kio"
	"synthesis/internal/m68k"
	"synthesis/internal/synth"
)

// TestFaultSoak is the acceptance soak: a seeded schedule of frame
// loss, wire corruption, spurious interrupts and one bus error, all
// at once. The kernel must keep serving loopback traffic — the
// faulting thread is reaped, not the machine; every acknowledged
// datagram arrives intact; corrupt frames are counted and discarded.
// The schedule is fully determined by soakSeed, so a failure replays.
func TestFaultSoak(t *testing.T) {
	const (
		soakSeed = 7
		frames   = 64
		addrQ    = 0x9000 // receive socket's packet-queue base
		addrRetx = 0x9004 // retransmission counter
		addrBad  = 0x9008 // payload-integrity mismatch counter
		wbuf     = 0x9300
		rbuf     = 0x9700
	)
	k, io := boot(t)
	inj := fault.New(fault.Plan{
		Wire: fault.Wire{Drop: 0.15, Corrupt: 0.10},
		// Level 7 is the one autovector no driver claims, so these
		// land in the kernel's spurious counter.
		Spurious: []fault.Spurious{{Level: 7, MeanGap: 20_000}},
		BusErrs:  []fault.BusErr{{Dev: "disk", Nth: 1}},
	}, soakSeed)
	inj.Attach(k.M)

	// The sender runs stop-and-wait ARQ over the lossy loopback wire:
	// each datagram carries its index, a send whose deposit gauge does
	// not move was eaten by the wire and is retransmitted, and every
	// received payload is checked against the index it must carry.
	sender := k.C.Synthesize(nil, "soak", nil, func(e *synth.Emitter) {
		emitSock(e, 5, 9) // fd 0: send
		emitSock(e, 9, 5) // fd 1: receive
		e.MoveL(m68k.Abs(kernel.GCurTTE), m68k.A(0))
		e.MoveL(m68k.Disp(int32(kernel.TTEFDBase+kernel.FDSlotSize+kernel.FDAux), 0), m68k.Abs(addrQ))
		e.Clr(4, m68k.Abs(addrRetx))
		e.Clr(4, m68k.Abs(addrBad))
		e.MoveL(m68k.Imm(0), m68k.D(5))
		e.Label("loop")
		e.MoveL(m68k.Abs(addrQ), m68k.A(2))
		e.MoveL(m68k.Disp(kio.NQHead, 2), m68k.D(4))
		e.Label("try")
		e.MoveL(m68k.D(5), m68k.Abs(wbuf)) // stamp the payload
		e.MoveL(m68k.Imm(wbuf), m68k.D(1))
		e.MoveL(m68k.Imm(16), m68k.D(2))
		e.Trap(kernel.TrapWrite + 0)
		e.MoveL(m68k.Abs(addrQ), m68k.A(2))
		e.MoveL(m68k.Disp(kio.NQHead, 2), m68k.D(0))
		e.Cmp(4, m68k.D(4), m68k.D(0))
		e.Bne("arrived")
		e.AddL(m68k.Imm(1), m68k.Abs(addrRetx))
		e.Bra("try")
		e.Label("arrived")
		e.MoveL(m68k.Imm(rbuf), m68k.D(1))
		e.MoveL(m68k.Imm(64), m68k.D(2))
		e.Trap(kernel.TrapRead + 1)
		e.MoveL(m68k.Abs(rbuf), m68k.D(0))
		e.Cmp(4, m68k.D(5), m68k.D(0))
		e.Beq("intact")
		e.AddL(m68k.Imm(1), m68k.Abs(addrBad))
		e.Label("intact")
		e.AddL(m68k.Imm(1), m68k.D(5))
		e.CmpL(m68k.Imm(frames), m68k.D(5))
		e.Bne("loop")
		exitSeq(e)
	})

	// The victim pokes the disk device window in a loop; the injector
	// bus-errors the first access, which must kill this thread only.
	victimProg := k.C.Synthesize(nil, "victim", nil, func(e *synth.Emitter) {
		e.Label("again")
		e.MoveL(m68k.Abs(m68k.DiskBase), m68k.D(0))
		e.Bra("again")
	})

	th := k.SpawnKernel("soak", sender)
	victim := k.SpawnKernel("victim", victimProg)
	run(t, k, th, 200_000_000)

	// The machine survived (run would have failed the test otherwise);
	// the victim did not.
	if onChain(k, victim.TTE) {
		t.Error("victim thread survived its bus error")
	}
	if len(k.Faults) != 1 || k.Faults[0].Name != "victim" {
		t.Errorf("fault records = %+v, want exactly one for the victim", k.Faults)
	}
	if inj.Stats.BusErrors != 1 {
		t.Errorf("BusErrors = %d, want 1", inj.Stats.BusErrors)
	}

	// The wire really was hostile, and everything acked arrived intact.
	if inj.Stats.Dropped == 0 || inj.Stats.Corrupted == 0 {
		t.Fatalf("the wire was too kind: %+v", inj.Stats)
	}
	if retx := k.M.Peek(addrRetx, 4); retx < uint32(inj.Stats.Dropped) {
		t.Errorf("retransmits = %d for %d wire losses", retx, inj.Stats.Dropped+inj.Stats.Corrupted)
	}
	if bad := k.M.Peek(addrBad, 4); bad != 0 {
		t.Errorf("%d acked datagrams arrived with the wrong payload", bad)
	}

	// Corrupt frames were each counted once and never deposited.
	recv := io.NetSockets()[1]
	if errs := uint64(k.M.Peek(recv.Queue+kio.NQErrs, 4)); errs != inj.Stats.Corrupted {
		t.Errorf("NQErrs = %d, injector corrupted %d", errs, inj.Stats.Corrupted)
	}
	head, tail := k.M.Peek(recv.Queue+kio.NQHead, 4), k.M.Peek(recv.Queue+kio.NQTail, 4)
	if head != frames {
		t.Errorf("frames deposited = %d, want %d (one per acked frame)", head, frames)
	}
	if head != tail {
		t.Errorf("receive queue not drained: head %d, tail %d", head, tail)
	}

	// The spurious rain was delivered and shrugged off.
	if k.SpuriousIRQs() == 0 {
		t.Error("no spurious interrupts recorded")
	}
}
