package m68k_test

import (
	"errors"
	"fmt"
	"testing"

	"synthesis/internal/asmkit"
	"synthesis/internal/m68k"
)

func TestDiskWriteCommand(t *testing.T) {
	m := newM(t)
	disk := m68k.NewDisk(m, 8)
	m.Attach(disk)
	m.PokeBytes(0x7000, []byte("write me to block 5"))

	h := asmkit.New()
	h.MoveL(m68k.Imm(1), m68k.D(5))
	h.Rte()
	m.Poke(m.VBR+uint32(m68k.VecAutovector+m68k.IRQDisk)*4, 4, h.Link(m))

	b := asmkit.New()
	b.MoveL(m68k.Imm(5), m68k.Abs(m68k.DiskBase+m68k.DiskRegBlock))
	b.MoveL(m68k.Imm(0x7000), m68k.Abs(m68k.DiskBase+m68k.DiskRegAddr))
	b.MoveL(m68k.Imm(2), m68k.Abs(m68k.DiskBase+m68k.DiskRegCmd)) // write
	b.AndSR(^uint16(7 << 8))
	b.Label("wait")
	b.TstL(m68k.D(5))
	b.Beq("wait")
	b.Halt()
	run(t, m, b.Link(m))
	if got := string(disk.Blocks[5][:19]); got != "write me to block 5" {
		t.Errorf("disk block 5 = %q", got)
	}
}

// TestDMAOutsideRAMIsRefused points every DMA engine past the end of a
// 1 MB machine's RAM. The NIC refuses a transmit whose frame is not
// wholly in RAM, however long the guest says it is, and drops a frame
// whose ring slot is not; the disk completes a transfer to or from an
// address outside RAM without moving a byte and counts it as a fault.
// None of them may take the host down.
func TestDMAOutsideRAMIsRefused(t *testing.T) {
	const out = 0x200000 // past the end of RAM
	m := newMSized(t, 1<<20)
	disk, nic := m68k.NewDisk(m, 4), m68k.NewNet(m)
	m.Attach(disk)
	m.Attach(nic)
	h := asmkit.New()
	h.AddL(m68k.Imm(1), m68k.D(5))
	h.Rte()
	m.Poke(m.VBR+uint32(m68k.VecAutovector+m68k.IRQDisk)*4, 4, h.Link(m))

	b := asmkit.New()
	for _, r := range [][2]int32{
		{int32(m68k.NetRegRxBase), out}, {int32(m68k.NetRegRxSlots), 4},
		{int32(m68k.NetRegSlotSz), 128}, {int32(m68k.NetRegCtl), 1},
	} {
		b.MoveL(m68k.Imm(r[1]), m68k.Abs(m68k.NetBase+uint32(r[0])))
	}
	// A frame staged outside RAM, one whose length runs it out of RAM,
	// and one in RAM that the ring outside RAM cannot take: D6 sums
	// their TxStat.
	for _, f := range [][2]int32{{out, 64}, {0x1000, -16}, {0x1000, 64}} {
		b.MoveL(m68k.Imm(f[0]), m68k.Abs(m68k.NetBase+m68k.NetRegTxAddr))
		b.MoveL(m68k.Imm(f[1]), m68k.Abs(m68k.NetBase+m68k.NetRegTxLen))
		b.AddL(m68k.Abs(m68k.NetBase+m68k.NetRegTxStat), m68k.D(6))
	}
	// A disk read into, then a write from, an address outside RAM.
	for cmd := int32(1); cmd <= 2; cmd++ {
		wait := fmt.Sprintf("wait%d", cmd)
		b.MoveL(m68k.Imm(1), m68k.Abs(m68k.DiskBase+m68k.DiskRegBlock))
		b.MoveL(m68k.Imm(out), m68k.Abs(m68k.DiskBase+m68k.DiskRegAddr))
		b.MoveL(m68k.Imm(cmd), m68k.Abs(m68k.DiskBase+m68k.DiskRegCmd))
		b.AndSR(^uint16(7 << 8))
		b.Label(wait)
		b.CmpL(m68k.Imm(cmd), m68k.D(5))
		b.Bne(wait)
		b.OrSR(7 << 8)
	}
	b.Halt()
	run(t, m, b.Link(m))

	if m.D[6] != 0 || nic.TxLaunched() != 3 || nic.Dropped() != 3 {
		t.Errorf("transmits: TxStat sum %d, %d launched, %d dropped; want 0, 3, 3", m.D[6], nic.TxLaunched(), nic.Dropped())
	}
	if nic.InjectFrame(make([]byte, 64)) || nic.Dropped() != 4 || nic.RxPending() != 0 {
		t.Errorf("a frame for a ring slot outside RAM was taken (%d dropped, %d pending)", nic.Dropped(), nic.RxPending())
	}
	if m.D[5] != 2 || disk.Faults != 2 || disk.Blocks[1] != nil {
		t.Errorf("disk: %d transfers completed, %d faults, block 1 written: %v; want 2, 2, false", m.D[5], disk.Faults, disk.Blocks[1] != nil)
	}
}

func TestADDropCounting(t *testing.T) {
	m := newM(t)
	ad := m68k.NewAD(m)
	m.Attach(ad)
	// Start the sampler but never read the data register: every
	// sample after the first overwrites an unread one.
	b := asmkit.New()
	b.MoveL(m68k.Imm(1), m68k.Abs(m68k.ADBase+m68k.ADRegCtl))
	// Interrupts stay masked; just burn time for ~6 sample periods.
	b.MoveL(m68k.Imm(2000), m68k.D(0))
	b.Label("spin")
	b.Dbra(0, "spin")
	b.MoveL(m68k.Abs(m68k.ADBase+m68k.ADRegStatus), m68k.D(6))
	b.Halt()
	run(t, m, b.Link(m))
	if m.D[6] == 0 {
		t.Error("unconsumed samples were not counted as dropped")
	}
	if ad.Dropped != uint64(m.D[6]) {
		t.Errorf("host view %d != device register %d", ad.Dropped, m.D[6])
	}
}

func TestConsoleDevice(t *testing.T) {
	m := newM(t)
	cons := m68k.NewCons()
	m.Attach(cons)
	b := asmkit.New()
	for _, c := range []byte("ok") {
		b.MoveB(m68k.Imm(int32(c)), m68k.Abs(m68k.ConsBase))
	}
	b.Halt()
	run(t, m, b.Link(m))
	if cons.Output() != "ok" {
		t.Errorf("console output %q", cons.Output())
	}
}

func TestMoveFromToSR(t *testing.T) {
	m := newM(t)
	b := asmkit.New()
	b.MoveFromSR(m68k.D(0))
	b.OrSR(0x0700) // raise the mask
	b.MoveFromSR(m68k.D(1))
	b.MoveToSR(m68k.D(0)) // restore
	b.MoveFromSR(m68k.D(2))
	b.Halt()
	run(t, m, b.Link(m))
	if m.D[1]&0x0700 != 0x0700 {
		t.Errorf("mask not raised: SR copy %#x", m.D[1])
	}
	if m.D[2] != m.D[0] {
		t.Errorf("SR not restored: %#x vs %#x", m.D[2], m.D[0])
	}
}

// TestPrivilegedOpsTrapInUserMode: each of the seven privileged
// instructions, executed in user state, takes the privilege violation
// and does nothing else — the handler is entered once, in supervisor
// state with the user's CCR and interrupt mask, over the frame
// Exception pushed, and neither the instruction's target nor any other
// register has moved. (An instruction that vectors and then still runs
// lets user code rewrite the quaspace bound with MOVEC, and its RTE
// pops the frame the trap just pushed, so the handler never runs.) In
// supervisor state the same instruction does its work and takes no
// exception.
func TestPrivilegedOpsTrapInUserMode(t *testing.T) {
	const (
		usp, ssp = 0x4000, 0x8000
		sr       = 0x0300 | m68k.FlagX | m68k.FlagC // IPL 3, two CCR bits
		newSR    = m68k.FlagS | 0x0500 | m68k.FlagZ
	)
	ops := []struct {
		in m68k.Instr
		// did reports the instruction's own effect, given the SR before.
		did func(m *m68k.Machine, before uint16) bool
	}{
		{m68k.Instr{Op: m68k.MOVEC, Vec: m68k.CtrlULimit, Src: m68k.D(0)},
			func(m *m68k.Machine, _ uint16) bool { return m.ULimit == m.D[0] }},
		{m68k.Instr{Op: m68k.ORSR, Src: m68k.Imm(0x0700)},
			func(m *m68k.Machine, before uint16) bool { return m.SR == before|0x0700 }},
		{m68k.Instr{Op: m68k.ANDSR, Src: m68k.Imm(0xf8ff)},
			func(m *m68k.Machine, before uint16) bool { return m.SR == before&0xf8ff }},
		{m68k.Instr{Op: m68k.MOVETSR, Src: m68k.D(1)},
			func(m *m68k.Machine, _ uint16) bool { return m.SR == newSR }},
		{m68k.Instr{Op: m68k.MOVEFSR, Dst: m68k.D(2)},
			func(m *m68k.Machine, before uint16) bool { return m.D[2] == uint32(before) }},
		{m68k.Instr{Op: m68k.RTE},
			func(m *m68k.Machine, _ uint16) bool { return m.SR == newSR && m.A[7] == ssp }},
		{m68k.Instr{Op: m68k.STOP, Src: m68k.Imm(int32(newSR))},
			func(m *m68k.Machine, _ uint16) bool { return m.Stopped() && m.SR == newSR }},
	}
	for _, op := range ops {
		for _, user := range []bool{true, false} {
			m := newM(t)
			handler := m.Emit([]m68k.Instr{
				{Op: m68k.ADD, Src: m68k.Imm(1), Dst: m68k.D(6)},
				{Op: m68k.HALT},
			})
			m.Poke(m.VBR+uint32(m68k.VecPrivilege)*4, 4, handler)
			entry := m.Emit([]m68k.Instr{op.in, {Op: m68k.HALT}, {Op: m68k.HALT}})
			m.D[0], m.D[1], m.D[2] = 0x1234, uint32(newSR), 0xdead_beef
			// A frame RTE can return through sits under the supervisor
			// stack pointer either way; only supervisor RTE may pop it.
			m.Poke(ssp-8, 4, uint32(newSR))
			m.Poke(ssp-4, 4, entry+2)
			m.SSP, m.USP = ssp-8, usp
			m.SR, m.A[7] = sr|m68k.FlagS, ssp-8
			if user {
				m.SR, m.A[7] = sr, usp
			}
			before := *m
			m.PC = entry
			if err := m.Step(); err != nil {
				t.Fatalf("%v user=%v: %v", op.in, user, err)
			}
			if !user {
				if m.PC == handler || !op.did(m, before.SR) {
					t.Errorf("%v in supervisor state: PC %d SR %04x, the instruction did not execute", op.in, m.PC, m.SR)
				}
				continue
			}
			if m.PC != handler {
				t.Errorf("%v in user state: PC = %d after one step, want the privilege handler at %d", op.in, m.PC, handler)
				continue
			}
			if want := sr | m68k.FlagS; m.SR != want {
				t.Errorf("%v: handler entered with SR %04x, want %04x (S | the user's CCR, IPL unchanged)", op.in, m.SR, want)
			}
			if m.A[7] != ssp-16 || m.Peek(ssp-16, 4) != uint32(sr) || m.Peek(ssp-12, 4) != entry+1 {
				t.Errorf("%v: at handler entry A7=%#x frame SR=%04x PC=%d, want A7=%#x SR=%04x PC=%d",
					op.in, m.A[7], m.Peek(ssp-16, 4), m.Peek(ssp-12, 4), ssp-16, sr, entry+1)
			}
			a := m.A
			a[7] = before.A[7]
			if m.D != before.D || a != before.A || m.USP != usp || m.ULimit != before.ULimit || m.Stopped() {
				t.Errorf("%v in user state executed after trapping: D=%x A=%x USP=%#x ULimit=%#x stopped=%v",
					op.in, m.D, m.A, m.USP, m.ULimit, m.Stopped())
			}
			if err := m.Run(1000); !errors.Is(err, m68k.ErrHalted) || m.D[6] != 1 {
				t.Errorf("%v: run = %v with the handler entered %d times, want one entry then HALT", op.in, err, m.D[6])
			}
		}
	}
}

func TestCASWordAndByteSizes(t *testing.T) {
	m := newM(t)
	m.Poke(0x3000, 2, 0x1234)
	b := asmkit.New()
	b.MoveL(m68k.Imm(0x1234), m68k.D(0))
	b.MoveL(m68k.Imm(0x5678), m68k.D(1))
	b.Cas(2, 0, 1, m68k.Abs(0x3000))
	b.Beq("ok")
	b.MoveL(m68k.Imm(1), m68k.D(7))
	b.Halt()
	b.Label("ok")
	b.Halt()
	run(t, m, b.Link(m))
	if m.D[7] != 0 {
		t.Fatal("word cas failed")
	}
	if got := m.Peek(0x3000, 2); got != 0x5678 {
		t.Errorf("word cas stored %#x", got)
	}
}

func TestTimerNowRegisters(t *testing.T) {
	m := newM(t)
	m.Attach(m68k.NewTimer(m))
	b := asmkit.New()
	b.MoveL(m68k.Abs(m68k.TimerBase+m68k.TimerRegNowLo), m68k.D(0))
	b.MoveL(m68k.Imm(100), m68k.D(2))
	b.Label("spin")
	b.Dbra(2, "spin")
	b.MoveL(m68k.Abs(m68k.TimerBase+m68k.TimerRegNowLo), m68k.D(1))
	b.Halt()
	run(t, m, b.Link(m))
	if m.D[1] <= m.D[0] {
		t.Errorf("cycle counter did not advance: %d -> %d", m.D[0], m.D[1])
	}
}

// TestQuantumWriteWithdrawsPendingQuantum: both timer channels expire
// behind the mask, then the quantum is written again before the mask
// drops. The expired quantum must not be taken, nor stay in the cause
// bits; the alarm, at its own level, must be.
func TestQuantumWriteWithdrawsPendingQuantum(t *testing.T) {
	m := newM(t)
	m.Attach(m68k.NewTimer(m))
	handler := func(d uint8) uint32 {
		h := asmkit.New()
		h.AddL(m68k.Imm(1), m68k.D(d))
		h.Rte()
		return h.Link(m)
	}
	m.Poke(m.VBR+uint32(m68k.VecAutovector+m68k.IRQTimer)*4, 4, handler(5))
	m.Poke(m.VBR+uint32(m68k.VecAutovector+m68k.IRQAlarm)*4, 4, handler(4))

	b := asmkit.New()
	b.OrSR(7 << 8)
	b.MoveL(m68k.Imm(200), m68k.Abs(m68k.TimerBase+m68k.TimerRegQuantum))
	b.MoveL(m68k.Imm(200), m68k.Abs(m68k.TimerBase+m68k.TimerRegAlarm))
	b.MoveL(m68k.Imm(100), m68k.D(0))
	b.Label("spin") // both channels expire here, held back by the mask
	b.Dbra(0, "spin")
	b.MoveL(m68k.Imm(0), m68k.Abs(m68k.TimerBase+m68k.TimerRegQuantum))
	b.MoveL(m68k.Abs(m68k.TimerBase+m68k.TimerRegAck), m68k.D(6))
	b.AndSR(^uint16(7 << 8))
	b.Nop()
	b.Nop()
	b.Halt()
	run(t, m, b.Link(m))
	if m.D[5] != 0 {
		t.Errorf("the withdrawn quantum was taken %d times", m.D[5])
	}
	if m.D[4] != 1 {
		t.Errorf("the alarm was taken %d times, want 1", m.D[4])
	}
	if m.D[6] != m68k.TimerCauseAlarm {
		t.Errorf("cause bits %#x after the quantum write, want the alarm's alone (%#x)", m.D[6], m68k.TimerCauseAlarm)
	}
}

func TestRunUntilStopsAtTarget(t *testing.T) {
	m := newM(t)
	b := asmkit.New()
	b.MoveL(m68k.Imm(1), m68k.D(0))
	b.Label("target")
	b.MoveL(m68k.Imm(2), m68k.D(0))
	b.Halt()
	base := b.Link(m)
	m.PC = base
	if err := m.RunUntil(b.AddrOf("target", base), 1000); err != nil {
		t.Fatal(err)
	}
	if m.D[0] != 1 {
		t.Errorf("RunUntil overshot: D0 = %d", m.D[0])
	}
	if m.PC != b.AddrOf("target", base) {
		t.Errorf("PC = %d", m.PC)
	}
}

func TestCycleLimit(t *testing.T) {
	m := newM(t)
	b := asmkit.New()
	b.Label("forever")
	b.Bra("forever")
	m.PC = b.Link(m)
	if err := m.Run(500); !errors.Is(err, m68k.ErrCycleLimit) {
		t.Errorf("got %v, want ErrCycleLimit", err)
	}
}

func TestDisassembleOutput(t *testing.T) {
	m := newM(t)
	b := asmkit.New()
	b.MoveL(m68k.Imm(5), m68k.D(0))
	b.Cas(4, 0, 1, m68k.Abs(0x3000))
	b.MovemSave(0x7fff, m68k.PreDec(7))
	b.Trap(3)
	b.Halt()
	addr := b.Link(m)
	s := m68k.Disassemble(m.Code, addr, 5)
	for _, want := range []string{"move.l #5,d0", "cas", "movem", "trap #3", "halt"} {
		if !containsStr(s, want) {
			t.Errorf("disassembly missing %q:\n%s", want, s)
		}
	}
}

func containsStr(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
