package m68k

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
)

// TestMemoryGrowsOnDemand holds Mem to the memory a guest reaches: a
// machine starts with initialMem of it, grows with the highest address
// reached, reads the rest as zeros, and faults at the end of RAM as it
// always did. The operations that write whole blocks of RAM at once
// leave the same state whether their destination crosses the end of the
// memory reached or not.
func TestMemoryGrowsOnDemand(t *testing.T) {
	m := New(Config{})
	if n := len(m.Mem); n > initialMem {
		t.Fatalf("a fresh 4 MB machine holds %d bytes of Mem, want at most %d", n, initialMem)
	}

	// Peeks read zeros past the memory reached and reach nothing.
	m.Mem[initialMem-2], m.Mem[initialMem-1] = 0xab, 0xcd
	if v := m.Peek(initialMem-2, 4); v != 0xabcd_0000 {
		t.Errorf("Peek across the end of Mem = %#x, want 0xabcd0000", v)
	}
	if v := m.Peek(0x30_0000, 4); v != 0 {
		t.Errorf("Peek of unreached memory = %#x, want 0", v)
	}
	if b := m.PeekBytes(initialMem-1, 3); !bytes.Equal(b, []byte{0xcd, 0, 0}) {
		t.Errorf("PeekBytes across the end of Mem = %x, want cd0000", b)
	}
	if n := len(m.Mem); n != initialMem {
		t.Errorf("peeks grew Mem to %d bytes", n)
	}

	// The end of RAM faults without growing anything.
	end := m.MemSize()
	var bf *BusFault
	if _, err := m.Load(end, 1); !errors.As(err, &bf) || bf.Addr != end || bf.Write {
		t.Errorf("load at MemSize: %v, want a read bus fault at %#x", err, end)
	}
	if err := m.Store(end-2, 4, 0); !errors.As(err, &bf) || bf.Addr != end-2 || !bf.Write {
		t.Errorf("store across MemSize: %v, want a write bus fault at %#x", err, end-2)
	}
	if n := len(m.Mem); n != initialMem {
		t.Errorf("faulting accesses grew Mem to %d bytes", n)
	}

	// A guest store at the top of RAM reads back, and reaches all of it.
	m.PC = m.Emit([]Instr{
		{Op: MOVE, Sz: 4, Src: Imm(0x5eed_f00d), Dst: Abs(end - 4)},
		{Op: MOVE, Sz: 4, Src: Abs(end - 4), Dst: D(1)},
		{Op: HALT},
	})
	if err := m.Run(1 << 20); err != ErrHalted {
		t.Fatalf("the top-of-RAM program ended with %v", err)
	}
	if m.D[1] != 0x5eed_f00d || len(m.Mem) != int(end) {
		t.Errorf("top of RAM read back %#x with %d bytes of Mem, want 0x5eedf00d and %d", m.D[1], len(m.Mem), end)
	}

	// The order addresses are reached in does not change what is held:
	// 9/8 of the highest end reached, capped at RAM.
	reach := func(size uint32, addrs ...uint32) int {
		m := New(Config{MemSize: size})
		for _, a := range addrs {
			if err := m.Store(a, 4, 1); err != nil {
				t.Fatal(err)
			}
		}
		return len(m.Mem)
	}
	if a, b := reach(3<<20, 0x3_0000, 0x1a_0000), reach(3<<20, 0x1a_0000, 0x3_0000); a != 0x1d_4004 || b != a {
		t.Errorf("reaching 0x30000 and 0x1a0000 held %d and %d bytes by order, want %d", a, b, 0x1d_4004)
	}
	if n := reach(0x2f_0000, 0x2e_fffc); n != 0x2f_0000 {
		t.Errorf("reaching the top of a %d-byte machine held %d bytes", 0x2f_0000, n)
	}

	for _, c := range growCases {
		growSame(t, c)
	}
}

// growCase is a program whose block writes cross the end of the memory
// a fresh machine holds; setup loads it and returns its entry, and check,
// if set, describes what is wrong with the run on a fresh machine under
// Run, or returns "".
type growCase struct {
	name  string
	setup func(m *Machine) uint32
	check func(m *Machine) string
}

var growCases = []growCase{
	// Four passes of kio.block_copy's eight-group loop into
	// [0xfe80, 0x10280): the first runs cold, the second's head meets
	// the end of Mem and runs its own body, the last two collapse.
	{"collapsed copy pass", func(m *Machine) uint32 {
		for a := uint32(0x8000); a < 0x8400; a += 4 {
			m.Poke(a, 4, a*0x9e37_79b1)
		}
		m.A[0], m.A[1] = 0x8000, initialMem-0x180
		head := m.CodeTop + 1
		return m.Emit(append(append([]Instr{{Op: MOVE, Src: Imm(3), Dst: D(0)}},
			clPass(clMovem, head, 8, 0, 1, 0, 2)...), Instr{Op: HALT}))
	}, func(m *Machine) string {
		if m.CollapsedPasses != 2 || m.CollapseFallbacks != 2 {
			return fmt.Sprintf("%d passes collapsed and %d fell back, want 2 and 2", m.CollapsedPasses, m.CollapseFallbacks)
		}
		return ""
	}},
	// A context MOVEM stored across the end of Mem, and one loaded from
	// memory never reached.
	{"MOVEM block", func(m *Machine) uint32 {
		for i := range m.D {
			m.D[i], m.A[i] = 0x1111_1111*uint32(i+1), 0x0101_0101*uint32(i+1)
		}
		m.A[1], m.A[2] = initialMem-32, 2*initialMem-24
		return m.Emit([]Instr{
			{Op: MOVEM, Mask: MovemContextRegs, Dst: Ind(1)},
			{Op: MOVEM, Mask: MovemContextRegs, Dir: 1, Src: Ind(2)},
			{Op: HALT},
		})
	}, nil},
	// A loopback frame DMA'd into a ring slot across the end of Mem.
	{"loopback NIC DMA", func(m *Machine) uint32 {
		m.Attach(NewNet(m))
		for a := uint32(0x8000); a < 0x8040; a += 4 {
			m.Poke(a, 4, a*0x9e37_79b1)
		}
		var p []Instr
		for _, r := range [][2]uint32{
			{NetRegRxBase, initialMem - 16}, {NetRegRxSlots, 1}, {NetRegSlotSz, 128},
			{NetRegCtl, 1}, {NetRegTxAddr, 0x8000}, {NetRegTxLen, 0x40},
		} {
			p = append(p, Instr{Op: MOVE, Sz: 4, Src: Imm(int32(r[1])), Dst: Abs(NetBase + r[0])})
		}
		return m.Emit(append(p,
			Instr{Op: MOVE, Sz: 4, Src: Abs(NetBase + NetRegTxStat), Dst: D(1)},
			Instr{Op: HALT}))
	}, func(m *Machine) string {
		if m.D[1] != 1 {
			return "the ring refused the frame"
		}
		return ""
	}},
}

// growSame runs c from a fresh machine under Step, from a fresh one
// under Run and from one that already holds all of RAM under Run, and
// fails unless all three end alike and the two fresh ones hold the same
// memory.
func growSame(t *testing.T, c growCase) {
	t.Helper()
	var ms [3]*Machine
	for i := range ms {
		m := New(Config{MemSize: 1 << 20})
		if i == 2 {
			m.Poke(m.MemSize()-4, 4, 0)
		}
		m.SR, m.A[7] = FlagS|iplMask, 0x4000
		m.PC = c.setup(m)
		drive := clLoops[0].drive // Run
		if i == 0 {
			drive = clLoops[1].drive // Step
		}
		if err := drive(m); err != ErrHalted {
			t.Fatalf("%s: the program ended with %v", c.name, err)
		}
		ms[i] = m
	}
	ref := ms[0]
	for i, m := range ms[1:] {
		if m.D != ref.D || m.A != ref.A || m.PC != ref.PC || m.SR != ref.SR ||
			m.Cycles != ref.Cycles || m.Instrs != ref.Instrs || m.MemRefs != ref.MemRefs {
			t.Errorf("%s: run %d differs from Step: D=%x A=%x PC=%d SR=%04x counters %d/%d/%d, want D=%x A=%x PC=%d SR=%04x counters %d/%d/%d",
				c.name, i+1, m.D, m.A, m.PC, m.SR, m.Cycles, m.Instrs, m.MemRefs,
				ref.D, ref.A, ref.PC, ref.SR, ref.Cycles, ref.Instrs, ref.MemRefs)
		}
		if !bytes.Equal(m.PeekBytes(0, 4*initialMem), ref.PeekBytes(0, 4*initialMem)) {
			t.Errorf("%s: run %d leaves other memory than Step", c.name, i+1)
		}
	}
	if len(ms[1].Mem) != len(ref.Mem) || len(ref.Mem) <= initialMem {
		t.Errorf("%s: Run and Step hold %d and %d bytes, want the same, past %d", c.name, len(ms[1].Mem), len(ref.Mem), initialMem)
	}
	if c.check != nil {
		if msg := c.check(ms[1]); msg != "" {
			t.Errorf("%s: %s", c.name, msg)
		}
	}
}

// mapDev is a bare device window at base, size bytes long.
type mapDev struct{ base, size uint32 }

func (d mapDev) Name() string                { return "map" }
func (d mapDev) Base() uint32                { return d.base }
func (d mapDev) Size() uint32                { return d.size }
func (d mapDev) Load(uint32, uint8) uint32   { return 0 }
func (d mapDev) Store(uint32, uint8, uint32) {}
func (d mapDev) Tick(uint64) (int, uint64)   { return 0, 0 }

// TestAddressMap holds the one address map the RAM checks rely on: RAM
// up to MemSize, at most IOBase, and device windows from IOBase up, so
// what lies between is no memory at all and an access there bus-faults
// through exec and through the dispatcher's RAM helpers alike.
func TestAddressMap(t *testing.T) {
	panics := func(f func()) (p bool) {
		defer func() { p = recover() != nil }()
		f()
		return false
	}
	if !panics(func() { New(Config{MemSize: IOBase + 4}) }) {
		t.Error("New accepted RAM that runs into the I/O window")
	}
	if panics(func() { New(Config{MemSize: IOBase}) }) {
		t.Error("New refused RAM that ends at the I/O window")
	}
	m := New(Config{})
	if !panics(func() { m.Attach(mapDev{IOBase - 0x100, 0x100}) }) {
		t.Error("Attach accepted a window below IOBase")
	}
	if panics(func() { m.Attach(mapDev{0xffff_ff00, 0}) }) { // the fault injector's
		t.Error("Attach refused a zero-size window above IOBase")
	}

	for _, addr := range []uint32{m.MemSize(), m.MemSize() + 0x1000, IOBase - 4} {
		if m.ram(addr, 1) || m.ramBlock(addr, 4) {
			t.Errorf("%#x passes the RAM check", addr)
		}
		if below, above := m.ramRoom(addr); below != 0 || above != 0 {
			t.Errorf("%#x has %d bytes of RAM below it and %d above", addr, below, above)
		}
		for _, in := range []Instr{
			{Op: MOVE, Sz: 4, Src: Abs(addr), Dst: D(0)},
			{Op: MOVE, Sz: 1, Src: Abs(addr), Dst: D(0)},
			{Op: MOVE, Sz: 4, Src: D(0), Dst: Abs(addr)},
			{Op: MOVE, Sz: 2, Src: D(0), Dst: Abs(addr)},
		} {
			pc := m.Emit([]Instr{in})
			var e xent
			m.translate(pc, &e)
			for how, run := range map[string]func() error{
				"exec":       func() error { return m.exec(&m.Code[pc]) },
				"dispatcher": func() error { return e.run(m) },
			} {
				var bf *BusFault
				write := in.Dst.Mode == ModeAbs
				if err := run(); !errors.As(err, &bf) || bf.Addr != addr || bf.Write != write {
					t.Errorf("%v through %s: %v, want a bus fault at %#x (write %v)", in, how, err, addr, write)
				}
			}
		}
	}
	if n := len(m.Mem); n != initialMem {
		t.Errorf("the faulting accesses grew Mem to %d bytes", n)
	}
}
