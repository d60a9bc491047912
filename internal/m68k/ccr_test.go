package m68k_test

import (
	"errors"
	"testing"
	"testing/quick"

	"synthesis/internal/asmkit"
	"synthesis/internal/m68k"
)

// Property test: the machine's condition codes after ADD, SUB and CMP
// at every operand size match first-principles 64-bit arithmetic for
// every flag the kernel code branches on (Z, C, N, and the signed
// less-than predicate that combines N and V). The reference switch and
// the dispatcher's closures share one set of flag helpers, so this
// model — which shares nothing with them — is their independent
// oracle. The probe captures flags with LEA-based accumulation, which
// touches no condition codes.

// ccrProbe runs `move.l #a,d0; op.sz #b,d0` and returns (d0, flags)
// where flags bit0=Z, bit1=C, bit2=N, bit3=LT.
func ccrProbe(t *testing.T, op m68k.Op, sz uint8, a, b uint32) (uint32, uint32) {
	t.Helper()
	m := m68k.New(m68k.Config{MemSize: 1 << 14})
	stub := m.Emit([]m68k.Instr{{Op: m68k.HALT}})
	m.VBR = 0x100
	for v := 0; v < m68k.NumVectors; v++ {
		m.Poke(m.VBR+uint32(v)*4, 4, stub)
	}
	m.A[7] = 0x2000
	m.SSP = 0x2000

	bld := asmkit.New()
	bld.MoveL(m68k.Imm(int32(a)), m68k.D(0))
	bld.I(m68k.Instr{Op: op, Sz: sz, Src: m68k.Imm(int32(b)), Dst: m68k.D(0)})
	bld.Lea(m68k.Abs(0), 6) // flag accumulator, no CCR effect
	bld.Beq("z1")
	bld.Bra("z2")
	bld.Label("z1")
	bld.Lea(m68k.Disp(1, 6), 6)
	bld.Label("z2")
	bld.Bcs("c1")
	bld.Bra("c2")
	bld.Label("c1")
	bld.Lea(m68k.Disp(2, 6), 6)
	bld.Label("c2")
	bld.Bmi("n1")
	bld.Bra("n2")
	bld.Label("n1")
	bld.Lea(m68k.Disp(4, 6), 6)
	bld.Label("n2")
	bld.Blt("l1")
	bld.Bra("l2")
	bld.Label("l1")
	bld.Lea(m68k.Disp(8, 6), 6)
	bld.Label("l2")
	bld.Halt()
	m.PC = bld.Link(m)
	if err := m.Run(10000); !errors.Is(err, m68k.ErrHalted) {
		t.Fatalf("probe run: %v", err)
	}
	return m.D[0], m.A[6]
}

// model computes the expected d0 and flags from 64-bit math on the
// low sz bytes of a and b: carry is the bit that left the operand
// width, overflow is the true signed result not fitting it.
func model(op m68k.Op, sz uint8, a, b uint32) (uint32, uint32) {
	bits := uint(sz) * 8
	mask := uint64(1)<<bits - 1
	sext := func(v uint64) int64 { return int64(v<<(64-bits)) >> (64 - bits) }
	ua, ub := uint64(a)&mask, uint64(b)&mask
	var wide uint64
	var signed int64
	switch op {
	case m68k.ADD:
		wide, signed = ua+ub, sext(ua)+sext(ub)
	case m68k.SUB, m68k.CMP:
		wide, signed = ua-ub, sext(ua)-sext(ub)
	}
	r := wide & mask
	var f uint32
	if r == 0 {
		f |= 1
	}
	if wide>>bits != 0 { // carry out of, or borrow into, the operand width
		f |= 2
	}
	if sext(r) < 0 {
		f |= 4
	}
	if overflow := signed != sext(r); (sext(r) < 0) != overflow { // LT = N xor V
		f |= 8
	}
	if op == m68k.CMP {
		return a, f // CMP does not store
	}
	return a&^uint32(mask) | uint32(r), f
}

func TestCCRMatchesModel(t *testing.T) {
	ops := []m68k.Op{m68k.ADD, m68k.SUB, m68k.CMP}
	sizes := []uint8{1, 2, 4}
	agree := func(op m68k.Op, sz uint8, a, b uint32) bool {
		gotR, gotF := ccrProbe(t, op, sz, a, b)
		wantR, wantF := model(op, sz, a, b)
		if gotR != wantR || gotF != wantF {
			t.Errorf("%v.%d a=%#x b=%#x: got r=%#x f=%04b, want r=%#x f=%04b",
				op, sz, a, b, gotR, gotF, wantR, wantF)
			return false
		}
		return true
	}
	check := func(a, b uint32, sel uint8) bool {
		return agree(ops[int(sel)%len(ops)], sizes[int(sel)/len(ops)%len(sizes)], a, b)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 1200}); err != nil {
		t.Fatal(err)
	}
	// Directed edge cases quick.Check may miss: the sign and wrap
	// boundaries of each width, under upper bits that must not matter.
	edges := []struct{ a, b uint32 }{
		{0, 0}, {0xffffffff, 1}, {0x7fffffff, 1}, {0x80000000, 1},
		{0x80000000, 0x80000000}, {1, 0xffffffff}, {0, 0x80000000},
		{0x1234567f, 1}, {0x12345680, 1}, {0x123456ff, 1}, {0x12345600, 0xffffff01},
		{0x12347fff, 1}, {0x12348000, 1}, {0x1234ffff, 1}, {0x12340000, 0xffff0001},
		{0x12345680, 0xabcdef80}, {0x12348000, 0xabcd8000},
	}
	for _, e := range edges {
		for _, op := range ops {
			for _, sz := range sizes {
				agree(op, sz, e.a, e.b)
			}
		}
	}
}
