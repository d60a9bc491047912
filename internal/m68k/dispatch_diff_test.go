package m68k

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// TestDispatchMatchesExec differentially tests the threaded-code
// handlers against the reference switch interpreter: for thousands of
// randomly generated single instructions and machine states, running
// the compiled handler must leave the machine in exactly the state
// the reference exec leaves it in — registers, SR, PC, cycle and
// memory-reference counters, and memory.
func TestDispatchMatchesExec(t *testing.T) {
	rng := rand.New(rand.NewSource(1))

	ops := []Op{
		NOP, MOVE, LEA, CLR, ADD, SUB, MULU, DIVU, AND, OR, EOR,
		LSL, LSR, CMP, TST, BTST, TAS,
		BRA, BEQ, BNE, BLT, BLE, BGT, BGE, BHI, BLS, BCC, BCS, BMI, BPL,
		DBRA, JMP, JSR, RTS, MOVEM,
	}
	sizes := []uint8{0, 1, 2, 4}
	srcModes := []AddrMode{ModeNone, ModeImm, ModeDReg, ModeAReg, ModeInd,
		ModePostInc, ModePreDec, ModeDisp, ModeIdx, ModeAbs}

	randOperand := func(modes []AddrMode) Operand {
		o := Operand{Mode: modes[rng.Intn(len(modes))]}
		switch o.Mode {
		case ModeImm:
			o.Imm = int32(rng.Uint32())
		case ModeDReg, ModeAReg, ModeInd, ModePostInc, ModePreDec:
			o.Reg = uint8(rng.Intn(7)) // not A7: keep the stack usable
		case ModeDisp:
			o.Reg = uint8(rng.Intn(7))
			o.Imm = int32(rng.Intn(64)) - 32
		case ModeIdx:
			o.Reg = uint8(rng.Intn(7))
			o.Imm = int32(rng.Intn(32))
			o.Idx = uint8(rng.Intn(16))
			o.Scale = []uint8{0, 1, 2, 4}[rng.Intn(4)]
		case ModeAbs:
			o.Imm = int32(0x4000 + rng.Intn(0x800))
		}
		return o
	}

	// One pair of machines serves every case, reset in place to the
	// state two fresh ones would start in: fresh 64 KB machines per case
	// spent half the test clearing and collecting memory.
	ma, mb := New(Config{MemSize: 0x10000}), New(Config{MemSize: 0x10000})
	fresh := *ma
	resetPair := func() {
		for _, m := range []*Machine{ma, mb} {
			mem, code, xc := m.Mem, m.Code[:0], m.xcache[:0]
			*m = fresh
			m.Mem, m.Code, m.xcache = mem, code, xc
		}
		clear(ma.Mem)
		for i := range ma.D {
			ma.D[i] = rng.Uint32()
			// Address registers point into a safe middle of memory so
			// indirect modes mostly hit valid addresses (invalid ones
			// are fine too: both machines must fault identically).
			ma.A[i] = 0x4000 + rng.Uint32()%0x800
		}
		ma.A[7] = 0x8000
		for i := 0; i < 0x1000; i++ {
			ma.Poke(0x4000+uint32(i*4), 4, rng.Uint32())
		}
		mb.D, mb.A = ma.D, ma.A
		copy(mb.Mem, ma.Mem)
	}

	for iter := 0; iter < 20000; iter++ {
		in := Instr{
			Op:   ops[rng.Intn(len(ops))],
			Sz:   sizes[rng.Intn(len(sizes))],
			Src:  randOperand(srcModes),
			Dst:  randOperand(srcModes),
			Mask: uint16(rng.Uint32()),
			Dir:  uint8(rng.Intn(2)),
		}
		// Keep control transfers inside code space and avoid the
		// memory-indirect JMP/JSR form pulling a wild target: point
		// branch/jump destinations at slot 1 (a HALT).
		switch in.Op {
		case BRA, BEQ, BNE, BLT, BLE, BGT, BGE, BHI, BLS, BCC, BCS, BMI, BPL, DBRA:
			in.Dst = Abs(1)
		case JMP, JSR:
			in.Src = Operand{}
			in.Dst = Abs(1)
		case LEA:
			if !in.Src.Mode.IsMemory() {
				in.Src = Abs(0x4000)
			}
		}

		resetPair()
		// Randomize flags; sometimes set N/Z/V/C to exercise branches.
		sr := uint16(rng.Intn(32))
		ma.SR, mb.SR = sr, sr

		// ma executes through the reference switch, mb through a fresh
		// translation of the same instruction.
		prog := []Instr{in, {Op: HALT}}
		ea := ma.Emit(prog)
		eb := mb.Emit(prog)
		ma.PC, mb.PC = ea, eb

		// Reference: replicate the old step loop body (decode every
		// time, run exec).
		ia := &ma.Code[ma.PC]
		ma.PC++
		ma.Instrs++
		ma.Cycles += baseCost(ia)
		errA := ma.exec(ia)

		eb2 := &mb.xcache[mb.PC]
		mb.translate(mb.PC, eb2)
		mb.PC++
		mb.Instrs++
		mb.Cycles += eb2.cost
		errB := eb2.run(mb)

		if (errA == nil) != (errB == nil) {
			t.Fatalf("iter %d op %v %+v: err mismatch exec=%v dispatch=%v", iter, in.Op, in, errA, errB)
		}
		if errA != nil && errA.Error() != errB.Error() {
			t.Fatalf("iter %d op %v %+v: err mismatch exec=%v dispatch=%v", iter, in.Op, in, errA, errB)
		}
		if ma.D != mb.D || ma.A != mb.A {
			t.Fatalf("iter %d op %v %+v: register mismatch\nexec     D=%x A=%x\ndispatch D=%x A=%x",
				iter, in.Op, in, ma.D, ma.A, mb.D, mb.A)
		}
		if ma.SR != mb.SR {
			t.Fatalf("iter %d op %v %+v: SR mismatch exec=%04x dispatch=%04x", iter, in.Op, in, ma.SR, mb.SR)
		}
		if ma.PC-ea != mb.PC-eb {
			t.Fatalf("iter %d op %v %+v: PC mismatch exec=+%d dispatch=+%d", iter, in.Op, in, ma.PC-ea, mb.PC-eb)
		}
		if ma.Cycles != mb.Cycles || ma.MemRefs != mb.MemRefs {
			t.Fatalf("iter %d op %v %+v: accounting mismatch exec=(%d,%d) dispatch=(%d,%d)",
				iter, in.Op, in, ma.Cycles, ma.MemRefs, mb.Cycles, mb.MemRefs)
		}
		if bytes.Equal(ma.Mem, mb.Mem) {
			continue
		}
		// Name the first long that differs.
		for i := 0; ; i += 4 {
			if va, vb := ma.loadRaw(uint32(i), 4), mb.loadRaw(uint32(i), 4); va != vb {
				t.Fatalf("iter %d op %v %+v: mem mismatch at %#x exec=%08x dispatch=%08x",
					iter, in.Op, in, i, va, vb)
			}
		}
	}
}

// TestStackMatchesMove holds push and pop, the stack side of exec's JSR,
// RTS and RTE and of the dispatcher's stack and frame bodies when they
// leave plain RAM, to exec's MOVE.L D0,-(A7) and
// MOVE.L (A7)+,D0: the same A7 and D0, charge, memory-reference count,
// memory, device accesses and fault, with the slot in plain RAM, across
// the end of RAM, in a device window (with and without the injector
// faulting the access), and in user state inside and outside the
// quaspace. It fails with the quaspace check dropped from push or pop,
// with either one stepping A7 only after an access that succeeds, taking
// its open-coded RAM path across the end of RAM, or leaving that access
// uncharged.
func TestStackMatchesMove(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	ref, st := newDirSide(), newDirSide()
	image := make([]byte, dirMem)
	const (
		stPlain = iota
		stRAMEnd
		stDev
		stDevFault
		stUserIn
		stUserOut
		stCases
	)
	for n := 0; n < 2*stCases*64; n++ {
		pop, c := n%2 == 1, n/2%stCases
		rng.Read(image)
		s := &dirState{SR: FlagS | uint16(rng.Intn(32)), SSP: 0x400, USP: 0x800}
		for i := range s.D {
			s.D[i] = rng.Uint32()
		}
		slot := 0x400 + uint32(rng.Intn(0x800))
		switch c {
		case stRAMEnd:
			slot = dirMem - 1 - uint32(rng.Intn(3))
		case stDev, stDevFault:
			slot = dirDevBase + uint32(rng.Intn(dirDevSize))
			s.faultReads, s.faultWrites = c == stDevFault && pop, c == stDevFault && !pop
		case stUserIn, stUserOut:
			s.SR &^= FlagS
			s.UBase, s.ULimit = slot, slot+4
			if c == stUserOut {
				s.UBase, s.ULimit = slot+1, dirMem
			}
		}
		in := Instr{Op: MOVE, Src: D(0), Dst: PreDec(7)}
		s.A[7] = slot + 4
		if pop {
			in = Instr{Op: MOVE, Src: PostInc(7), Dst: D(0)}
			s.A[7] = slot
		}
		ref.reset(in, s, image)
		st.reset(in, s, image)
		errA := ref.m.exec(&ref.m.Code[2])
		var errB error
		if pop {
			var v uint32
			if v, errB = st.m.pop(); errB == nil {
				st.m.D[0] = v
			}
		} else {
			errB = st.m.push(st.m.D[0])
		}
		st.m.SR = ref.m.SR // N and Z are MOVE's own
		if d := dirCompare(ref, st, errA, errB); d != "" {
			t.Fatalf("pop %v, case %d, slot %#x, from %+v:\n%s", pop, c, slot, *s, d)
		}
	}
}

// The directed pass. The random pass above draws a long (An)+,(An)+
// move about three times in 20,000, keeps every address in plain RAM,
// attaches no device, sets no injector, leaves the quaspace bounds off
// and never runs a supervisor op, so it cannot see what the
// specialized memory operands and supervisor closures must get right.
// TestDispatchMatchesExecDirected walks the specialized shapes
// themselves, each over states built to reach every way out of the
// RAM fast path.

const (
	dirMem     = 0x1000 // RAM size: small, so a fresh image per state is cheap
	dirDevBase = IOBase // the device window
	dirDevSize = 0x0040
	dirVBR     = 0x0100
)

// recDev is a recording device: it logs every register access and
// counts Tick calls (one per Kick).
type recDev struct {
	log   []recAccess
	ticks int
}

type recAccess struct {
	off, val uint32
	sz       uint8
	write    bool
}

func (d *recDev) Name() string { return "rec" }
func (d *recDev) Base() uint32 { return dirDevBase }
func (d *recDev) Size() uint32 { return dirDevSize }
func (d *recDev) Load(off uint32, sz uint8) uint32 {
	v := 0x80a5_0000 | off<<8 | uint32(len(d.log))
	d.log = append(d.log, recAccess{off, v, sz, false})
	return v
}
func (d *recDev) Store(off uint32, sz uint8, val uint32) {
	d.log = append(d.log, recAccess{off, val, sz, true})
}
func (d *recDev) Tick(uint64) (int, uint64) { d.ticks++; return 0, 0 }

// dirFaulter bus-errors every device access in one direction.
type dirFaulter struct {
	write bool
	hits  int
}

func (f *dirFaulter) AccessFault(_ Device, _ uint32, write bool) bool {
	if write != f.write {
		return false
	}
	f.hits++
	return true
}
func (f *dirFaulter) Frame(frame []byte) ([][]byte, uint64) { return [][]byte{frame}, 0 }
func (f *dirFaulter) RingFull() bool                        { return false }
func (f *dirFaulter) TimerArm(c uint64) uint64              { return c }

// dirState is one start state, applied to both machines.
type dirState struct {
	D, A                    [8]uint32
	SR                      uint16
	USP, SSP, UBase, ULimit uint32
	faultReads, faultWrites bool
}

// dirSide is one of the two machines with its device and injector.
type dirSide struct {
	m   *Machine
	dev *recDev
	inj *dirFaulter
}

// newDirSide builds one side, with the recording device attached.
func newDirSide() *dirSide {
	s := &dirSide{m: New(Config{MemSize: dirMem}), dev: &recDev{}}
	s.m.Attach(s.dev)
	s.m.Emit([]Instr{{Op: HALT}, {Op: HALT}, {Op: NOP}}) // 0, 1: vector targets; 2: the instruction under test
	return s
}

func (s *dirSide) reset(in Instr, st *dirState, image []byte) {
	m := s.m
	m.SetCode(2, []Instr{in})
	m.D, m.A, m.SR = st.D, st.A, st.SR
	m.USP, m.SSP, m.VBR, m.UBase, m.ULimit, m.FPTrap = st.USP, st.SSP, dirVBR, st.UBase, st.ULimit, false
	m.Cycles, m.Instrs, m.MemRefs, m.stopped, m.halted = 0, 0, 0, false, false
	copy(m.Mem, image)
	s.dev.log, s.dev.ticks = s.dev.log[:0], 0
	s.inj, m.Inj = nil, nil
	if st.faultReads || st.faultWrites {
		s.inj = &dirFaulter{write: st.faultWrites}
		m.Inj = s.inj
	}
	m.PC = 3
}

// dirDiff runs in from st through exec on one machine and through a
// fresh translation on the other and describes the first difference.
func dirDiff(ref, xl *dirSide, in Instr, st *dirState, image []byte) string {
	ref.reset(in, st, image)
	xl.reset(in, st, image)
	ref.m.Cycles += baseCost(&in)
	errA := ref.m.exec(&ref.m.Code[2])
	var e xent
	xl.m.translate(2, &e)
	xl.m.Cycles += e.cost
	return dirCompare(ref, xl, errA, e.run(xl.m))
}

// dirCompare describes the first difference between two sides that ran
// one instruction each, or returns "".
func dirCompare(ref, xl *dirSide, errA, errB error) string {
	a, b := ref.m, xl.m
	switch {
	case (errA == nil) != (errB == nil) || errA != nil && errA.Error() != errB.Error():
		return fmt.Sprintf("error: exec %v, dispatch %v", errA, errB)
	case a.D != b.D || a.A != b.A:
		return fmt.Sprintf("registers: exec D=%x A=%x, dispatch D=%x A=%x", a.D, a.A, b.D, b.A)
	case a.SR != b.SR || a.PC != b.PC || a.USP != b.USP || a.SSP != b.SSP || a.stopped != b.stopped:
		return fmt.Sprintf("control state: exec SR=%04x PC=%d USP=%#x SSP=%#x stopped=%v, dispatch SR=%04x PC=%d USP=%#x SSP=%#x stopped=%v",
			a.SR, a.PC, a.USP, a.SSP, a.stopped, b.SR, b.PC, b.USP, b.SSP, b.stopped)
	case a.VBR != b.VBR || a.UBase != b.UBase || a.ULimit != b.ULimit || a.FPTrap != b.FPTrap:
		return fmt.Sprintf("control registers: exec VBR=%#x quaspace [%#x,%#x) FPTrap=%v, dispatch VBR=%#x quaspace [%#x,%#x) FPTrap=%v",
			a.VBR, a.UBase, a.ULimit, a.FPTrap, b.VBR, b.UBase, b.ULimit, b.FPTrap)
	case a.Cycles != b.Cycles || a.MemRefs != b.MemRefs:
		return fmt.Sprintf("accounting: exec %d cycles %d refs, dispatch %d cycles %d refs", a.Cycles, a.MemRefs, b.Cycles, b.MemRefs)
	case !bytes.Equal(a.Mem, b.Mem):
		return "memory images differ"
	case !slices.Equal(ref.dev.log, xl.dev.log) || ref.dev.ticks != xl.dev.ticks:
		return fmt.Sprintf("device: exec saw %+v and %d kicks, dispatch %+v and %d kicks", ref.dev.log, ref.dev.ticks, xl.dev.log, xl.dev.ticks)
	case ref.inj != nil && ref.inj.hits != xl.inj.hits:
		return fmt.Sprintf("injector: exec faulted %d accesses, dispatch %d", ref.inj.hits, xl.inj.hits)
	}
	return ""
}

// The ways a state is directed at a shape's memory operands.
const (
	dirPlain       = iota // both operands in plain RAM
	dirSrcRAMEnd          // source in the last 1-3 bytes of RAM
	dirDstRAMEnd          // destination there
	dirSrcDev             // source in the device window
	dirDstDev             // destination there
	dirBothDev            // both
	dirSrcDevFault        // source in the window, injector faults reads
	dirDstDevFault        // destination in the window, injector faults writes
	dirUserNoSrc          // user state, [UBase, ULimit) excludes the source only
	dirUserNoDst          // ... the destination only
	dirSameReg            // one register on both sides
	dirSrcA7              // the stack pointer as source
	dirDstA7              // ... as destination
	dirCases
)

// TestDispatchMatchesExecDirected holds every body to exec:
// MOVE/ADD/SUB/CMP/TST/CLR over every pair of memory modes
// (register-relative, indexed by a data or an address register at every
// scale, absolute) at every size; MOVE/ADD/SUB/CMP from each of those
// modes into a data register, MOVE/CMP into an address register;
// MOVE/ADD/SUB of a data register, address register or immediate to
// each, and of a data register or immediate into an address register;
// MOVE of an address register to either kind of register, ADD and SUB
// of one into a data register; ADD, SUB,
// CMP, AND, OR, EOR, LSL and LSR from a data register or immediate
// into a data register, TST and CLR of one; LEA and the cell of a
// memory-indirect JMP/JSR in each mode; JMP and JSR to a constant
// target, RTS and RTE, the stack slot directed like an operand; MOVE to
// and from SR through each register-relative mode; the six supervisor
// ops with closures in both processor states; JSR, RTS, RTE, TRAP, an
// interrupt, the SR moves and MOVEC over the stack states; and the MOVEM
// block forms. It compares registers, SR, PC, both stack pointers, the
// control registers, accounting, memory, the device's access log and
// Kick count, and the injector's tally.
//
// Mutation-checked against dispatch.go, exec.go and machine.go; with
// TestStackMatchesMove, each of these fails it. Every body with a memory
// operand: dropping its quaspace check (each of the 23 checks alone).
// Every body over a register-relative operand (the fused move, MOVE.L
// into Dn and into An, MOVE.L of Dn or #imm to one, CLR.L, TST.L,
// ADD/SUB.L into Dn, MOVE to and from SR): stepping the register only
// after an access that succeeds. Every body that stores: setting the
// flags before the store (the fused move; MOVE.L of Dn or #imm to
// either form and of An to memory; CLR.L and the byte and word CLR; the
// byte and word MOVE from a register and from memory; the ADD/SUB
// read-modify-write). The long loads into Dn and An from an absolute or
// indexed operand writing the register before looking at the error;
// the byte and word memory TST loading a long; MOVE memory to memory
// forming the destination address before the source load; the byte and
// word load into Dn merging the loaded value unmasked; MOVE.L Dn,Dn
// taking N/Z from the low word; MOVE.L #imm,Dn with N and Z swapped;
// MOVE.L An,Dn setting no N/Z; MOVEA of Dn or #imm setting N/Z; MOVEA
// An,An reading Dn; SUBA adding; the long absolute or indexed CMP into
// Dn with its operands swapped; the byte and word CMP taking flags at
// the long width; CMP.L into An comparing Dn; TST of a byte or word Dn
// testing 32 bits; CLR, AND/OR/EOR writing all 32 bits of Dn at every
// size; JSR pushing the target instead of the return address; exec's indirect cell read without the
// quaspace check. Forms
// and RAM helpers: stepping a register-relative register before forming
// the address; memForm always register-relative; reading An where the
// index is Dn; ignoring the scale; reading an immediate source as a
// register; loadRAM32, storeRAM32, loadRAM or storeRAM taking the RAM
// path across the end of RAM, or storeRAM leaving it uncharged. The stack and frame bodies: the mutations named
// at their block below, the frame charged one reference short, JSR's or
// RTS's slot check dropped, MOVE SR,-(An) never calling Store, a MOVEC
// body dropping its privilege check or naming another control
// register. push and pop (these fail
// TestStackMatchesMove): either's quaspace check dropped, A7 stepped
// only after an access that succeeds, the RAM path taken across the end
// of RAM, the RAM access uncharged. MOVEM, in
// each of the six written-out bodies (three register sets, two
// directions): the first two registers' slots swapped, or the last data
// register's and the first address register's; the (An)+ or -(An)
// write-back dropped, or made on the other side of the transfer; the
// block charged one memory reference short; the ramBlock test dropped.
// And in their shared address form: the -(An) base 4 short; ramBlock
// admitting a block past the end of RAM or outside the quaspace in user
// state.
func TestDispatchMatchesExecDirected(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	ref, xl := newDirSide(), newDirSide()
	image := make([]byte, dirMem)
	relModes := []AddrMode{ModeInd, ModePostInc, ModePreDec, ModeDisp}

	// newState draws registers, flags and a RAM image (a quarter of it
	// zero, so Z is reachable; every vector points at slot 0 or 1).
	newState := func(user bool) *dirState {
		st := &dirState{SR: uint16(rng.Intn(32) | rng.Intn(8)<<iplShift), SSP: 0x400, USP: 0x800}
		rng.Read(image)
		for i := 0; i < dirMem/16; i++ {
			binary.BigEndian.PutUint32(image[rng.Intn(dirMem-4):], 0)
		}
		for v := 0; v < NumVectors; v++ {
			binary.BigEndian.PutUint32(image[dirVBR+4*v:], uint32(v&1))
		}
		for i := range st.D {
			st.D[i] = rng.Uint32()
			st.A[i] = 0x400 + uint32(rng.Intn(0x800))
		}
		if user {
			st.A[7] = st.USP
		} else {
			st.SR |= FlagS
			st.A[7] = st.SSP
		}
		return st
	}
	operand := func(mode AddrMode, reg int) Operand {
		o := Operand{Mode: mode, Reg: uint8(reg)}
		switch mode {
		case ModeDisp:
			o.Imm = int32(rng.Intn(33)) - 16
		case ModeIdx: // the index register is drawn with the state
			o.Imm = int32(rng.Intn(33)) - 16
			o.Scale = []uint8{0, 1, 2, 4, 8}[rng.Intn(5)]
		case ModeImm:
			o.Imm = int32(rng.Uint32())
		}
		return o
	}
	ramEnd := func() uint32 { return dirMem - 1 - uint32(rng.Intn(3)) }
	inDev := func() uint32 { return dirDevBase + uint32(rng.Intn(dirDevSize)) }

	shape := func(op Op, sm, dm AddrMode, sz uint8) {
		for n := 0; n < 16*dirCases; n++ {
			c := n % dirCases
			sr := rng.Intn(7)
			dr := (sr + 1 + rng.Intn(6)) % 7
			switch c {
			case dirSameReg:
				dr = sr
			case dirSrcA7:
				sr = 7
			case dirDstA7:
				dr = 7
			}
			in := Instr{Op: op, Sz: sz, Src: operand(sm, sr), Dst: operand(dm, dr)}
			st := newState(c == dirUserNoSrc || c == dirUserNoDst || rng.Intn(2) == 0)
			if sm == ModeAReg && sr != 7 && (dm == ModeDReg || dm == ModeAReg) {
				// A source into a register, not an address: any value,
				// both signs. Into memory it keeps its RAM address, so a
				// same-register store is executed, not only faulted.
				st.A[sr] = rng.Uint32()
			}
			// An indexed operand's index is a data register, or an address
			// register that is neither operand's base, holding a small value.
			index := func(o *Operand) {
				switch {
				case o.Mode != ModeIdx:
				case rng.Intn(2) == 0:
					o.Idx = uint8(rng.Intn(8))
					st.D[o.Idx] = uint32(rng.Intn(16))
				default:
					for o.Idx = uint8(sr); o.Idx == uint8(sr) || o.Idx == uint8(dr); {
						o.Idx = uint8(rng.Intn(7))
					}
					st.A[o.Idx] = uint32(rng.Intn(16))
					o.Idx += 8
				}
			}
			index(&in.Src)
			index(&in.Dst)
			// place points an operand's effective address at target.
			place := func(o *Operand, target uint32) {
				switch o.Mode {
				case ModePreDec:
					st.A[o.Reg] = target + uint32(sz)
				case ModeDisp:
					st.A[o.Reg] = target - uint32(o.Imm)
				case ModeInd, ModePostInc:
					st.A[o.Reg] = target
				case ModeIdx:
					x := st.D[o.Idx&7]
					if o.Idx >= 8 {
						x = st.A[o.Idx&7]
					}
					st.A[o.Reg] = target - uint32(o.Imm) - x*uint32(max(o.Scale, 1))
				case ModeAbs:
					o.Imm = int32(target)
				}
			}
			src, dst := st.A[sr], st.A[dr] // plain RAM unless the case says otherwise
			switch c {
			case dirSrcRAMEnd:
				src = ramEnd()
			case dirDstRAMEnd:
				dst = ramEnd()
			case dirSrcDev, dirSrcDevFault:
				src = inDev()
			case dirDstDev, dirDstDevFault:
				dst = inDev()
			case dirBothDev:
				src, dst = inDev(), inDev()
			}
			place(&in.Src, src)
			place(&in.Dst, dst)
			// JSR pushes and RTS and RTE pop: the stack slot is the
			// operand the case directs.
			switch op {
			case JSR:
				if sm == ModeNone {
					place(&Operand{Mode: ModePreDec, Reg: 7}, dst)
				}
			case RTS, RTE:
				place(&Operand{Mode: ModePostInc, Reg: 7}, src)
			}
			st.faultReads, st.faultWrites = c == dirSrcDevFault, c == dirDstDevFault
			// The quaspace window that shuts out one operand and, where the
			// two addresses allow it, admits the other.
			out, other := src, dst
			if c == dirUserNoDst {
				out, other = dst, src
			}
			switch {
			case c != dirUserNoSrc && c != dirUserNoDst:
				if rng.Intn(4) == 0 {
					st.UBase, st.ULimit = 0, dirDevBase+dirDevSize // on, and admits everything mapped
				}
			case other > out:
				st.UBase, st.ULimit = out+1, dirMem
			default:
				st.UBase, st.ULimit = 0, out
			}
			if d := dirDiff(ref, xl, in, st, image); d != "" {
				t.Fatalf("%v (case %d) from %+v:\n%s", in, c, *st, d)
			}
		}
	}
	memModes := []AddrMode{ModeInd, ModePostInc, ModePreDec, ModeDisp, ModeIdx, ModeAbs}
	arith := []Op{MOVE, ADD, SUB, CMP}
	for _, sz := range []uint8{1, 2, 4} {
		for _, mm := range memModes {
			for _, dm := range memModes {
				for _, op := range arith {
					shape(op, mm, dm, sz)
				}
			}
			for _, op := range arith {
				shape(op, mm, ModeDReg, sz)
			}
			shape(TST, mm, ModeNone, sz)
			shape(CLR, ModeNone, mm, sz)
			for _, reg := range []AddrMode{ModeDReg, ModeAReg, ModeImm} {
				for _, op := range []Op{MOVE, ADD, SUB} {
					shape(op, reg, mm, sz)
				}
			}
		}
		// Register and immediate sources into a data register.
		for _, op := range arith {
			shape(op, ModeDReg, ModeDReg, sz)
			shape(op, ModeImm, ModeDReg, sz)
		}
		shape(TST, ModeDReg, ModeNone, sz)
		// Into an address register, from memory and from registers, and
		// the register-only logic ops, shifts and CLR.
		for _, mm := range memModes {
			shape(MOVE, mm, ModeAReg, sz)
			shape(CMP, mm, ModeAReg, sz)
		}
		for _, op := range []Op{MOVE, ADD, SUB} {
			shape(op, ModeDReg, ModeAReg, sz)
			shape(op, ModeImm, ModeAReg, sz)
		}
		for _, op := range []Op{MOVE, ADD, SUB} {
			shape(op, ModeAReg, ModeDReg, sz)
		}
		shape(MOVE, ModeAReg, ModeAReg, sz)
		shape(CLR, ModeNone, ModeDReg, sz)
		for _, op := range []Op{AND, OR, EOR, LSL, LSR} {
			shape(op, ModeDReg, ModeDReg, sz)
			shape(op, ModeImm, ModeDReg, sz)
		}
	}
	// Control transfers to a constant target, the returns, and the SR
	// moves of the interrupt-masking prologue and epilogue.
	shape(JMP, ModeNone, ModeAbs, 4)
	shape(JSR, ModeNone, ModeAbs, 4)
	shape(RTS, ModeNone, ModeNone, 4)
	shape(RTE, ModeNone, ModeNone, 4)
	for _, mm := range relModes {
		shape(MOVEFSR, ModeNone, mm, 4)
		shape(MOVETSR, mm, ModeNone, 4)
	}
	// LEA, and the cell of a memory-indirect JMP or JSR: in Src for every
	// memory mode, in Dst for the modes that do not name a target.
	for _, mm := range memModes {
		shape(LEA, mm, ModeAReg, 4)
		shape(JMP, mm, ModeNone, 4)
		shape(JSR, mm, ModeNone, 4)
	}
	for _, mm := range []AddrMode{ModePostInc, ModePreDec, ModeIdx} {
		shape(JMP, ModeNone, mm, 4)
		shape(JSR, ModeNone, mm, 4)
	}

	// The supervisor ops, 256 states each in user and in supervisor
	// state: immediate, register and register-relative operands, and for
	// RTE whatever frame the random image holds under the stack pointer.
	anyOperand := func(modes ...AddrMode) Operand {
		return operand(append(modes, relModes...)[rng.Intn(len(modes)+len(relModes))], rng.Intn(8))
	}
	for n := 0; n < 6*2*256; n++ {
		var in Instr
		switch n % 6 {
		case 0:
			in = Instr{Op: ORSR, Src: Imm(int32(rng.Intn(1 << 16)))}
		case 1:
			in = Instr{Op: ANDSR, Src: Imm(int32(rng.Intn(1 << 16)))}
		case 2:
			in = Instr{Op: RTE}
		case 3:
			in = Instr{Op: TRAP, Vec: uint8(rng.Intn(16))}
		case 4:
			in = Instr{Op: MOVEFSR, Dst: anyOperand(ModeDReg)}
		case 5:
			in = Instr{Op: MOVETSR, Src: anyOperand(ModeDReg, ModeImm)}
			if in.Src.Mode == ModeImm {
				in.Src.Imm = int32(rng.Intn(1 << 16))
			}
		}
		st := newState(n/6%2 == 0)
		if d := dirDiff(ref, xl, in, st, image); d != "" {
			t.Fatalf("%v from %+v:\n%s", in, *st, d)
		}
	}

	// The stack and frame bodies over TestStackMatchesMove's six stack
	// states and a seventh: a frame straddling the window's base, its PC
	// long in the device window and its SR long below it, where nothing
	// is mapped (for RTE's pops, SR there below PC in the window). JSR, RTS, RTE, the SR moves, MOVEC's
	// three bodies and its absolute form, which has none (its cell at the
	// slot), run against exec; TRAP
	// and an autovectored interrupt, which exec enters through the same
	// Exception, against frameByPushes. Both stack pointers point at the
	// slot, so a privilege violation's frame is directed too, and every
	// vector holds its own number, so PC names the vector taken. It
	// fails with Exception's frame stored, or RTE's read, when only one
	// of its two longs is tested for plain RAM: the lower one (stkRAMEnd)
	// or the upper one (stkRAMEnd's wrap: the body indexes past Mem's end).
	const (
		stkPlain = iota
		stkRAMEnd
		stkDev
		stkDevFault
		stkUserIn
		stkUserOut
		stkStraddle
		stkCases
	)
	const stkIntr = Op(255) // not an instruction: an interrupt at a random level
	ctrlReg := func() uint8 { return uint8(rng.Intn(int(CtrlFPTrap) + 1)) }
	for _, op := range []struct {
		in  Instr
		pop bool // the first access is at A7, not below it
	}{
		{Instr{Op: JSR, Dst: Abs(1)}, false},
		{Instr{Op: RTS}, true},
		{Instr{Op: RTE}, true},
		{Instr{Op: TRAP}, false},
		{Instr{Op: stkIntr}, false},
		{Instr{Op: MOVEFSR, Dst: PreDec(7)}, false},
		{Instr{Op: MOVETSR, Src: PostInc(7)}, true},
		{Instr{Op: MOVEC, Src: Imm(0)}, false},
		{Instr{Op: MOVEC, Src: D(0)}, false},
		{Instr{Op: MOVEC, Src: Abs(0)}, true},
		{Instr{Op: MOVEC, Dst: D(0)}, false},
	} {
		for n := 0; n < 16*stkCases; n++ {
			c := n % stkCases
			st := newState(c == stkUserIn || c == stkUserOut)
			for v := 0; v < NumVectors; v++ {
				binary.BigEndian.PutUint32(image[dirVBR+4*v:], uint32(v))
			}
			slot := 0x400 + uint32(rng.Intn(0x800))
			switch c {
			case stkRAMEnd:
				// Across the end of RAM, or a frame wrapping round the top
				// of the address space: its upper long in RAM at 0 and its
				// lower one at the top.
				slot = ramEnd()
				if rng.Intn(2) == 0 {
					slot = uint32(rng.Intn(4))
					if op.pop {
						slot -= 4
					}
				}
			case stkDev, stkDevFault:
				slot = inDev()
			case stkUserIn:
				st.UBase, st.ULimit = slot, slot+4
			case stkUserOut:
				st.UBase, st.ULimit = slot+1, dirMem
			case stkStraddle:
				slot = dirDevBase
				if op.pop {
					slot -= 4
				}
			}
			top := slot + 4
			if op.pop {
				top = slot
			}
			st.A[7], st.USP, st.SSP = top, top, top
			st.faultReads, st.faultWrites = c == stkDevFault && op.pop, c == stkDevFault && !op.pop
			in := op.in
			switch {
			case in.Op == TRAP:
				in.Vec = uint8(rng.Intn(16))
			case in.Op == MOVEC:
				in.Vec = ctrlReg()
				switch {
				case in.Src.Mode == ModeImm:
					in.Src.Imm = int32(rng.Uint32())
				case in.Src.Mode == ModeAbs:
					in.Src.Imm = int32(slot)
				case in.Src.Mode == ModeDReg:
					in.Src.Reg = uint8(rng.Intn(8))
				default:
					in.Dst.Reg = uint8(rng.Intn(8))
				}
			}
			var d string
			switch in.Op {
			case TRAP, stkIntr:
				// An interrupt level above the mask.
				l := 1 + rng.Intn(7)
				st.SR = st.SR&^iplMask | uint16(rng.Intn(l))<<iplShift
				ref.reset(in, st, image)
				xl.reset(in, st, image)
				var errA, errB error
				if in.Op == TRAP {
					ref.m.Cycles += baseCost(&in)
					errA = frameByPushes(ref.m, VecTrapBase+int(in.Vec))
					var e xent
					xl.m.translate(2, &e)
					xl.m.Cycles += e.cost
					errB = e.run(xl.m)
				} else {
					if errA = frameByPushes(ref.m, VecAutovector+l); errA == nil {
						ref.m.SetIPL(l)
					}
					xl.m.PostInterrupt(l)
					_, errB = xl.m.takeInterrupt()
				}
				d = dirCompare(ref, xl, errA, errB)
			default:
				d = dirDiff(ref, xl, in, st, image)
			}
			if d != "" {
				t.Fatalf("%v (stack case %d, slot %#x) from %+v:\n%s", in, c, slot, *st, d)
			}
		}
	}

	// MOVEM, every form with a block body in both directions, each
	// register set with a body and random masks (which run through
	// exec), 16 states for each way a block can meet the fast path:
	// plain RAM, across the end of RAM, into the device window
	// (straddling its base or inside it), there with the injector
	// faulting the block's direction, in user state with the quaspace
	// cutting the block, and with the base register in the list (one of
	// the set's address registers).
	const (
		mvPlain = iota
		mvRAMEnd
		mvDev
		mvDevFault
		mvUser
		mvBaseInList
		mvCases
	)
	forms := []struct {
		dir  uint8
		mode AddrMode
	}{
		{0, ModeInd}, {0, ModePreDec}, {0, ModeDisp}, {0, ModeAbs},
		{1, ModeInd}, {1, ModePostInc}, {1, ModeDisp}, {1, ModeAbs},
	}
	sets := []struct {
		mask      uint16 // 0: a random mask each draw
		lo, spanA int    // the set's address registers: A(lo) up, spanA of them
	}{
		{MovemCopyRegs, 3, 3}, {MovemIntrRegs, 0, 3}, {MovemContextRegs, 0, 7}, {0, 0, 8},
	}
	for _, f := range forms {
		for _, set := range sets {
			for n := 0; n < 16*mvCases; n++ {
				c := n % mvCases
				base, mask := rng.Intn(8), set.mask
				if mask == 0 {
					mask = uint16(rng.Intn(1 << 16))
				}
				if c == mvBaseInList {
					base = set.lo + rng.Intn(set.spanA)
					mask |= 1 << (8 + base)
				}
				size := 4 * popcount16(mask)
				o := operand(f.mode, base)
				st := newState(c == mvUser || rng.Intn(2) == 0)
				start := 0x400 + uint32(rng.Intn(0x400))
				switch c {
				case mvRAMEnd:
					start = dirMem - uint32(rng.Intn(size+3))
				case mvDev, mvDevFault:
					start = dirDevBase + uint32(rng.Intn(dirDevSize)) - uint32(rng.Intn(size+1))
				case mvUser:
					cut := start + 4*uint32(rng.Intn(size/4+1))
					if rng.Intn(2) == 0 {
						st.UBase, st.ULimit = 0, cut
					} else {
						st.UBase, st.ULimit = cut, dirMem
					}
				}
				switch f.mode {
				case ModeInd, ModePostInc:
					st.A[base] = start
				case ModePreDec:
					st.A[base] = start + uint32(size)
				case ModeDisp:
					st.A[base] = start - uint32(o.Imm)
				case ModeAbs:
					o.Imm = int32(start)
				}
				st.faultReads, st.faultWrites = c == mvDevFault && f.dir == 1, c == mvDevFault && f.dir == 0
				in := Instr{Op: MOVEM, Mask: mask, Dir: f.dir, Src: o}
				if f.dir == 0 {
					in.Src, in.Dst = Operand{}, o
				}
				if d := dirDiff(ref, xl, in, st, image); d != "" {
					t.Fatalf("%v (case %d) from %+v:\n%s", in, c, *st, d)
				}
			}
		}
	}
}

// frameByPushes is exception entry as exec's pushes make it: SR and PC
// stacked by push, the handler read by Load. It is the oracle for
// Exception's frame, whose RAM case stores both longs itself;
// TestStackMatchesMove holds push to MOVE.L D0,-(A7).
func frameByPushes(m *Machine, v int) error {
	oldSR := m.SR
	m.enterSupervisor()
	m.SR &^= FlagT
	m.stopped = false
	m.Cycles += uint64(cycException)
	if err := m.push(m.PC); err != nil {
		return err
	}
	if err := m.push(uint32(oldSR)); err != nil {
		return err
	}
	h, err := m.Load(m.VBR+uint32(v)*4, 4)
	if err != nil {
		return err
	}
	m.PC = h
	return nil
}
