package m68k

import "encoding/binary"

// Threaded-code dispatch: the Synthesis trick applied to the machine
// that hosts Synthesis. Instead of re-decoding every instruction on
// every step — one big opcode switch plus an addressing-mode switch
// per operand — each code-space slot is translated ONCE, on first
// fetch, into a chain of Go closures with the decode decisions baked
// in: the register numbers, immediates, operand sizes, masks and base
// cycle cost are captured at translate time, and execution thereafter
// is one indirect call per instruction. The translation is cached per
// PC in Machine.xcache and invalidated by any write into code space
// (SetCode / PatchCode), so self-modifying synthesized code — the
// kernel's bread and butter — observes new instructions on the very
// next fetch, exactly as the switch interpreter did.
//
// Granularity is deliberately one instruction, not one basic block:
// the kernel's preemption-window story (DESIGN.md §3a) depends on
// every instruction boundary being an interrupt point, and Run keeps
// it one with a single compare per boundary — the clock against
// Machine.horizon, which whatever posts an interrupt or moves a device
// event earlier zeroes (machine.go states the rule). Blocks were
// measured and do not pay: a prototype running straight-line blocks of
// up to 32 slots, keeping that compare and the call per instruction,
// read compute 6.58–7.02 M op/s against 6.43–6.93 M and the step loop
// 7.6–8.8 ns/instr against 6.6–6.8. A NOP costs about 2 ns with the
// loop; the time is in the handlers (docs/PERFORMANCE.md).
//
// exec.go's switch is the ISA: complete, the only definition of every
// instruction, and the fuzzer's oracle. The closures here are a cache
// in front of it, kept only for the (op, operand-mode) shapes the
// benchmark workloads execute (at least 0.5 % of some workload's
// dynamic instructions; docs/PERFORMANCE.md has the op mix and the
// experiments that priced the alternatives). Every other shape runs
// through exec itself (cSlow), so its cycle accounting, flags and
// fault order cannot drift. A specialized shape must be bit-identical
// to exec in all three: each handler replicates its exec.go case's
// memory-access order and calls the same flag helper.
//
// Operands are resolved at translate time too. The four
// register-relative modes — (An), (An)+, -(An), d(An) — are one form,
// addr = A[r]+disp then A[r] += inc (relOperand); absolute and indexed
// are another, addr = disp or A[r] + disp + X*scale with the index
// register and scale fixed here (absIdx). cRead, cWrite, LEA, the
// ADD/SUB read-modify-write, the long MOVE bodies and the cell of a
// memory-indirect JMP/JSR open-code them, so no memory operand calls an
// address closure. (Folding register-relative into the second form cost
// thread_ops 9–10 %.) A data register or immediate source of MOVE.L,
// ADD, SUB or CMP into Dn, and TST Dn, is read in the handler, with no
// cRead call, and a Bcc's condition is a truth table over N, Z, V and
// C filled in from exec's. A word memory operand, which no workload
// has, goes through exec's readOp or writeOp. Byte and long
// accesses call the size-resolved accessors in machine.go
// (load8/load32/store8/store32), which open-code plain RAM and nothing
// else: a device window, the injector, Kick and the bus fault are
// reachable only through Machine.Load and Machine.Store, which those
// accessors call for every address that is not plain RAM. A handler
// never tests devFloor or builds a BusFault for a memory access itself.
// MOVEM asks ramBlock once per block and leaves any other to execMovem.
//
// TestDispatchMatchesExec (random, over the whole op list) and
// TestDispatchMatchesExecDirected (every specialized memory shape and
// supervisor op, driven into devices, injected faults, the end of RAM
// and the quaspace bounds) hold handlers to the switch one instruction
// at a time, TestRunEqualsSteps holds the two step loops to each
// other, and TestGoldenTables (internal/bench) holds every table
// byte-equal to bench/baseline.

// EmitBenchProgram emits the canonical dispatcher benchmark: a
// representative mix of register ALU, memory read-modify-write,
// compare/branch, and a DBRA loop — the shape of the synthesized
// kernel paths whose host-side cost bounds every wall-clock number
// above the VM. BenchmarkStepLoop and benchmark/'s
// m68k.step_floor_ns_per_instr probe both run exactly this program,
// so the committed pre-dispatch ns/instr measurement stays comparable.
func EmitBenchProgram(m *Machine) uint32 {
	return m.Emit([]Instr{
		{Op: MOVE, Src: Imm(1000), Dst: D(0)},                              // 0: loop counter
		{Op: MOVE, Src: Imm(0x9000), Dst: Operand{Mode: ModeAReg, Reg: 0}}, // 1
		{Op: ADD, Src: Imm(1), Dst: Ind(0)},                                // 2: memory RMW
		{Op: MOVE, Src: Ind(0), Dst: D(1)},                                 // 3: load
		{Op: ADD, Src: D(1), Dst: D(2)},                                    // 4: reg ALU
		{Op: CMP, Src: Imm(0), Dst: D(2)},                                  // 5
		{Op: BEQ, Dst: Abs(2)},                                             // 6: never taken
		{Op: DBRA, Src: D(0), Dst: Abs(2)},                                 // 7: loop
		{Op: HALT},                                                         // 8
	})
}

// xent is one translation cache line: the compiled handler, the
// precomputed base cycle cost (baseCost is pure in the instruction),
// and the opcode (the step loop's trace-bit handling needs to know
// RTE without re-reading code space). A zero xent is cold.
type xent struct {
	run  runFn
	cost uint64
	op   Op
}

// runFn executes one translated instruction. It runs with PC already
// advanced past the instruction (as exec.go does) and returns the
// same errors exec would: a *BusFault to vector through the bus-error
// exception, or a terminal simulation error.
type runFn func(m *Machine) error

// readFn/writeFn are compiled operand accessors.
type (
	readFn  func(m *Machine) (uint32, error)
	writeFn func(m *Machine, v uint32) error
)

// translate fills the cache line for pc from the instruction
// currently installed there.
func (m *Machine) translate(pc uint32, e *xent) {
	in := &m.Code[pc]
	m.Translations++
	e.cost = baseCost(in)
	e.op = in.Op
	e.run = compile(in, pc)
}

// relOperand resolves the four register-relative memory modes to one
// form — addr = A[r]+disp, then A[r] += inc — so an accessor is one
// body with no mode branch: (An) is (0, 0), (An)+ is (0, +sz), -(An)
// is (-sz, -sz) and d(An) is (d, 0).
func relOperand(o Operand, sz uint8) (r uint8, disp, inc uint32, ok bool) {
	switch o.Mode {
	case ModeInd:
		return o.Reg, 0, 0, true
	case ModePostInc:
		return o.Reg, 0, uint32(sz), true
	case ModePreDec:
		return o.Reg, -uint32(sz), -uint32(sz), true
	case ModeDisp:
		return o.Reg, uint32(o.Imm), 0, true
	}
	return 0, 0, 0, false
}

// absIdx is the absolute and indexed modes as one form: addr = disp
// when absolute, A[r] + disp + X*scale when indexed, with X = D[x], or
// A[x] when xa. Absolute returns before it reads a register: reading
// two it then ignores cost pipe_rw 15 %.
type absIdx struct {
	disp, scale uint32
	r, x        uint8
	idx, xa     bool
}

func absIdxOperand(o Operand) (absIdx, bool) {
	switch o.Mode {
	case ModeAbs:
		return absIdx{disp: uint32(o.Imm)}, true
	case ModeIdx:
		return absIdx{disp: uint32(o.Imm), scale: uint32(max(o.Scale, 1)),
			r: o.Reg, x: o.Idx & 7, idx: true, xa: o.Idx >= 8}, true
	}
	return absIdx{}, false
}

func (f absIdx) addr(m *Machine) uint32 {
	if !f.idx {
		return f.disp
	}
	x := m.D[f.x]
	if f.xa {
		x = m.A[f.x]
	}
	return m.A[f.r] + f.disp + x*f.scale
}

// regImm is a data register or immediate source as one form: D[x]&mask
// for a register, imm (truncated here) for an immediate. An immediate
// reads no register: a masked-out read of one made each such
// instruction wait for the last write of D[x], and cost pipe_rw 4 %.
type regImm struct {
	imm, mask uint32
	x         uint8
	reg       bool
}

func regImmOperand(o Operand, sz uint8) (regImm, bool) {
	switch o.Mode {
	case ModeDReg:
		mask, _ := maskFor(sz)
		return regImm{mask: mask, x: o.Reg, reg: true}, true
	case ModeImm:
		return regImm{imm: trunc(uint32(o.Imm), sz)}, true
	}
	return regImm{}, false
}

func (s regImm) val(m *Machine) uint32 {
	if s.reg {
		return m.D[s.x] & s.mask
	}
	return s.imm
}

// cRead compiles an operand read, mirroring Machine.readOp.
func cRead(o Operand, sz uint8) readFn {
	switch o.Mode {
	case ModeImm:
		v := trunc(uint32(o.Imm), sz)
		return func(*Machine) (uint32, error) { return v, nil }
	case ModeDReg:
		r := o.Reg
		switch sz {
		case 1:
			return func(m *Machine) (uint32, error) { return m.D[r] & 0xff, nil }
		case 2:
			return func(m *Machine) (uint32, error) { return m.D[r] & 0xffff, nil }
		default:
			return func(m *Machine) (uint32, error) { return m.D[r], nil }
		}
	case ModeAReg:
		r := o.Reg
		return func(m *Machine) (uint32, error) { return m.A[r], nil }
	}
	if r, disp, inc, ok := relOperand(o, sz); ok {
		switch sz {
		case 1:
			return func(m *Machine) (uint32, error) {
				addr := m.A[r] + disp
				m.A[r] += inc
				if err := m.checkUserAccess(addr); err != nil {
					return 0, err
				}
				return m.load8(addr)
			}
		case 4:
			return func(m *Machine) (uint32, error) {
				addr := m.A[r] + disp
				m.A[r] += inc
				if err := m.checkUserAccess(addr); err != nil {
					return 0, err
				}
				return m.load32(addr)
			}
		}
	}
	if f, ok := absIdxOperand(o); ok {
		switch sz {
		case 1:
			return func(m *Machine) (uint32, error) {
				addr := f.addr(m)
				if err := m.checkUserAccess(addr); err != nil {
					return 0, err
				}
				return m.load8(addr)
			}
		case 4:
			return func(m *Machine) (uint32, error) {
				addr := f.addr(m)
				if err := m.checkUserAccess(addr); err != nil {
					return 0, err
				}
				return m.load32(addr)
			}
		}
	}
	// Word operands, which no workload reads, and modes that are no
	// operand: exec's own accessor.
	return func(m *Machine) (uint32, error) { return m.readOp(&o, sz) }
}

// cWrite compiles an operand write, mirroring Machine.writeOp.
func cWrite(o Operand, sz uint8) writeFn {
	switch o.Mode {
	case ModeDReg:
		r := o.Reg
		switch sz {
		case 1:
			return func(m *Machine, v uint32) error {
				m.D[r] = m.D[r]&^0xff | v&0xff
				return nil
			}
		case 2:
			return func(m *Machine, v uint32) error {
				m.D[r] = m.D[r]&^0xffff | v&0xffff
				return nil
			}
		default:
			return func(m *Machine, v uint32) error {
				m.D[r] = v
				return nil
			}
		}
	case ModeAReg:
		r := o.Reg
		return func(m *Machine, v uint32) error {
			m.A[r] = v
			return nil
		}
	}
	if r, disp, inc, ok := relOperand(o, sz); ok {
		switch sz {
		case 1:
			return func(m *Machine, v uint32) error {
				addr := m.A[r] + disp
				m.A[r] += inc
				if err := m.checkUserAccess(addr); err != nil {
					return err
				}
				return m.store8(addr, v)
			}
		case 4:
			return func(m *Machine, v uint32) error {
				addr := m.A[r] + disp
				m.A[r] += inc
				if err := m.checkUserAccess(addr); err != nil {
					return err
				}
				return m.store32(addr, v)
			}
		}
	}
	if f, ok := absIdxOperand(o); ok {
		switch sz {
		case 1:
			return func(m *Machine, v uint32) error {
				addr := f.addr(m)
				if err := m.checkUserAccess(addr); err != nil {
					return err
				}
				return m.store8(addr, v)
			}
		case 4:
			return func(m *Machine, v uint32) error {
				addr := f.addr(m)
				if err := m.checkUserAccess(addr); err != nil {
					return err
				}
				return m.store32(addr, v)
			}
		}
	}
	// Word operands, an immediate and modes that are no operand: exec's
	// own accessor.
	return func(m *Machine, v uint32) error { return m.writeOp(&o, sz, v) }
}

// cSlow defers to the reference switch interpreter, re-reading the
// instruction from code space at run time (never a cached pointer:
// AllocCode may have reallocated the backing array since translate).
// Used for every shape the workloads do not execute often enough to
// pay for a second implementation.
func cSlow(pc uint32) runFn {
	return func(m *Machine) error {
		m.SlowInstrs++
		return m.exec(&m.Code[pc])
	}
}

// compile translates one instruction into its handler. The handler
// captures only values (never pointers into m.Code), so a cached
// translation is correct until its cache line is invalidated.
func compile(in *Instr, pc uint32) runFn {
	sz := in.Size()
	mask, sign := maskFor(sz)
	switch in.Op {
	case NOP:
		return func(*Machine) error { return nil }

	case MOVE:
		sr, sdisp, sinc, srel := relOperand(in.Src, sz)
		dr, ddisp, dinc, drel := relOperand(in.Dst, sz)
		if srel && drel && sz == 4 {
			// The long memory-to-memory move, fused: the bulk-copy
			// instruction (65 % of file_rw) is one indirect call, in
			// exec's order — source step, check, load, destination
			// step, check, store, and flags only after the store.
			return func(m *Machine) error {
				src := m.A[sr] + sdisp
				m.A[sr] += sinc
				if err := m.checkUserAccess(src); err != nil {
					return err
				}
				v, err := m.load32(src)
				if err != nil {
					return err
				}
				dst := m.A[dr] + ddisp
				m.A[dr] += dinc
				if err := m.checkUserAccess(dst); err != nil {
					return err
				}
				if err := m.store32(dst, v); err != nil {
					return err
				}
				m.setNZMask(v, 0xffff_ffff, 0x8000_0000)
				return nil
			}
		}
		rd := cRead(in.Src, sz)
		if in.Dst.Mode == ModeAReg {
			r := in.Dst.Reg
			return func(m *Machine) error {
				v, err := rd(m)
				if err != nil {
					return err
				}
				m.A[r] = v
				return nil
			}
		}
		// The long moves the workloads run most after the fused one — into
		// a data register, and of a register or immediate to memory —
		// write their destination without a cWrite call, and an absolute
		// or indexed operand is addressed in the handler. A data register
		// and an immediate source into Dn have a body each: a shared body's
		// register-or-immediate branch made MOVE.L Dn,Dn slower, and an
		// immediate's N and Z are known here.
		sf, sabs := absIdxOperand(in.Src)
		df, dabs := absIdxOperand(in.Dst)
		ri, regimm := regImmOperand(in.Src, 4)
		switch {
		case sz != 4:
		case in.Dst.Mode == ModeDReg && in.Src.Mode == ModeDReg:
			x, r := ri.x, in.Dst.Reg
			return func(m *Machine) error {
				v := m.D[x]
				m.D[r] = v
				m.setNZMask(v, 0xffff_ffff, 0x8000_0000)
				return nil
			}
		case in.Dst.Mode == ModeDReg && in.Src.Mode == ModeImm:
			v, r, nz := ri.imm, in.Dst.Reg, uint16(0)
			if v == 0 {
				nz = FlagZ
			} else if v&0x8000_0000 != 0 {
				nz = FlagN
			}
			return func(m *Machine) error {
				m.D[r] = v
				m.SR = m.SR&^(FlagN|FlagZ|FlagV|FlagC) | nz
				return nil
			}
		case in.Dst.Mode == ModeDReg && sabs:
			r := in.Dst.Reg
			return func(m *Machine) error {
				addr := sf.addr(m)
				if err := m.checkUserAccess(addr); err != nil {
					return err
				}
				v, err := m.load32(addr)
				if err != nil {
					return err
				}
				m.D[r] = v
				m.setNZMask(v, 0xffff_ffff, 0x8000_0000)
				return nil
			}
		case dabs && regimm:
			return func(m *Machine) error {
				v := ri.val(m)
				addr := df.addr(m)
				if err := m.checkUserAccess(addr); err != nil {
					return err
				}
				if err := m.store32(addr, v); err != nil {
					return err
				}
				m.setNZMask(v, 0xffff_ffff, 0x8000_0000)
				return nil
			}
		case in.Dst.Mode == ModeDReg:
			r := in.Dst.Reg
			return func(m *Machine) error {
				v, err := rd(m)
				if err != nil {
					return err
				}
				m.D[r] = v
				m.setNZMask(v, 0xffff_ffff, 0x8000_0000)
				return nil
			}
		case drel && (regimm || in.Src.Mode == ModeAReg):
			return func(m *Machine) error {
				v, _ := rd(m) // a register or immediate read cannot fail
				dst := m.A[dr] + ddisp
				m.A[dr] += dinc
				if err := m.checkUserAccess(dst); err != nil {
					return err
				}
				if err := m.store32(dst, v); err != nil {
					return err
				}
				m.setNZMask(v, 0xffff_ffff, 0x8000_0000)
				return nil
			}
		}
		wr := cWrite(in.Dst, sz)
		return func(m *Machine) error {
			v, err := rd(m)
			if err != nil {
				return err
			}
			if err := wr(m, v); err != nil {
				return err
			}
			m.setNZMask(v, mask, sign)
			return nil
		}

	case LEA:
		r := in.Dst.Reg
		if sr, disp, inc, ok := relOperand(in.Src, sz); ok {
			return func(m *Machine) error {
				addr := m.A[sr] + disp
				m.A[sr] += inc
				m.A[r] = addr
				return nil
			}
		}
		if f, ok := absIdxOperand(in.Src); ok {
			return func(m *Machine) error {
				m.A[r] = f.addr(m)
				return nil
			}
		}

	case CLR:
		wr := cWrite(in.Dst, sz)
		return func(m *Machine) error {
			if err := wr(m, 0); err != nil {
				return err
			}
			m.SR = m.SR&^(FlagN|FlagZ|FlagV|FlagC) | FlagZ
			return nil
		}

	case ADD, SUB:
		rd := cRead(in.Src, sz)
		sub := in.Op == SUB
		switch in.Dst.Mode {
		case ModeDReg:
			// A data register or immediate source is read here, in a
			// body that calls nothing it cannot inline.
			r := in.Dst.Reg
			if ri, ok := regImmOperand(in.Src, sz); ok {
				return func(m *Machine) error {
					s, old := ri.val(m), m.D[r]&mask
					nw := old + s
					if sub {
						nw = old - s
					}
					m.D[r] = m.D[r]&^mask | nw&mask
					if sub {
						m.setSubFlagsMask(old, s, nw, mask, sign)
					} else {
						m.setAddFlagsMask(old, s, nw, mask, sign)
					}
					return nil
				}
			}
			return func(m *Machine) error {
				s, err := rd(m)
				if err != nil {
					return err
				}
				old := m.D[r] & mask
				nw := old + s
				if sub {
					nw = old - s
				}
				m.D[r] = m.D[r]&^mask | nw&mask
				if sub {
					m.setSubFlagsMask(old, s, nw, mask, sign)
				} else {
					m.setAddFlagsMask(old, s, nw, mask, sign)
				}
				return nil
			}
		case ModeAReg:
			r := in.Dst.Reg
			return func(m *Machine) error {
				s, err := rd(m)
				if err != nil {
					return err
				}
				if sub {
					m.A[r] -= s
				} else {
					m.A[r] += s
				}
				return nil
			}
		}
		// Memory destination: read-modify-write with the address computed
		// once, in either translate-time form.
		r, disp, inc, rel := relOperand(in.Dst, sz)
		f, ai := absIdxOperand(in.Dst)
		if !rel && !ai {
			break
		}
		return func(m *Machine) error {
			s, err := rd(m)
			if err != nil {
				return err
			}
			var addr uint32
			if rel {
				addr = m.A[r] + disp
				m.A[r] += inc
			} else {
				addr = f.addr(m)
			}
			if err := m.checkUserAccess(addr); err != nil {
				return err
			}
			old, err := m.Load(addr, sz)
			if err != nil {
				return err
			}
			nw := old + s
			if sub {
				nw = old - s
			}
			if err := m.Store(addr, sz, nw); err != nil {
				return err
			}
			if sub {
				m.setSubFlagsMask(old, s, nw, mask, sign)
			} else {
				m.setAddFlagsMask(old, s, nw, mask, sign)
			}
			return nil
		}

	case AND, OR, EOR:
		if in.Dst.Mode != ModeDReg {
			break
		}
		rd := cRead(in.Src, sz)
		op := in.Op
		r := in.Dst.Reg
		return func(m *Machine) error {
			s, err := rd(m)
			if err != nil {
				return err
			}
			old := m.D[r] & mask
			var nw uint32
			switch op {
			case AND:
				nw = old & s
			case OR:
				nw = old | s
			default:
				nw = old ^ s
			}
			m.D[r] = m.D[r]&^mask | nw&mask
			m.setNZMask(nw, mask, sign)
			return nil
		}

	case LSL, LSR, ASR:
		if in.Dst.Mode != ModeDReg {
			break
		}
		rd := cRead(in.Src, sz)
		var sh func(o, s uint32) uint32 // o arrives masked to the operand width
		switch in.Op {
		case LSL:
			sh = func(o, s uint32) uint32 { return o << s }
		case LSR:
			sh = func(o, s uint32) uint32 { return o >> s }
		default: // ASR: arithmetic shift at the operand width
			switch sz {
			case 1:
				sh = func(o, s uint32) uint32 { return uint32(int32(int8(o)) >> s) }
			case 2:
				sh = func(o, s uint32) uint32 { return uint32(int32(int16(o)) >> s) }
			default:
				sh = func(o, s uint32) uint32 { return uint32(int32(o) >> s) }
			}
		}
		r := in.Dst.Reg
		return func(m *Machine) error {
			s, err := rd(m)
			if err != nil {
				return err
			}
			s &= 63
			m.Cycles += uint64(s) / 2 // shifts cost ~2 cycles per 4 bits
			nw := sh(m.D[r]&mask, s)
			m.D[r] = m.D[r]&^mask | nw&mask
			m.setNZMask(nw, mask, sign)
			return nil
		}

	case CMP:
		if ri, ok := regImmOperand(in.Src, sz); ok && in.Dst.Mode == ModeDReg {
			r := in.Dst.Reg
			return func(m *Machine) error {
				s, d := ri.val(m), m.D[r]&mask
				m.setSubFlagsMask(d, s, d-s, mask, sign)
				return nil
			}
		}
		rs := cRead(in.Src, sz)
		rdd := cRead(in.Dst, sz)
		return func(m *Machine) error {
			s, err := rs(m)
			if err != nil {
				return err
			}
			d, err := rdd(m)
			if err != nil {
				return err
			}
			m.setSubFlagsMask(d, s, d-s, mask, sign)
			return nil
		}

	case TST:
		if in.Src.Mode == ModeDReg {
			r := in.Src.Reg
			return func(m *Machine) error {
				m.setNZMask(m.D[r], mask, sign)
				return nil
			}
		}
		rd := cRead(in.Src, sz)
		return func(m *Machine) error {
			v, err := rd(m)
			if err != nil {
				return err
			}
			m.setNZMask(v, mask, sign)
			return nil
		}

	case BRA, BEQ, BNE, BLT, BLE, BGT, BGE, BHI, BLS, BCC, BCS, BMI, BPL:
		// The condition as a truth table over N, Z, V and C (SR's low
		// four bits), filled in from exec's own definition.
		var tbl uint16
		for sr := uint16(0); sr < 16; sr++ {
			if condition(in.Op, sr) {
				tbl |= 1 << sr
			}
		}
		tgt := uint32(in.Dst.Imm)
		return func(m *Machine) error {
			if tbl>>(m.SR&0xf)&1 != 0 {
				m.Cycles += cycBranchTak - cycReg
				m.PC = tgt
			} else {
				m.Cycles += cycBranchNot - cycReg
			}
			return nil
		}

	case DBRA:
		r := in.Src.Reg
		tgt := uint32(in.Dst.Imm)
		return func(m *Machine) error {
			m.D[r]--
			if m.D[r] != 0xffff_ffff {
				m.Cycles += cycDBRATaken - cycReg
				m.PC = tgt
			} else {
				m.Cycles += cycDBRAExit - cycReg
			}
			return nil
		}

	case JMP:
		tf := cControlTarget(in)
		return func(m *Machine) error {
			t, err := tf(m)
			if err != nil {
				return err
			}
			m.PC = t
			return nil
		}

	case JSR:
		tf := cControlTarget(in)
		return func(m *Machine) error {
			t, err := tf(m)
			if err != nil {
				return err
			}
			if err := m.push(m.PC); err != nil {
				return err
			}
			m.PC = t
			return nil
		}

	case RTS:
		return func(m *Machine) error {
			pc, err := m.pop()
			if err != nil {
				return err
			}
			m.PC = pc
			return nil
		}

	case RTE:
		return func(m *Machine) error {
			if m.SR&FlagS == 0 {
				return m.Exception(VecPrivilege)
			}
			sr, err := m.pop()
			if err != nil {
				return err
			}
			pc, err := m.pop()
			if err != nil {
				return err
			}
			m.applySR(uint16(sr))
			m.PC = pc
			return nil
		}

	case TRAP:
		vec := VecTrapBase + int(in.Vec)
		return func(m *Machine) error { return m.Exception(vec) }

	case ORSR, ANDSR: // SR = SR&and | or
		and, or := ^uint16(0), uint16(in.Src.Imm)
		if in.Op == ANDSR {
			and, or = or, 0
		}
		return func(m *Machine) error {
			if m.SR&FlagS == 0 {
				return m.Exception(VecPrivilege)
			}
			m.applySR(m.SR&and | or)
			return nil
		}

	case MOVEFSR:
		wr := cWrite(in.Dst, 4)
		return func(m *Machine) error {
			if m.SR&FlagS == 0 {
				return m.Exception(VecPrivilege)
			}
			return wr(m, uint32(m.SR))
		}

	case MOVETSR:
		rd := cRead(in.Src, 4)
		return func(m *Machine) error {
			if m.SR&FlagS == 0 {
				return m.Exception(VecPrivilege)
			}
			v, err := rd(m)
			if err != nil {
				return err
			}
			m.applySR(uint16(v))
			return nil
		}

	case HALT:
		return func(m *Machine) error {
			m.halted = true
			return ErrHalted
		}

	case KCALL:
		vec := in.Vec
		return func(m *Machine) error {
			s := m.services[vec]
			if s == nil {
				return m.Exception(VecIllegal)
			}
			m.Cycles += s(m)
			m.horizon = 0
			return nil
		}

	case MOVEM:
		if run := cMovem(in, pc); run != nil {
			return run
		}
	}

	// Everything else — STOP, MOVEC, the MOVEM forms cMovem leaves, FP,
	// CAS, multiply/divide, bit ops, NOT/NEG/EXT/PEA and logic or shifts
	// into anything but a data register — executes through the reference
	// switch.
	return cSlow(pc)
}

// cMovem compiles MOVEM.L as one block transfer, its register list and
// address form resolved here: addr = A[r]&keep + disp (absolute keeps
// no register, -(An) starts a block below An), with execMovem's
// write-back. A block ramBlock does not admit whole runs execMovem
// itself; the forms nothing emits (registers to (An)+, memory to -(An),
// indexed) get no body, and nil sends them to cSlow.
func cMovem(in *Instr, pc uint32) runFn {
	var dl, al []uint8 // data registers, then address registers, ascending
	for r := uint8(0); r < 8; r++ {
		if in.Mask&(1<<r) != 0 {
			dl = append(dl, r)
		}
		if in.Mask&(0x100<<r) != 0 {
			al = append(al, r)
		}
	}
	n := len(dl) + len(al)
	size := 4 * uint32(n)
	toMem, o := in.Dir == 0, in.Src
	if toMem {
		o = in.Dst
	}
	base, keep, disp := o.Reg, ^uint32(0), uint32(0)
	switch {
	case o.Mode == ModeInd:
	case o.Mode == ModeDisp:
		disp = uint32(o.Imm)
	case o.Mode == ModeAbs:
		keep, disp = 0, uint32(o.Imm)
	case toMem && o.Mode == ModePreDec:
		disp = -size
	case !toMem && o.Mode == ModePostInc:
	default:
		return nil
	}
	step := o.Mode == ModePreDec || o.Mode == ModePostInc
	return func(m *Machine) error {
		addr := m.A[base]&keep + disp
		if !m.ramBlock(addr, size) {
			return m.execMovem(&m.Code[pc])
		}
		b := m.Mem[addr:]
		if toMem {
			if step {
				m.A[base] = addr
			}
			for i, r := range dl {
				binary.BigEndian.PutUint32(b[4*i:], m.D[r])
			}
			for i, r := range al {
				binary.BigEndian.PutUint32(b[4*(len(dl)+i):], m.A[r])
			}
		} else {
			for i, r := range dl {
				m.D[r] = binary.BigEndian.Uint32(b[4*i:])
			}
			for i, r := range al {
				m.A[r] = binary.BigEndian.Uint32(b[4*(len(dl)+i):])
			}
			if step {
				m.A[base] = addr + size
			}
		}
		m.chargeMem(n)
		return nil
	}
}

// cControlTarget compiles JMP/JSR target resolution, mirroring
// Machine.controlTarget and jumpTarget: a populated Src operand
// selects the 68020 memory-indirect form, and so do the Dst modes that
// do not name a target directly. The cell is read as a long data
// operand (cRead), so in user state the quaspace bounds apply to it.
func cControlTarget(in *Instr) readFn {
	o := in.Src
	switch {
	case o.Mode == ModeNone:
		o = in.Dst
		switch o.Mode {
		case ModeAbs, ModeImm:
			t := uint32(o.Imm)
			return func(*Machine) (uint32, error) { return t, nil }
		case ModeAReg, ModeInd:
			r := o.Reg
			return func(m *Machine) (uint32, error) { return m.A[r], nil }
		case ModeDReg:
			r := o.Reg
			return func(m *Machine) (uint32, error) { return m.D[r], nil }
		case ModeDisp:
			r, d := o.Reg, uint32(o.Imm)
			return func(m *Machine) (uint32, error) { return m.A[r] + d, nil }
		}
	case !o.Mode.IsMemory(): // a register or immediate "cell"
		return func(m *Machine) (uint32, error) { return m.indirect(&o) }
	}
	// Indirect through memory: the executable-data-structure ready queue
	// jumps through addresses stored in TTEs.
	return cRead(o, 4)
}
