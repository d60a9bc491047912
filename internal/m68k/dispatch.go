package m68k

import (
	"bytes"
	"encoding/binary"
)

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
// Granularity is one instruction: the kernel's preemption-window story
// (DESIGN.md §3a) depends on every instruction boundary being an
// interrupt point, and Run keeps it one with a single compare per
// boundary — the clock against Machine.horizon, which whatever posts an
// interrupt or moves a device event earlier zeroes (machine.go states
// the rule). The one exception is a recognized copy and search loop,
// Piumarta and Riccardi's selective inlining taken from the handler pair
// to whole iterations: a head's handler runs a pass of any of the three
// copy loops kio emits as one host copy (kio.block_copy's MOVEM groups,
// emitCopy's summing pass, which also adds the group into its checksum,
// and its long pass of eight MOVE.L), and iterations of the name
// lookup's byte scan and backwards compare as one host search. A call
// runs only whole iterations below the horizon, so no event comes due
// at a boundary inside one, that touch only plain RAM the current state
// may use, so no access inside one could fault or reach a device, and a
// copy only apart blocks; when not one qualifies, the head runs its own
// body. Step zeroes the horizon, so under a Probe (the profiler) every
// instruction is still one step. Straight-line blocks in general
// were measured and do not pay (docs/PERFORMANCE.md).
//
// exec.go's switch is the ISA: complete, the only definition of every
// instruction, and the fuzzer's oracle. The closures here are a cache
// in front of it, kept only for the (op, operand-mode) shapes the
// benchmark workloads execute (at least 0.5 % of some workload's
// handler calls, a collapsed loop's call counting as one;
// docs/PERFORMANCE.md has the op mix and the
// experiments that priced the alternatives). Every other shape runs
// through exec itself (cSlow), so its cycle accounting, flags and
// fault order cannot drift. A specialized shape must be bit-identical
// to exec in all three: each handler replicates its exec.go case's
// memory-access order and calls the same flag helper.
//
// Operands are resolved at translate time too, and no handler calls
// another: a handler reads and writes its own operands, so an
// instruction is one indirect call. The four register-relative modes —
// (An), (An)+, -(An), d(An) — are one form, addr = A[r]+disp then
// A[r] += inc (rel); absolute and indexed are another, addr = disp or
// A[r] + disp + X*scale with the index register and scale fixed here
// (absIdx); a data register or an immediate is a third (regImm). Each
// long shape the workloads run has a body of its own over these forms
// (folding register-relative into absIdx cost thread_ops 9–10 %). The
// byte and word shapes share one body per pair of operand kinds, which
// takes either memory form (memForm) and the size at run time. Every
// other operand combination runs through exec (cSlow), and a Bcc's
// condition is a truth table over N, Z, V and C filled in from exec's.
// A handler checks each address against the quaspace itself, as exec's
// readOp and writeOp do, then tries an inlined RAM helper in machine.go
// (loadRAM32/storeRAM32, or loadRAM/storeRAM for any size) and calls
// Machine.Load or Machine.Store, the only way to a device, the injector,
// Kick and the bus fault, when it returns false. JSR's and RTS's stack
// slot is such an operand. RTE and Exception move a frame in one piece
// when both longs are plain RAM. MOVEM asks ramBlock once per block and
// leaves any other to execMovem.
//
// TestDispatchMatchesExec (random, over the whole op list) and
// TestDispatchMatchesExecDirected (every body, driven into devices,
// injected faults, the end of RAM and the quaspace bounds) hold
// handlers to the switch one instruction at a time, TestStackMatchesMove
// holds push and pop to MOVE.L, `make inline` keeps the RAM helpers
// inlined, TestRunEqualsSteps holds the two step loops to each other,
// TestCopyLoopMatchesSteps and TestSearchLoopMatchesSteps hold a
// collapsed call to the instructions it stands for, internal/bench's
// TestCollapsedRunMatchesSteps does so for every benchmark program, and
// TestGoldenTables holds every table byte-equal to bench/baseline.

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
// the opcode (the step loop's trace-bit handling needs to know RTE
// without re-reading code space) and, in what would be padding, the
// span of a collapsed loop. A write into any slot a head could span
// invalidates it (invalidateCode). A zero xent is cold; it is 24 bytes.
type xent struct {
	run  runFn
	cost uint64
	op   Op
	span uint8 // slots a collapsed loop's head runs, itself included; 0 otherwise
}

// runFn executes one translated instruction. It runs with PC already
// advanced past the instruction (as exec.go does) and returns the
// same errors exec would: a *BusFault to vector through the bus-error
// exception, or a terminal simulation error.
type runFn func(m *Machine) error

// translate fills the cache line for pc from the instruction
// currently installed there.
func (m *Machine) translate(pc uint32, e *xent) {
	in := &m.Code[pc]
	m.Translations++
	e.cost = baseCost(in)
	e.op = in.Op
	e.run, e.span = compile(in, pc), 0
	if s := loopAt(m.Code, pc); s.form != "" {
		e.run, e.span = s.collapse(pc, m.Code[pc:pc+s.span], e.run), uint8(s.span)
	}
}

// rel is the four register-relative memory modes as one form — addr =
// A[r]+disp, then A[r] += inc — so a body has no mode branch: (An) is
// (0, 0), (An)+ is (0, +sz), -(An) is (-sz, -sz) and d(An) is (d, 0).
type rel struct {
	disp, inc uint32
	r         uint8
}

func relOperand(o Operand, sz uint8) (rel, bool) {
	switch o.Mode {
	case ModeInd:
		return rel{r: o.Reg}, true
	case ModePostInc:
		return rel{inc: uint32(sz), r: o.Reg}, true
	case ModePreDec:
		return rel{disp: -uint32(sz), inc: -uint32(sz), r: o.Reg}, true
	case ModeDisp:
		return rel{disp: uint32(o.Imm), r: o.Reg}, true
	}
	return rel{}, false
}

// addr steps the register and returns the operand's address, as exec's
// ea does.
func (f rel) addr(m *Machine) uint32 {
	a := m.A[f.r] + f.disp
	m.A[f.r] += f.inc
	return a
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

// memForm is a memory operand in either form, for the bodies that serve
// both: addr takes one branch between them.
type memForm struct {
	rel   rel
	ai    absIdx
	isRel bool
}

func memOperand(o Operand, sz uint8) (memForm, bool) {
	if f, ok := relOperand(o, sz); ok {
		return memForm{rel: f, isRel: true}, true
	}
	f, ok := absIdxOperand(o)
	return memForm{ai: f}, ok
}

func (f memForm) addr(m *Machine) uint32 {
	if f.isRel {
		return f.rel.addr(m)
	}
	return f.ai.addr(m)
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
	r := in.Dst.Reg // the destination register, where there is one
	toD := in.Dst.Mode == ModeDReg
	long := sz == 4
	ri, regimm := regImmOperand(in.Src, sz)
	sr, srel := relOperand(in.Src, sz)
	dr, drel := relOperand(in.Dst, sz)
	sf, sabs := absIdxOperand(in.Src)
	sm, smem := memOperand(in.Src, sz)
	dm, dmem := memOperand(in.Dst, sz)
	switch in.Op {
	case MOVE:
		if run := cMove(in); run != nil {
			return run
		}

	case LEA:
		switch {
		case srel:
			return func(m *Machine) error {
				m.A[r] = sr.addr(m)
				return nil
			}
		case sabs:
			return func(m *Machine) error {
				m.A[r] = sf.addr(m)
				return nil
			}
		}

	case CLR:
		switch {
		case toD:
			return func(m *Machine) error {
				m.D[r] &^= mask
				m.SR = m.SR&^(FlagN|FlagZ|FlagV|FlagC) | FlagZ
				return nil
			}
		case long && drel:
			return func(m *Machine) error {
				dst := dr.addr(m)
				if err := m.checkUserAccess(dst); err != nil {
					return err
				}
				if !m.storeRAM32(dst, 0) {
					if err := m.Store(dst, 4, 0); err != nil {
						return err
					}
				}
				m.SR = m.SR&^(FlagN|FlagZ|FlagV|FlagC) | FlagZ
				return nil
			}
		case dmem:
			return func(m *Machine) error {
				dst := dm.addr(m)
				if err := m.checkUserAccess(dst); err != nil {
					return err
				}
				if !m.storeRAM(dst, sz, 0) {
					if err := m.Store(dst, sz, 0); err != nil {
						return err
					}
				}
				m.SR = m.SR&^(FlagN|FlagZ|FlagV|FlagC) | FlagZ
				return nil
			}
		}

	case ADD, SUB:
		if run := cAddSub(in); run != nil {
			return run
		}

	case AND, OR, EOR:
		if !toD || !regimm {
			break
		}
		op := in.Op
		return func(m *Machine) error {
			s, old := ri.val(m), m.D[r]&mask
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

	case LSL, LSR:
		if !toD || !regimm {
			break
		}
		op := in.Op
		return func(m *Machine) error {
			s, o := ri.val(m)&63, m.D[r]&mask
			m.Cycles += uint64(s) / 2 // shifts cost ~2 cycles per 4 bits
			nw := o >> s
			if op == LSL {
				nw = o << s
			}
			m.D[r] = m.D[r]&^mask | nw&mask
			m.setNZMask(nw, mask, sign)
			return nil
		}

	case CMP:
		switch {
		case toD && regimm:
			return func(m *Machine) error {
				s, d := ri.val(m), m.D[r]&mask
				m.setSubFlagsMask(d, s, d-s, mask, sign)
				return nil
			}
		case toD && long && sabs:
			return func(m *Machine) error {
				src := sf.addr(m)
				if err := m.checkUserAccess(src); err != nil {
					return err
				}
				s, ok := m.loadRAM32(src)
				if !ok {
					var err error
					if s, err = m.Load(src, 4); err != nil {
						return err
					}
				}
				d := m.D[r]
				m.setSubFlagsMask(d, s, d-s, 0xffff_ffff, 0x8000_0000)
				return nil
			}
		case toD && smem:
			return func(m *Machine) error {
				src := sm.addr(m)
				if err := m.checkUserAccess(src); err != nil {
					return err
				}
				s, ok := m.loadRAM(src, sz)
				if !ok {
					var err error
					if s, err = m.Load(src, sz); err != nil {
						return err
					}
				}
				d := m.D[r] & mask
				m.setSubFlagsMask(d, s, d-s, mask, sign)
				return nil
			}
		case in.Dst.Mode == ModeAReg && long && smem:
			return func(m *Machine) error {
				src := sm.addr(m)
				if err := m.checkUserAccess(src); err != nil {
					return err
				}
				s, ok := m.loadRAM32(src)
				if !ok {
					var err error
					if s, err = m.Load(src, 4); err != nil {
						return err
					}
				}
				d := m.A[r]
				m.setSubFlagsMask(d, s, d-s, 0xffff_ffff, 0x8000_0000)
				return nil
			}
		}

	case TST:
		switch {
		case in.Src.Mode == ModeDReg:
			x := in.Src.Reg
			return func(m *Machine) error {
				m.setNZMask(m.D[x], mask, sign)
				return nil
			}
		case long && srel:
			return func(m *Machine) error {
				src := sr.addr(m)
				if err := m.checkUserAccess(src); err != nil {
					return err
				}
				v, ok := m.loadRAM32(src)
				if !ok {
					var err error
					if v, err = m.Load(src, 4); err != nil {
						return err
					}
				}
				m.setNZMask(v, 0xffff_ffff, 0x8000_0000)
				return nil
			}
		case smem:
			return func(m *Machine) error {
				src := sm.addr(m)
				if err := m.checkUserAccess(src); err != nil {
					return err
				}
				v, ok := m.loadRAM(src, sz)
				if !ok {
					var err error
					if v, err = m.Load(src, sz); err != nil {
						return err
					}
				}
				m.setNZMask(v, mask, sign)
				return nil
			}
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
		x := in.Src.Reg
		tgt := uint32(in.Dst.Imm)
		return func(m *Machine) error {
			m.D[x]--
			if m.D[x] != 0xffff_ffff {
				m.Cycles += cycDBRATaken - cycReg
				m.PC = tgt
			} else {
				m.Cycles += cycDBRAExit - cycReg
			}
			return nil
		}

	case JMP, JSR:
		// JSR to a constant target, as exec's jumpTarget reads it; and
		// JMP through a cell addressed absolute or indexed (the executable
		// data structures' "jmp ([next])"), read as exec's indirect does.
		jsr := in.Op == JSR
		if sabs && !jsr {
			return func(m *Machine) error {
				src := sf.addr(m)
				if err := m.checkUserAccess(src); err != nil {
					return err
				}
				t, ok := m.loadRAM32(src)
				if !ok {
					var err error
					if t, err = m.Load(src, 4); err != nil {
						return err
					}
				}
				m.PC = t
				return nil
			}
		}
		if !jsr || in.Src.Mode != ModeNone || in.Dst.Mode != ModeAbs && in.Dst.Mode != ModeImm {
			break
		}
		t := uint32(in.Dst.Imm)
		// The stack slot is push open-coded, as RTS's is pop.
		return func(m *Machine) error {
			a := m.A[7] - 4
			m.A[7] = a
			if err := m.checkUserAccess(a); err != nil {
				return err
			}
			if !m.storeRAM32(a, m.PC) {
				if err := m.Store(a, 4, m.PC); err != nil {
					return err
				}
			}
			m.PC = t
			return nil
		}

	case RTS:
		return func(m *Machine) error {
			a := m.A[7]
			m.A[7] = a + 4
			if err := m.checkUserAccess(a); err != nil {
				return err
			}
			t, ok := m.loadRAM32(a)
			if !ok {
				var err error
				if t, err = m.Load(a, 4); err != nil {
					return err
				}
			}
			m.PC = t
			return nil
		}

	case RTE:
		// Supervisor state, so no quaspace check; any other frame is exec's.
		return func(m *Machine) error {
			if m.SR&FlagS == 0 {
				return m.Exception(VecPrivilege)
			}
			a := m.A[7]
			if !m.ram(a, 4) || !m.ram(a+4, 4) {
				return m.exec(&m.Code[pc])
			}
			m.A[7] = a + 8
			m.chargeMem(2)
			m.applySR(uint16(binary.BigEndian.Uint32(m.Mem[a:])))
			m.PC = binary.BigEndian.Uint32(m.Mem[a+4:])
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

	// The interrupt-masking prologue's "move sr,-(sp)" and its
	// epilogue's "move (sp)+,sr". Both run in supervisor state only,
	// where the quaspace check always passes, so they make none.
	case MOVEFSR:
		if f, ok := relOperand(in.Dst, 4); ok {
			return func(m *Machine) error {
				if m.SR&FlagS == 0 {
					return m.Exception(VecPrivilege)
				}
				a, v := f.addr(m), uint32(m.SR)
				if m.storeRAM32(a, v) {
					return nil
				}
				return m.Store(a, 4, v)
			}
		}

	case MOVETSR:
		if f, ok := relOperand(in.Src, 4); ok {
			return func(m *Machine) error {
				if m.SR&FlagS == 0 {
					return m.Exception(VecPrivilege)
				}
				a := f.addr(m)
				v, ok := m.loadRAM32(a)
				if !ok {
					var err error
					if v, err = m.Load(a, 4); err != nil {
						return err
					}
				}
				m.applySR(uint16(v))
				return nil
			}
		}

	// sw_in's and sw_out's register and immediate forms; supervisor
	// state, so no quaspace check.
	case MOVEC:
		c := in.Vec
		switch {
		case in.Src.Mode == ModeNone && toD:
			return func(m *Machine) error {
				if m.SR&FlagS == 0 {
					return m.Exception(VecPrivilege)
				}
				m.D[r] = m.ctrl(c)
				return nil
			}
		case long && regimm:
			return func(m *Machine) error {
				if m.SR&FlagS == 0 {
					return m.Exception(VecPrivilege)
				}
				m.setCtrl(c, ri.val(m))
				return nil
			}
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

	// Every other shape executes through the reference switch: STOP,
	// FP, CAS, multiply/divide, BTST, the MOVEM forms cMovem
	// leaves, and the operand combinations of the ops above that no
	// workload runs at 0.5 % (docs/PERFORMANCE.md).
	return cSlow(pc)
}

// cMove compiles MOVE. The long moves the workloads run have a body
// each, so each body is the plain sequence exec's MOVE makes of its
// operands: source step, check, load, destination step, check, store,
// and N and Z only after the store. Other sizes share one body per
// pair of operand kinds, with the size taken at run time. A data
// register and an immediate source into Dn have a body each: a shared
// body's register-or-immediate branch made MOVE.L Dn,Dn slower, and an
// immediate's N and Z are known here.
func cMove(in *Instr) runFn {
	sz := in.Size()
	mask, sign := maskFor(sz)
	r, x := in.Dst.Reg, in.Src.Reg
	toD, toA := in.Dst.Mode == ModeDReg, in.Dst.Mode == ModeAReg
	fromA := in.Src.Mode == ModeAReg
	ri, regimm := regImmOperand(in.Src, sz)
	sr, srel := relOperand(in.Src, sz)
	dr, drel := relOperand(in.Dst, sz)
	sf, sabs := absIdxOperand(in.Src)
	df, dabs := absIdxOperand(in.Dst)
	sm, smem := memOperand(in.Src, sz)
	dm, dmem := memOperand(in.Dst, sz)
	if sz == 4 {
		switch {
		case srel && drel:
			// The long memory-to-memory move (the long-form copy loop).
			return func(m *Machine) error {
				src := sr.addr(m)
				if err := m.checkUserAccess(src); err != nil {
					return err
				}
				v, ok := m.loadRAM32(src)
				if !ok {
					var err error
					if v, err = m.Load(src, 4); err != nil {
						return err
					}
				}
				dst := dr.addr(m)
				if err := m.checkUserAccess(dst); err != nil {
					return err
				}
				if !m.storeRAM32(dst, v) {
					if err := m.Store(dst, 4, v); err != nil {
						return err
					}
				}
				m.setNZMask(v, 0xffff_ffff, 0x8000_0000)
				return nil
			}
		case toD && in.Src.Mode == ModeDReg:
			return func(m *Machine) error {
				v := m.D[x]
				m.D[r] = v
				m.setNZMask(v, 0xffff_ffff, 0x8000_0000)
				return nil
			}
		case toD && in.Src.Mode == ModeImm:
			v, nz := ri.imm, uint16(0)
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
		case toD && fromA:
			return func(m *Machine) error {
				v := m.A[x]
				m.D[r] = v
				m.setNZMask(v, 0xffff_ffff, 0x8000_0000)
				return nil
			}
		case toD && sabs:
			return func(m *Machine) error {
				src := sf.addr(m)
				if err := m.checkUserAccess(src); err != nil {
					return err
				}
				v, ok := m.loadRAM32(src)
				if !ok {
					var err error
					if v, err = m.Load(src, 4); err != nil {
						return err
					}
				}
				m.D[r] = v
				m.setNZMask(v, 0xffff_ffff, 0x8000_0000)
				return nil
			}
		case toD && srel:
			return func(m *Machine) error {
				src := sr.addr(m)
				if err := m.checkUserAccess(src); err != nil {
					return err
				}
				v, ok := m.loadRAM32(src)
				if !ok {
					var err error
					if v, err = m.Load(src, 4); err != nil {
						return err
					}
				}
				m.D[r] = v
				m.setNZMask(v, 0xffff_ffff, 0x8000_0000)
				return nil
			}
		case toA && regimm: // MOVEA sets no flags
			return func(m *Machine) error {
				m.A[r] = ri.val(m)
				return nil
			}
		case toA && srel:
			return func(m *Machine) error {
				src := sr.addr(m)
				if err := m.checkUserAccess(src); err != nil {
					return err
				}
				v, ok := m.loadRAM32(src)
				if !ok {
					var err error
					if v, err = m.Load(src, 4); err != nil {
						return err
					}
				}
				m.A[r] = v
				return nil
			}
		case toA && sabs:
			return func(m *Machine) error {
				src := sf.addr(m)
				if err := m.checkUserAccess(src); err != nil {
					return err
				}
				v, ok := m.loadRAM32(src)
				if !ok {
					var err error
					if v, err = m.Load(src, 4); err != nil {
						return err
					}
				}
				m.A[r] = v
				return nil
			}
		case dabs && regimm:
			return func(m *Machine) error {
				v := ri.val(m)
				dst := df.addr(m)
				if err := m.checkUserAccess(dst); err != nil {
					return err
				}
				if !m.storeRAM32(dst, v) {
					if err := m.Store(dst, 4, v); err != nil {
						return err
					}
				}
				m.setNZMask(v, 0xffff_ffff, 0x8000_0000)
				return nil
			}
		case drel && regimm:
			return func(m *Machine) error {
				v := ri.val(m)
				dst := dr.addr(m)
				if err := m.checkUserAccess(dst); err != nil {
					return err
				}
				if !m.storeRAM32(dst, v) {
					if err := m.Store(dst, 4, v); err != nil {
						return err
					}
				}
				m.setNZMask(v, 0xffff_ffff, 0x8000_0000)
				return nil
			}
		case toA && fromA:
			return func(m *Machine) error {
				m.A[r] = m.A[x]
				return nil
			}
		case dmem && fromA: // a pointer pushed or stored into a record
			return func(m *Machine) error {
				v := m.A[x]
				dst := dm.addr(m)
				if err := m.checkUserAccess(dst); err != nil {
					return err
				}
				if !m.storeRAM32(dst, v) {
					if err := m.Store(dst, 4, v); err != nil {
						return err
					}
				}
				m.setNZMask(v, 0xffff_ffff, 0x8000_0000)
				return nil
			}
		}
	}
	switch {
	case toD && smem:
		return func(m *Machine) error {
			src := sm.addr(m)
			if err := m.checkUserAccess(src); err != nil {
				return err
			}
			v, ok := m.loadRAM(src, sz)
			if !ok {
				var err error
				if v, err = m.Load(src, sz); err != nil {
					return err
				}
			}
			m.D[r] = m.D[r]&^mask | v&mask
			m.setNZMask(v, mask, sign)
			return nil
		}
	case dmem && regimm:
		return func(m *Machine) error {
			v := ri.val(m)
			dst := dm.addr(m)
			if err := m.checkUserAccess(dst); err != nil {
				return err
			}
			if !m.storeRAM(dst, sz, v) {
				if err := m.Store(dst, sz, v); err != nil {
					return err
				}
			}
			m.setNZMask(v, mask, sign)
			return nil
		}
	case dmem && smem:
		return func(m *Machine) error {
			src := sm.addr(m)
			if err := m.checkUserAccess(src); err != nil {
				return err
			}
			v, ok := m.loadRAM(src, sz)
			if !ok {
				var err error
				if v, err = m.Load(src, sz); err != nil {
					return err
				}
			}
			dst := dm.addr(m)
			if err := m.checkUserAccess(dst); err != nil {
				return err
			}
			if !m.storeRAM(dst, sz, v) {
				if err := m.Store(dst, sz, v); err != nil {
					return err
				}
			}
			m.setNZMask(v, mask, sign)
			return nil
		}
	}
	return nil
}

// cAddSub compiles ADD and SUB: a data register or immediate source into
// Dn in a body that calls nothing it cannot inline, a long
// register-relative source into Dn, a long address register added into
// Dn, a data register or immediate into An, and a data register or
// immediate into memory, a read-modify-write with the address computed
// once.
func cAddSub(in *Instr) runFn {
	sz := in.Size()
	mask, sign := maskFor(sz)
	sub := in.Op == SUB
	r := in.Dst.Reg
	ri, regimm := regImmOperand(in.Src, sz)
	sr, srel := relOperand(in.Src, sz)
	dm, dmem := memOperand(in.Dst, sz)
	switch {
	case in.Dst.Mode == ModeDReg && regimm && sub:
		return func(m *Machine) error {
			s, old := ri.val(m), m.D[r]&mask
			nw := old - s
			m.D[r] = m.D[r]&^mask | nw&mask
			m.setSubFlagsMask(old, s, nw, mask, sign)
			return nil
		}
	case in.Dst.Mode == ModeDReg && regimm:
		return func(m *Machine) error {
			s, old := ri.val(m), m.D[r]&mask
			nw := old + s
			m.D[r] = m.D[r]&^mask | nw&mask
			m.setAddFlagsMask(old, s, nw, mask, sign)
			return nil
		}
	case in.Dst.Mode == ModeDReg && srel && sz == 4: // SUB.L d(An),Dn is the one shape the workloads run here
		return func(m *Machine) error {
			src := sr.addr(m)
			if err := m.checkUserAccess(src); err != nil {
				return err
			}
			s, ok := m.loadRAM32(src)
			if !ok {
				var err error
				if s, err = m.Load(src, 4); err != nil {
					return err
				}
			}
			old := m.D[r]
			nw := old + s
			if sub {
				nw = old - s
			}
			m.D[r] = nw
			if sub {
				m.setSubFlagsMask(old, s, nw, 0xffff_ffff, 0x8000_0000)
			} else {
				m.setAddFlagsMask(old, s, nw, 0xffff_ffff, 0x8000_0000)
			}
			return nil
		}
	case in.Dst.Mode == ModeAReg && regimm: // ADDA/SUBA set no flags
		return func(m *Machine) error {
			if sub {
				m.A[r] -= ri.val(m)
			} else {
				m.A[r] += ri.val(m)
			}
			return nil
		}
	case dmem && regimm:
		return func(m *Machine) error {
			s, addr := ri.val(m), dm.addr(m)
			if err := m.checkUserAccess(addr); err != nil {
				return err
			}
			old, ok := m.loadRAM(addr, sz)
			if !ok {
				var err error
				if old, err = m.Load(addr, sz); err != nil {
					return err
				}
			}
			nw := old + s
			if sub {
				nw = old - s
			}
			if !m.storeRAM(addr, sz, nw) {
				if err := m.Store(addr, sz, nw); err != nil {
					return err
				}
			}
			if sub {
				m.setSubFlagsMask(old, s, nw, mask, sign)
			} else {
				m.setAddFlagsMask(old, s, nw, mask, sign)
			}
			return nil
		}
	}
	return nil
}

// The MOVEM register sets the synthesizer emits, each with a body of
// its own in cMovem: kio's block copy group, net_intr's save, and the
// integer context sw_out and sw_in keep in the TTE.
const (
	MovemCopyRegs    = 0x38f8 // D3-D7/A3-A5
	MovemIntrRegs    = 0x0707 // D0-D2/A0-A2
	MovemContextRegs = 0x7fff // D0-D7/A0-A6
)

// MovemHasBody reports whether in is a MOVEM with a body of its own:
// one of the three register sets in a form cMovem compiles. Every
// other MOVEM runs through exec.
func MovemHasBody(in Instr) bool { return in.Op == MOVEM && cMovem(&in, 0) != nil }

// cMovem compiles MOVEM.L of one of the three register sets as one
// block transfer, its address form resolved here: addr = A[r]&keep +
// disp (absolute keeps no register, -(An) starts a block below An).
// Each set and direction has a written-out body that moves its
// registers at constant offsets of one slice of RAM, and writes back as
// execMovem does: -(An) before the stores and (An)+ after the loads, so
// a base register in the list ends up holding the address. A block
// ramBlock does not admit whole runs execMovem itself. Any other mask,
// and the forms nothing emits (registers to (An)+, memory to -(An),
// indexed), get no body, and nil sends them to cSlow. Generic bodies (a
// loop over the mask's registers or over its runs, a switch over runs
// unrolled by fallthrough) were measured and do not pay; constant
// offsets do (docs/PERFORMANCE.md).
func cMovem(in *Instr, pc uint32) runFn {
	toMem, o := in.Dir == 0, in.Src
	if toMem {
		o = in.Dst
	}
	size := 4 * uint32(popcount16(in.Mask))
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
	be := binary.BigEndian
	switch {
	case in.Mask == MovemCopyRegs && toMem:
		return func(m *Machine) error {
			addr := m.A[base]&keep + disp
			if !m.ramBlock(addr, 32) {
				return m.execMovem(&m.Code[pc])
			}
			if step {
				m.A[base] = addr
			}
			b := (*[32]byte)(m.Mem[addr:])
			be.PutUint32(b[0:], m.D[3])
			be.PutUint32(b[4:], m.D[4])
			be.PutUint32(b[8:], m.D[5])
			be.PutUint32(b[12:], m.D[6])
			be.PutUint32(b[16:], m.D[7])
			be.PutUint32(b[20:], m.A[3])
			be.PutUint32(b[24:], m.A[4])
			be.PutUint32(b[28:], m.A[5])
			m.chargeMem(8)
			return nil
		}
	case in.Mask == MovemCopyRegs:
		return func(m *Machine) error {
			addr := m.A[base]&keep + disp
			if !m.ramBlock(addr, 32) {
				return m.execMovem(&m.Code[pc])
			}
			b := (*[32]byte)(m.Mem[addr:])
			m.D[3] = be.Uint32(b[0:])
			m.D[4] = be.Uint32(b[4:])
			m.D[5] = be.Uint32(b[8:])
			m.D[6] = be.Uint32(b[12:])
			m.D[7] = be.Uint32(b[16:])
			m.A[3] = be.Uint32(b[20:])
			m.A[4] = be.Uint32(b[24:])
			m.A[5] = be.Uint32(b[28:])
			if step {
				m.A[base] = addr + 32
			}
			m.chargeMem(8)
			return nil
		}
	case in.Mask == MovemIntrRegs && toMem:
		return func(m *Machine) error {
			addr := m.A[base]&keep + disp
			if !m.ramBlock(addr, 24) {
				return m.execMovem(&m.Code[pc])
			}
			if step {
				m.A[base] = addr
			}
			b := (*[24]byte)(m.Mem[addr:])
			be.PutUint32(b[0:], m.D[0])
			be.PutUint32(b[4:], m.D[1])
			be.PutUint32(b[8:], m.D[2])
			be.PutUint32(b[12:], m.A[0])
			be.PutUint32(b[16:], m.A[1])
			be.PutUint32(b[20:], m.A[2])
			m.chargeMem(6)
			return nil
		}
	case in.Mask == MovemIntrRegs:
		return func(m *Machine) error {
			addr := m.A[base]&keep + disp
			if !m.ramBlock(addr, 24) {
				return m.execMovem(&m.Code[pc])
			}
			b := (*[24]byte)(m.Mem[addr:])
			m.D[0] = be.Uint32(b[0:])
			m.D[1] = be.Uint32(b[4:])
			m.D[2] = be.Uint32(b[8:])
			m.A[0] = be.Uint32(b[12:])
			m.A[1] = be.Uint32(b[16:])
			m.A[2] = be.Uint32(b[20:])
			if step {
				m.A[base] = addr + 24
			}
			m.chargeMem(6)
			return nil
		}
	case in.Mask == MovemContextRegs && toMem:
		return func(m *Machine) error {
			addr := m.A[base]&keep + disp
			if !m.ramBlock(addr, 60) {
				return m.execMovem(&m.Code[pc])
			}
			if step {
				m.A[base] = addr
			}
			b := (*[60]byte)(m.Mem[addr:])
			be.PutUint32(b[0:], m.D[0])
			be.PutUint32(b[4:], m.D[1])
			be.PutUint32(b[8:], m.D[2])
			be.PutUint32(b[12:], m.D[3])
			be.PutUint32(b[16:], m.D[4])
			be.PutUint32(b[20:], m.D[5])
			be.PutUint32(b[24:], m.D[6])
			be.PutUint32(b[28:], m.D[7])
			be.PutUint32(b[32:], m.A[0])
			be.PutUint32(b[36:], m.A[1])
			be.PutUint32(b[40:], m.A[2])
			be.PutUint32(b[44:], m.A[3])
			be.PutUint32(b[48:], m.A[4])
			be.PutUint32(b[52:], m.A[5])
			be.PutUint32(b[56:], m.A[6])
			m.chargeMem(15)
			return nil
		}
	case in.Mask == MovemContextRegs:
		return func(m *Machine) error {
			addr := m.A[base]&keep + disp
			if !m.ramBlock(addr, 60) {
				return m.execMovem(&m.Code[pc])
			}
			b := (*[60]byte)(m.Mem[addr:])
			m.D[0] = be.Uint32(b[0:])
			m.D[1] = be.Uint32(b[4:])
			m.D[2] = be.Uint32(b[8:])
			m.D[3] = be.Uint32(b[12:])
			m.D[4] = be.Uint32(b[16:])
			m.D[5] = be.Uint32(b[20:])
			m.D[6] = be.Uint32(b[24:])
			m.D[7] = be.Uint32(b[28:])
			m.A[0] = be.Uint32(b[32:])
			m.A[1] = be.Uint32(b[36:])
			m.A[2] = be.Uint32(b[40:])
			m.A[3] = be.Uint32(b[44:])
			m.A[4] = be.Uint32(b[48:])
			m.A[5] = be.Uint32(b[52:])
			m.A[6] = be.Uint32(b[56:])
			if step {
				m.A[base] = addr + 60
			}
			m.chargeMem(15)
			return nil
		}
	}
	return nil
}

// maxCopyGroups bounds the groups of a copy loop the dispatcher
// collapses, and with it how far before a written slot invalidateCode
// looks for a head whose span covers it (loopReach).
const maxCopyGroups = 8

// loopShape is a loop loopAt recognized: its form ("movem", "sum",
// "long", "scan" or "compare"; "" for none) and the slots an iteration
// runs, its head included. A copy moves groups 32-byte groups from (An)+
// to (Am), counts passes down in Dn and sums into Ds; a scan reads
// (An)+ a byte at a time; a compare moves a long from -(An) into Ds,
// compares it with (Am)+ and counts down in Dn.
type loopShape struct {
	form           string
	span, groups   uint32
	sz             uint8
	an, am, dn, ds uint8
}

// loopReach is the most slots a loop headed by in could span, so a
// write that far after in may change whether it collapses; 0 when in
// heads none.
func loopReach(in *Instr) uint32 {
	switch {
	case in.Op == MOVEM && in.Mask == MovemCopyRegs && in.Dir == 1:
		return 2*maxCopyGroups + 2
	case in.Op == MOVE && in.Src.Mode == ModePostInc && in.Dst.Mode == ModePostInc:
		return 9
	case in.Op == MOVE && in.Src.Mode == ModePreDec && in.Dst.Mode == ModeDReg:
		return 4
	case in.Op == TST && in.Src.Mode == ModePostInc:
		return 2
	}
	return 0
}

// loopAt recognizes the loops headed at code[pc] that kio and the name
// lookup emit:
//   - kio.block_copy's: k groups, the i-th MOVEM.L (An)+,D3-D7/A3-A5 then
//     MOVEM.L D3-D7/A3-A5,32i(Am) (the first to (Am)), then LEA 32k(Am),Am;
//   - emitCopy's summing pass: one such group, ADD.L D3-D7 then A3-A5
//     into Ds in that order, then LEA 32(Am),Am;
//   - emitCopy's long pass: eight MOVE.L (An)+,(Am)+;
//   - fs_lookup's scan: TST.B (An)+, then BNE back to it;
//   - fs_lookup's long compare: MOVE.L -(An),Ds, CMP.L (Am)+,Ds and BNE
//     out. Its byte tail, at most three bytes, runs instruction by
//     instruction: of the benchmark's workloads only file_rw's set-up
//     meets one.
//
// Each but the scan ends in DBRA Dn back to pc. An and Am differ, Ds
// differs from Dn, and a MOVEM pass's An, Am, Dn and Ds are apart from
// the registers its group loads. Any other code is the zero loopShape.
func loopAt(code []Instr, pc uint32) loopShape {
	code = code[pc:]
	at := func(i uint32) Instr { // Sz 0 and 4 both read 4; past the end, nothing
		if int(i) >= len(code) {
			return Instr{}
		}
		c := code[i]
		c.Sz = c.Size()
		return c
	}
	is := func(i uint32, want Instr) bool {
		want.Sz = want.Size()
		return at(i) == want
	}
	h := at(0)
	s := loopShape{an: h.Src.Reg, am: h.Dst.Reg}
	end := uint32(8) // the DBRA's slot
	switch {
	case h.Op == TST && h.Sz == 1 && h.Src.Mode == ModePostInc:
		if !is(1, Instr{Op: BNE, Dst: Abs(pc)}) {
			return loopShape{}
		}
		return loopShape{form: "scan", span: 2, sz: 1, an: h.Src.Reg}
	case h.Op == MOVE && h.Src.Mode == ModePreDec && h.Dst.Mode == ModeDReg:
		s.form, s.sz, s.am, s.ds, end = "compare", 4, at(1).Src.Reg, h.Dst.Reg, 3
		if h.Sz != 4 || !is(1, Instr{Op: CMP, Src: PostInc(s.am), Dst: D(s.ds)}) ||
			!is(2, Instr{Op: BNE, Dst: Abs(uint32(at(2).Dst.Imm))}) {
			return loopShape{}
		}
	case h.Op == MOVE:
		s.form, s.groups = "long", 1
		for i := range end {
			if !is(i, Instr{Op: MOVE, Src: PostInc(s.an), Dst: PostInc(s.am)}) {
				return loopShape{}
			}
		}
	default:
		ld := Instr{Op: MOVEM, Mask: MovemCopyRegs, Dir: 1, Src: PostInc(s.an)}
		s.form, s.am = "movem", at(1).Dst.Reg
		group := func(k uint32) bool {
			st := Instr{Op: MOVEM, Mask: MovemCopyRegs, Dst: Disp(int32(32*k), s.am)}
			return is(2*k, ld) && (is(2*k+1, st) || k == 0 && is(1, Instr{Op: MOVEM, Mask: MovemCopyRegs, Dst: Ind(s.am)}))
		}
		for s.groups < maxCopyGroups && group(s.groups) {
			s.groups++
		}
		end = 2*s.groups + 1
		if s.groups == 1 && at(2).Op == ADD {
			s.form, s.ds, end = "sum", at(2).Dst.Reg, 11
			for i, r := range []Operand{D(3), D(4), D(5), D(6), D(7), A(3), A(4), A(5)} {
				if !is(uint32(2+i), Instr{Op: ADD, Src: r, Dst: D(s.ds)}) {
					return loopShape{}
				}
			}
		}
		if s.groups == 0 || !is(end-1, Instr{Op: LEA, Src: Disp(int32(32*s.groups), s.am), Dst: A(s.am)}) {
			return loopShape{}
		}
	}
	s.dn, s.span = at(end).Src.Reg, end+1
	const regs = MovemCopyRegs
	movem, sum := s.form == "movem", s.form == "sum"
	if s.an == s.am || !is(end, Instr{Op: DBRA, Src: D(s.dn), Dst: Abs(pc)}) ||
		(movem || sum) && regs>>(8+s.an)&1|regs>>(8+s.am)&1|regs>>s.dn&1 != 0 ||
		sum && regs>>s.ds&1 != 0 || (sum || s.form == "compare") && s.ds == s.dn {
		return loopShape{}
	}
	return s
}

// collapse is the handler of the loop s that loopAt found at pc: code
// its slots, head the first instruction's own body, which it runs when
// not even one iteration may collapse. Either way it counts once a call.
func (s loopShape) collapse(pc uint32, code []Instr, head runFn) runFn {
	switch s.form {
	case "scan":
		return scanLoop(pc, s, code, head)
	case "compare":
		return cmpLoop(pc, s, code, head)
	}
	return copyLoop(pc, s, code[1:], head)
}

// copyLoop runs a whole copy pass as one host copy and leaves registers,
// memory, PC, SR, Instrs, Cycles and MemRefs as the instructions' own
// handlers would: a MOVEM pass leaves its last group in D3-D7/A3-A5, the
// summing pass also adds that group's longs into Ds in memory order,
// taking the CCR from the last add, and the long pass sets N and Z from
// its last long. A pass runs its head instead if it could end at or past
// the horizon (its DBRA's costlier outcome), touches anything but RAM
// the current state may use, or has overlapping blocks.
func copyLoop(pc uint32, s loopShape, body []Instr, head runFn) runFn {
	after := uint32(len(body)) // captured as a value: body lies in Code
	n, refs, exit := 32*s.groups, 16*int(s.groups), pc+after+1
	var rest uint64 // the base cost of the slots after the head
	for i := range body {
		rest += baseCost(&body[i])
	}
	long, sum, an, am, dn, ds := s.form == "long", s.form == "sum", s.an, s.am, s.dn, s.ds
	be := binary.BigEndian
	return func(m *Machine) error {
		src, dst := m.A[an], m.A[am]
		if m.Cycles+rest+uint64(refs)*m.memCost()+cycDBRAExit-cycReg >= m.horizon ||
			!m.ramBlock(src, n) || !m.ramBlock(dst, n) || src < dst+n && dst < src+n {
			m.CollapseFallbacks++
			return head(m)
		}
		copy(m.Mem[dst:dst+n], m.Mem[src:src+n])
		g := (*[32]byte)(m.Mem[dst+n-32:]) // the last group
		if long {
			m.setNZMask(be.Uint32(g[28:]), 0xffff_ffff, 0x8000_0000)
		} else {
			m.D[3] = be.Uint32(g[0:])
			m.D[4] = be.Uint32(g[4:])
			m.D[5] = be.Uint32(g[8:])
			m.D[6] = be.Uint32(g[12:])
			m.D[7] = be.Uint32(g[16:])
			m.A[3] = be.Uint32(g[20:])
			m.A[4] = be.Uint32(g[24:])
			m.A[5] = be.Uint32(g[28:])
		}
		if sum {
			old := m.D[ds] + m.D[3] + m.D[4] + m.D[5] + m.D[6] + m.D[7] + m.A[3] + m.A[4]
			m.D[ds] = old + m.A[5]
			m.setAddFlagsMask(old, m.A[5], old+m.A[5], 0xffff_ffff, 0x8000_0000)
		}
		m.A[an], m.A[am] = src+n, dst+n
		m.Instrs += uint64(after)
		m.Cycles += rest
		m.chargeMem(refs)
		m.CollapsedPasses++
		m.D[dn]--
		if m.D[dn] != 0xffff_ffff {
			m.Cycles += cycDBRATaken - cycReg
			m.PC = pc
		} else {
			m.Cycles += cycDBRAExit - cycReg
			m.PC = exit
		}
		return nil
	}
}

// scanLoop runs a byte scan's iterations with one IndexByte: every byte
// up to and including the NUL, or as many as are plain RAM the current
// state may use and end below the horizon. An, SR (N and Z from the last
// byte, X kept), PC and the counters end as TST.B and BNE would leave
// them, each BNE charged its own outcome.
func scanLoop(pc uint32, s loopShape, code []Instr, head runFn) runFn {
	tst, bne := baseCost(&code[0]), baseCost(&code[1])
	taken, last := tst+bne+cycBranchTak-cycReg, tst+bne+cycBranchNot-cycReg // but the memory reference
	an := s.an
	return func(m *Machine) error {
		a, c, mc := m.A[an], m.Cycles-tst, m.memCost() // c: the clock as the first TST began
		_, room := m.ramRoom(a)
		var fit uint64 // the nonzero bytes whose iterations end below the horizon
		if m.horizon > c {
			fit = min((m.horizon-c-1)/(taken+mc), uint64(room))
		}
		// One byte more than fit, in case it is the NUL, whose untaken
		// BNE is cheaper.
		z := -1
		if n := uint32(min(fit+1, uint64(room))); n > 0 {
			z = bytes.IndexByte(m.Mem[a:a+n], 0)
		}
		k, end, final := fit, pc, taken
		if z >= 0 && (uint64(z) < fit || c+fit*(taken+mc)+last+mc < m.horizon) {
			k, end, final = uint64(z)+1, pc+2, last
		}
		if k == 0 {
			m.CollapseFallbacks++
			return head(m)
		}
		m.A[an] = a + uint32(k)
		m.setNZMask(uint32(m.Mem[a+uint32(k)-1]), 0xff, 0x80)
		m.Cycles = c + (k-1)*(taken+mc) + final + mc
		m.Instrs += 2*k - 1
		m.MemRefs += k
		m.CollapsedPasses++
		m.PC = end
		return nil
	}
}

// cmpLoop runs a backwards long compare's iterations with one host
// compare loop: up to a mismatch, which leaves by the BNE, or the DBRA's
// exit, or as many as are plain RAM the current state may use and end
// below the horizon. The registers, SR (the last CMP's flags), PC and
// the counters end as the four instructions would leave them, each BNE
// and DBRA charged its outcome.
func cmpLoop(pc uint32, s loopShape, code []Instr, head runFn) runFn {
	move := baseCost(&code[0])
	body := move + baseCost(&code[1]) + baseCost(&code[2]) // but the branches' outcomes and memory references
	miss := body + cycBranchTak - cycReg
	more := body + cycBranchNot - cycReg + baseCost(&code[3]) + cycDBRATaken - cycReg
	exit := more + cycDBRAExit - cycDBRATaken
	out := uint32(code[2].Dst.Imm)
	an, am, dn, ds := s.an, s.am, s.dn, s.ds
	mask, sign := maskFor(4)
	be := binary.BigEndian
	return func(m *Machine) error {
		a, b, c, mc := m.A[an], m.A[am], m.Cycles-move, 2*m.memCost() // c: the clock as the first MOVE began
		below, _ := m.ramRoom(a)
		_, above := m.ramRoom(b)
		var fit uint64 // the iterations that go on and end below the horizon
		if m.horizon > c {
			fit = (m.horizon - c - 1) / (more + mc)
		}
		// One more than fit, in case a mismatch ends the loop sooner.
		n := uint32(min(uint64(min(below, above)/4), uint64(m.D[dn])+1, fit+1))
		k, mem := uint32(0), m.Mem // k: the equal longs
		for k < n && be.Uint32(mem[a-4*k-4:]) == be.Uint32(mem[b+4*k:]) {
			k++
		}
		last, end, dbras := more, pc, k
		switch {
		case k < n: // the next long differs
			last, end, k = miss, out, k+1
		case uint64(k) == uint64(m.D[dn])+1:
			last, end = exit, pc+4
		}
		if k > 0 && c+uint64(k-1)*(more+mc)+last+mc >= m.horizon {
			k, last, end, dbras = k-1, more, pc, k-1
		}
		if k == 0 {
			m.CollapseFallbacks++
			return head(m)
		}
		x, y := be.Uint32(mem[a-4*k:]), be.Uint32(mem[b+4*k-4:])
		m.A[an], m.A[am] = a-4*k, b+4*k
		m.D[ds] = x
		m.D[dn] -= dbras
		m.setSubFlagsMask(x, y, x-y, mask, sign)
		m.Cycles = c + uint64(k-1)*(more+mc) + last + mc
		m.Instrs += uint64(3*k + dbras - 1) // a MOVE, CMP and BNE an iteration, and the DBRAs
		m.MemRefs += 2 * uint64(k)
		m.CollapsedPasses++
		m.PC = end
		return nil
	}
}

// LoopAt translates the slot at pc if it is cold, as its first fetch
// would, and when the translation collapses a loop returns its form and
// the bytes a pass copies, or an iteration reads from each side;
// otherwise "" and 0.
func (m *Machine) LoopAt(pc uint32) (string, int) {
	e := &m.xcache[pc]
	if e.run == nil {
		m.translate(pc, e)
	}
	if e.span == 0 {
		return "", 0
	}
	s := loopAt(m.Code, pc)
	return s.form, 32*int(s.groups) + int(s.sz) // a copy has no sz, a search no groups
}
