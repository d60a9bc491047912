package m68k

import (
	"errors"
	"math"
)

// ErrIdle is returned when the CPU is stopped waiting for an
// interrupt and no device has a scheduled event: simulated deadlock.
var ErrIdle = errors.New("m68k: stopped with no pending device events")

// Run executes until HALT, an unrecoverable error, or the cycle
// budget is exhausted.
//
// Nothing step() tests can change between two events (a device coming
// due, an interrupt posted, T set, STOP, a KCALL service, the cycle
// limit), so runHorizon folds the tests into Machine.horizon — the
// field states the rule that keeps it current — and the fast loop runs
// translated handlers, with no call frame between instructions, while
// the clock is short of it: it reads Cycles, horizon, PC and the cache
// line, nothing else. A boundary the loop cannot cross (an event is
// due, the slot is cold) goes to Step(), the reference path and the
// only place the conditions are acted on; TestRunEqualsSteps holds the
// two loops behaviourally identical.
func (m *Machine) Run(maxCycles uint64) error {
	limit := m.Cycles + maxCycles
	for {
		m.horizon = m.runHorizon(limit)
		ran := false
		for m.Cycles < m.horizon {
			xc, pc := m.xcache, uint(m.PC)
			if pc >= uint(len(xc)) {
				break
			}
			e := &xc[pc]
			run := e.run
			if run == nil {
				break
			}
			m.PC++
			m.Instrs++
			m.Cycles += e.cost
			ran = true
			if err := run(m); err != nil {
				var bf *BusFault
				if !errors.As(err, &bf) {
					return err
				}
				if err := m.fault(bf); err != nil {
					return err
				}
			}
		}
		if !ran {
			m.SlowSteps++
			if err := m.Step(); err != nil {
				return err
			}
		}
		if m.Cycles >= limit {
			return ErrCycleLimit
		}
	}
}

// Step executes one instruction (or dispatches one interrupt, or
// advances stopped time to the next device event). With a probe
// attached, each step's cycle and instruction delta is reported
// against the PC the step began at — the profiler's attribution and
// its program trace both come from that one report; without one,
// the wrapper is a single nil check.
func (m *Machine) Step() error {
	if m.Probe == nil {
		return m.step()
	}
	pc, c0, i0, idle := m.PC, m.Cycles, m.Instrs, m.stopped
	m.inStep = true
	err := m.step()
	m.inStep = false
	m.Probe.StepDone(pc, m.Cycles-c0, m.Instrs-i0, idle)
	return err
}

func (m *Machine) step() error {
	if m.halted {
		return ErrHalted
	}
	// Device poll fast path: nextPoll is a conservative lower bound on
	// the earliest pending device event (see tickDevice), so a single
	// compare replaces the per-device scan on the vast majority of
	// steps without ever missing a due tick.
	if m.nextPoll != 0 && m.nextPoll <= m.Cycles {
		m.pollDevices()
	}
	if m.pendIRQ != 0 {
		took, err := m.takeInterrupt()
		if err != nil {
			return err
		}
		if took {
			return nil
		}
	}
	if m.stopped {
		next := m.nextDeviceEvent()
		if next == 0 {
			return ErrIdle
		}
		if next > m.Cycles {
			m.Cycles = next
		}
		m.pollDevices()
		return nil
	}
	pc := m.PC
	if int(pc) >= len(m.Code) {
		return m.fault(&BusFault{Addr: pc, PC: pc})
	}
	e := &m.xcache[pc]
	if e.run == nil {
		m.translate(pc, e)
	}
	// Copy the cache line before running it: the handler itself may
	// grow code space (KCALL services synthesize code), reallocating
	// the xcache backing array out from under the pointer.
	run, op := e.run, e.op
	m.PC++
	m.Instrs++
	m.Cycles += e.cost
	traced := m.SR&FlagT != 0
	// A collapsed loop runs iterations only below the horizon: zeroed,
	// it keeps a Step one instruction, under a Probe too.
	m.horizon = 0
	if err := run(m); err != nil {
		var bf *BusFault
		if errors.As(err, &bf) {
			return m.fault(bf)
		}
		return err
	}
	// Trace exception after the traced instruction completes (the
	// debugger's step system call runs a stopped thread for exactly
	// one instruction this way, Section 4.3). RTE itself is not
	// traced so the stepper can return to the stepped thread cleanly.
	if traced && m.SR&FlagT != 0 && op != RTE {
		return m.Exception(VecTrace)
	}
	return nil
}

// fault converts a bus fault into a VM bus-error exception. If
// vectoring itself faults (no usable vector table) the fault is
// returned to the host: a double fault halts the simulation.
func (m *Machine) fault(bf *BusFault) error {
	if err := m.Exception(VecBusError); err != nil {
		m.halted = true
		return bf
	}
	return nil
}

// nextDeviceEvent returns the earliest scheduled device event time,
// or 0 if none.
func (m *Machine) nextDeviceEvent() uint64 {
	var next uint64
	for _, n := range m.devNext {
		if n != 0 && (next == 0 || n < next) {
			next = n
		}
	}
	return next
}

// runHorizon returns the cycle up to which Run may execute without
// consulting step(): 0 if any condition step() acts on holds now,
// otherwise the earlier of the cycle limit and the next device event.
// A masked interrupt is not such a condition (pendingLevel's rule,
// without its search); applySR zeroes the horizon when SR changes under one.
func (m *Machine) runHorizon(limit uint64) uint64 {
	if m.Probe != nil || m.halted || m.stopped ||
		m.pendIRQ>>(m.IPL()+1)|m.pendIRQ>>7 != 0 || m.SR&FlagT != 0 {
		return 0
	}
	if m.nextPoll != 0 && m.nextPoll < limit {
		return m.nextPoll
	}
	return limit
}

// RunUntil is a diagnostic helper: it steps until the instruction at
// code address target is about to execute, or the cycle budget is
// exhausted.
func (m *Machine) RunUntil(target uint32, maxCycles uint64) error {
	limit := m.Cycles + maxCycles
	for m.PC != target {
		if err := m.Step(); err != nil {
			return err
		}
		if m.Cycles >= limit {
			return ErrCycleLimit
		}
	}
	return nil
}

func trunc(v uint32, sz uint8) uint32 {
	switch sz {
	case 1:
		return v & 0xff
	case 2:
		return v & 0xffff
	default:
		return v
	}
}

// maskFor returns the value mask and sign-bit mask for an operand
// size, letting one flag helper serve all sizes without a per-call
// size switch (the closures in dispatch.go capture both at translate
// time).
func maskFor(sz uint8) (mask, sign uint32) {
	switch sz {
	case 1:
		return 0xff, 0x80
	case 2:
		return 0xffff, 0x8000
	default:
		return 0xffff_ffff, 0x8000_0000
	}
}

// The flag helpers build the new SR in a local and store it once: SR
// is a field, and one read-modify-write of it per flag chains every
// flag-setting instruction to the last through the host's
// store-to-load forwarding.

// setNZMask sets N and Z from v at the given width and clears V and C.
func (m *Machine) setNZMask(v, mask, sign uint32) {
	sr := m.SR &^ (FlagN | FlagZ | FlagV | FlagC)
	if v&mask == 0 {
		sr |= FlagZ
	}
	if v&sign != 0 {
		sr |= FlagN
	}
	m.SR = sr
}

// setAddFlagsMask sets CCR after r = a + b. Each flag is one test the
// compiler makes a conditional move, not a branch: the summing copy
// adds payload words here, and a branch on their signs mispredicts.
// The flags are gathered apart from SR and merged into it once, so the
// moves are not in the chain from one instruction's SR to the next's.
func (m *Machine) setAddFlagsMask(a, b, r, mask, sign uint32) {
	a, b, r = a&mask, b&mask, r&mask
	var f uint16
	if r == 0 {
		f |= FlagZ
	}
	if r&sign != 0 {
		f |= FlagN
	}
	// Overflow: the result's sign differs from both operands'.
	if (a^r)&(b^r)&sign != 0 {
		f |= FlagV
	}
	// Unsigned carry: r < a means the add wrapped (b is truncated to
	// the operand size, so r == a happens only when b == 0).
	if r < a {
		f |= FlagC | FlagX
	}
	m.SR = m.SR&^(FlagN|FlagZ|FlagV|FlagC|FlagX) | f
}

// setSubFlagsMask sets CCR after r = a - b (also used by CMP with
// a=dst, b=src), the way setAddFlagsMask does.
func (m *Machine) setSubFlagsMask(a, b, r, mask, sign uint32) {
	a, b, r = a&mask, b&mask, r&mask
	var f uint16
	if r == 0 {
		f |= FlagZ
	}
	if r&sign != 0 {
		f |= FlagN
	}
	// Overflow: the operands' signs differ and the result's is not a's.
	if (a^b)&(a^r)&sign != 0 {
		f |= FlagV
	}
	if b > a {
		f |= FlagC | FlagX
	}
	m.SR = m.SR&^(FlagN|FlagZ|FlagV|FlagC|FlagX) | f
}

// condition reports whether a branch on op is taken under status
// register sr.
func condition(op Op, sr uint16) bool {
	n := sr&FlagN != 0
	z := sr&FlagZ != 0
	v := sr&FlagV != 0
	c := sr&FlagC != 0
	switch op {
	case BRA:
		return true
	case BEQ:
		return z
	case BNE:
		return !z
	case BLT:
		return n != v
	case BLE:
		return z || n != v
	case BGT:
		return !z && n == v
	case BGE:
		return n == v
	case BHI:
		return !c && !z
	case BLS:
		return c || z
	case BCC:
		return !c
	case BCS:
		return c
	case BMI:
		return n
	case BPL:
		return !n
	}
	return false
}

// ea computes the memory address of a memory-mode operand, applying
// post-increment/pre-decrement side effects.
func (m *Machine) ea(o *Operand, sz uint8) (uint32, error) {
	switch o.Mode {
	case ModeInd:
		return m.A[o.Reg], nil
	case ModePostInc:
		a := m.A[o.Reg]
		m.A[o.Reg] += uint32(sz)
		return a, nil
	case ModePreDec:
		m.A[o.Reg] -= uint32(sz)
		return m.A[o.Reg], nil
	case ModeDisp:
		return m.A[o.Reg] + uint32(o.Imm), nil
	case ModeIdx:
		idx := m.D[o.Idx&7]
		if o.Idx >= 8 {
			idx = m.A[o.Idx&7]
		}
		scale := uint32(o.Scale)
		if scale == 0 {
			scale = 1
		}
		return m.A[o.Reg] + uint32(o.Imm) + idx*scale, nil
	case ModeAbs:
		return uint32(o.Imm), nil
	}
	return 0, &BusFault{Addr: 0xffff_ffff, PC: m.PC}
}

// checkUserAccess enforces the quaspace bounds in user state.
func (m *Machine) checkUserAccess(addr uint32) error {
	if m.SR&FlagS == 0 && m.ULimit != 0 {
		if addr < m.UBase || addr >= m.ULimit {
			return &BusFault{Addr: addr, PC: m.PC}
		}
	}
	return nil
}

func (m *Machine) readOp(o *Operand, sz uint8) (uint32, error) {
	switch o.Mode {
	case ModeImm:
		return trunc(uint32(o.Imm), sz), nil
	case ModeDReg:
		return trunc(m.D[o.Reg], sz), nil
	case ModeAReg:
		return m.A[o.Reg], nil
	default:
		addr, err := m.ea(o, sz)
		if err != nil {
			return 0, err
		}
		if err := m.checkUserAccess(addr); err != nil {
			return 0, err
		}
		return m.Load(addr, sz)
	}
}

func (m *Machine) writeReg(o *Operand, sz uint8, v uint32) {
	if o.Mode == ModeAReg {
		m.A[o.Reg] = v
		return
	}
	switch sz {
	case 1:
		m.D[o.Reg] = m.D[o.Reg]&^0xff | v&0xff
	case 2:
		m.D[o.Reg] = m.D[o.Reg]&^0xffff | v&0xffff
	default:
		m.D[o.Reg] = v
	}
}

func (m *Machine) writeOp(o *Operand, sz uint8, v uint32) error {
	switch o.Mode {
	case ModeDReg, ModeAReg:
		m.writeReg(o, sz, v)
		return nil
	case ModeImm:
		return &BusFault{Addr: 0xffff_fffe, PC: m.PC}
	default:
		addr, err := m.ea(o, sz)
		if err != nil {
			return err
		}
		if err := m.checkUserAccess(addr); err != nil {
			return err
		}
		return m.Store(addr, sz, v)
	}
}

// rmw performs a read-modify-write on the destination operand,
// computing the EA only once (as the hardware does).
func (m *Machine) rmw(o *Operand, sz uint8, f func(old uint32) uint32) (old, nw uint32, err error) {
	switch o.Mode {
	case ModeDReg:
		old = trunc(m.D[o.Reg], sz)
		nw = f(old)
		m.writeReg(o, sz, nw)
		return old, nw, nil
	case ModeAReg:
		old = m.A[o.Reg]
		nw = f(old)
		m.A[o.Reg] = nw
		return old, nw, nil
	default:
		addr, err := m.ea(o, sz)
		if err != nil {
			return 0, 0, err
		}
		if err := m.checkUserAccess(addr); err != nil {
			return 0, 0, err
		}
		old, err = m.Load(addr, sz)
		if err != nil {
			return 0, 0, err
		}
		nw = f(old)
		return old, nw, m.Store(addr, sz, nw)
	}
}

func (m *Machine) exec(in *Instr) error {
	sz := in.Size()
	mask, sign := maskFor(sz)
	switch in.Op {
	case RTE, STOP, MOVEC, ORSR, ANDSR, MOVEFSR, MOVETSR:
		// Privileged: in user state the instruction takes the privilege
		// violation and does nothing else.
		if m.SR&FlagS == 0 {
			return m.Exception(VecPrivilege)
		}
	}
	switch in.Op {
	case NOP:
		return nil

	case MOVE:
		v, err := m.readOp(&in.Src, sz)
		if err != nil {
			return err
		}
		if err := m.writeOp(&in.Dst, sz, v); err != nil {
			return err
		}
		if in.Dst.Mode != ModeAReg {
			m.setNZMask(v, mask, sign)
		}
		return nil

	case LEA:
		addr, err := m.ea(&in.Src, sz)
		if err != nil {
			return err
		}
		m.A[in.Dst.Reg] = addr
		return nil

	case CLR:
		if err := m.writeOp(&in.Dst, sz, 0); err != nil {
			return err
		}
		m.setNZMask(0, mask, sign)
		return nil

	case ADD:
		s, err := m.readOp(&in.Src, sz)
		if err != nil {
			return err
		}
		old, nw, err := m.rmw(&in.Dst, sz, func(o uint32) uint32 { return o + s })
		if err != nil {
			return err
		}
		if in.Dst.Mode != ModeAReg {
			m.setAddFlagsMask(old, s, nw, mask, sign)
		}
		return nil

	case SUB:
		s, err := m.readOp(&in.Src, sz)
		if err != nil {
			return err
		}
		old, nw, err := m.rmw(&in.Dst, sz, func(o uint32) uint32 { return o - s })
		if err != nil {
			return err
		}
		if in.Dst.Mode != ModeAReg {
			m.setSubFlagsMask(old, s, nw, mask, sign)
		}
		return nil

	case MULU:
		s, err := m.readOp(&in.Src, sz)
		if err != nil {
			return err
		}
		_, nw, err := m.rmw(&in.Dst, 4, func(o uint32) uint32 { return o * s })
		if err != nil {
			return err
		}
		m.setNZMask(nw, 0xffff_ffff, 0x8000_0000)
		return nil

	case DIVU:
		s, err := m.readOp(&in.Src, sz)
		if err != nil {
			return err
		}
		if s == 0 {
			return m.Exception(VecZeroDivide)
		}
		_, nw, err := m.rmw(&in.Dst, 4, func(o uint32) uint32 { return o / s })
		if err != nil {
			return err
		}
		m.setNZMask(nw, 0xffff_ffff, 0x8000_0000)
		return nil

	case AND, OR, EOR:
		s, err := m.readOp(&in.Src, sz)
		if err != nil {
			return err
		}
		op := in.Op
		_, nw, err := m.rmw(&in.Dst, sz, func(o uint32) uint32 {
			switch op {
			case AND:
				return o & s
			case OR:
				return o | s
			default:
				return o ^ s
			}
		})
		if err != nil {
			return err
		}
		m.setNZMask(nw, mask, sign)
		return nil

	case LSL, LSR:
		s, err := m.readOp(&in.Src, sz)
		if err != nil {
			return err
		}
		s &= 63
		m.Cycles += uint64(s) / 2 // shifts cost ~2 cycles per 4 bits
		op := in.Op
		_, nw, err := m.rmw(&in.Dst, sz, func(o uint32) uint32 {
			if op == LSL {
				return o << s
			}
			return trunc(o, sz) >> s
		})
		if err != nil {
			return err
		}
		m.setNZMask(nw, mask, sign)
		return nil

	case CMP:
		s, err := m.readOp(&in.Src, sz)
		if err != nil {
			return err
		}
		d, err := m.readOp(&in.Dst, sz)
		if err != nil {
			return err
		}
		m.setSubFlagsMask(d, s, d-s, mask, sign)
		return nil

	case TST:
		v, err := m.readOp(&in.Src, sz)
		if err != nil {
			return err
		}
		m.setNZMask(v, mask, sign)
		return nil

	case BTST:
		bitn, err := m.readOp(&in.Src, 4)
		if err != nil {
			return err
		}
		bit := uint32(1) << (bitn % (uint32(sz) * 8))
		v, err := m.readOp(&in.Dst, sz)
		if err != nil {
			return err
		}
		m.SR &^= FlagZ
		if v&bit == 0 {
			m.SR |= FlagZ
		}
		return nil

	case TAS:
		old, _, err := m.rmw(&in.Dst, 1, func(o uint32) uint32 { return o | 0x80 })
		if err != nil {
			return err
		}
		m.setNZMask(old, 0xff, 0x80)
		return nil

	case CAS:
		// cas Dc,Du,<ea>: if <ea> == Dc { <ea> = Du; Z=1 } else { Dc = <ea>; Z=0 }
		dc := trunc(m.D[in.Src.Reg], sz)
		du := trunc(m.D[in.Fp], sz)
		addr, err := m.ea(&in.Dst, sz)
		if err != nil {
			return err
		}
		if err := m.checkUserAccess(addr); err != nil {
			return err
		}
		cur, err := m.Load(addr, sz)
		if err != nil {
			return err
		}
		m.SR &^= FlagZ | FlagN | FlagV | FlagC
		if cur == dc {
			m.SR |= FlagZ
			return m.Store(addr, sz, du)
		}
		m.writeReg(&Operand{Mode: ModeDReg, Reg: in.Src.Reg}, sz, cur)
		if (cur-dc)&sign != 0 {
			m.SR |= FlagN
		}
		return nil

	case BRA, BEQ, BNE, BLT, BLE, BGT, BGE, BHI, BLS, BCC, BCS, BMI, BPL:
		if condition(in.Op, m.SR) {
			m.Cycles += cycBranchTak - cycReg
			m.PC = uint32(in.Dst.Imm)
		} else {
			m.Cycles += cycBranchNot - cycReg
		}
		return nil

	case DBRA:
		// Decrement the full register and loop while it has not
		// passed zero. (The hardware uses the low word; templates in
		// this codebase always use counts < 2^16 so the semantics
		// coincide.)
		m.D[in.Src.Reg]--
		if m.D[in.Src.Reg] != 0xffff_ffff {
			m.Cycles += cycDBRATaken - cycReg
			m.PC = uint32(in.Dst.Imm)
		} else {
			m.Cycles += cycDBRAExit - cycReg
		}
		return nil

	case JMP:
		t, err := m.controlTarget(in)
		if err != nil {
			return err
		}
		m.PC = t
		return nil

	case JSR:
		t, err := m.controlTarget(in)
		if err != nil {
			return err
		}
		if err := m.push(m.PC); err != nil {
			return err
		}
		m.PC = t
		return nil

	case RTS:
		pc, err := m.pop()
		if err != nil {
			return err
		}
		m.PC = pc
		return nil

	case RTE:
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

	case TRAP:
		return m.Exception(VecTrapBase + int(in.Vec))

	case STOP:
		m.applySR(uint16(in.Src.Imm))
		m.stopped = true
		m.horizon = 0
		return nil

	case HALT:
		m.halted = true
		return ErrHalted

	case MOVEM:
		return m.execMovem(in)

	case MOVEC:
		if in.Src.Mode != ModeNone {
			v, err := m.readOp(&in.Src, 4)
			if err != nil {
				return err
			}
			m.setCtrl(in.Vec, v)
			return nil
		}
		return m.writeOp(&in.Dst, 4, m.ctrl(in.Vec))

	case ORSR:
		m.applySR(m.SR | uint16(in.Src.Imm))
		return nil

	case ANDSR:
		m.applySR(m.SR & uint16(in.Src.Imm))
		return nil

	case MOVEFSR:
		return m.writeOp(&in.Dst, 4, uint32(m.SR))

	case MOVETSR:
		v, err := m.readOp(&in.Src, 4)
		if err != nil {
			return err
		}
		m.applySR(uint16(v))
		return nil

	case FMOVE:
		if m.FPTrap {
			m.PC-- // re-execute this instruction after the handler returns
			return m.Exception(VecLineF)
		}
		return m.execFP(in)

	case FMOVEM:
		if m.FPTrap {
			m.PC--
			return m.Exception(VecLineF)
		}
		return m.execFmovem(in)

	case KCALL:
		s := m.services[in.Vec]
		if s == nil {
			return m.Exception(VecIllegal)
		}
		m.Cycles += s(m)
		return nil
	}
	return m.Exception(VecIllegal)
}

// ctrl reads the control register MOVEC names.
func (m *Machine) ctrl(c uint8) uint32 {
	switch c {
	case CtrlVBR:
		return m.VBR
	case CtrlUSP:
		return m.USP
	case CtrlSSP:
		return m.SSP
	case CtrlUBase:
		return m.UBase
	case CtrlULimit:
		return m.ULimit
	case CtrlFPTrap:
		if m.FPTrap {
			return 1
		}
	}
	return 0
}

// setCtrl writes the control register MOVEC names.
func (m *Machine) setCtrl(c uint8, v uint32) {
	switch c {
	case CtrlVBR:
		m.VBR = v
	case CtrlUSP:
		m.USP = v
	case CtrlSSP:
		m.SSP = v
	case CtrlUBase:
		m.UBase = v
	case CtrlULimit:
		m.ULimit = v
	case CtrlFPTrap:
		m.FPTrap = v != 0
	}
}

// controlTarget resolves a JMP/JSR target. A populated Src operand
// selects the 68020 memory-indirect form: the target address is
// loaded from the memory cell Src designates. The executable ready
// queue (Figure 3) uses "jmp ([next])" through a TTE cell so queue
// manipulation is a plain memory store.
func (m *Machine) controlTarget(in *Instr) (uint32, error) {
	if in.Src.Mode != ModeNone {
		return m.indirect(&in.Src)
	}
	return m.jumpTarget(&in.Dst)
}

// indirect loads a control-transfer target from the memory cell o
// designates. The load is a data access like any other: in user state
// the quaspace bounds apply.
func (m *Machine) indirect(o *Operand) (uint32, error) {
	addr, err := m.ea(o, 4)
	if err != nil {
		return 0, err
	}
	if err := m.checkUserAccess(addr); err != nil {
		return 0, err
	}
	return m.Load(addr, 4)
}

// jumpTarget resolves a control-transfer target to a code address.
func (m *Machine) jumpTarget(o *Operand) (uint32, error) {
	switch o.Mode {
	case ModeAbs, ModeImm:
		return uint32(o.Imm), nil
	case ModeAReg, ModeInd:
		return m.A[o.Reg], nil
	case ModeDReg:
		return m.D[o.Reg], nil
	case ModeDisp:
		return m.A[o.Reg] + uint32(o.Imm), nil
	default:
		// Indirect through memory: the executable-data-structure
		// ready queue jumps through addresses stored in TTEs.
		return m.indirect(o)
	}
}

// execMovem transfers the masked register set to or from memory.
// Mask bits 0-7 select D0-D7, bits 8-15 select A0-A7. Registers are
// transferred in ascending order at ascending addresses, each address
// checked against the quaspace just before its access.
func (m *Machine) execMovem(in *Instr) error {
	if in.Dir == 0 { // registers -> memory
		addr, err := m.ea(&in.Dst, 4)
		if err != nil {
			return err
		}
		if in.Dst.Mode == ModePreDec {
			// EA already decremented by 4; extend to full block.
			n := popcount16(in.Mask)
			m.A[in.Dst.Reg] -= uint32(4 * (n - 1))
			addr = m.A[in.Dst.Reg]
		}
		for r := 0; r < 16; r++ {
			if in.Mask&(1<<uint(r)) == 0 {
				continue
			}
			v := m.D[r&7]
			if r >= 8 {
				v = m.A[r&7]
			}
			if err := m.checkUserAccess(addr); err != nil {
				return err
			}
			if err := m.Store(addr, 4, v); err != nil {
				return err
			}
			addr += 4
		}
		return nil
	}
	// memory -> registers
	addr, err := m.ea(&in.Src, 4)
	if err != nil {
		return err
	}
	for r := 0; r < 16; r++ {
		if in.Mask&(1<<uint(r)) == 0 {
			continue
		}
		if err := m.checkUserAccess(addr); err != nil {
			return err
		}
		v, err := m.Load(addr, 4)
		if err != nil {
			return err
		}
		if r >= 8 {
			m.A[r&7] = v
		} else {
			m.D[r&7] = v
		}
		addr += 4
	}
	if in.Src.Mode == ModePostInc {
		m.A[in.Src.Reg] = addr
	}
	return nil
}

func popcount16(v uint16) int {
	n := 0
	for ; v != 0; v &= v - 1 {
		n++
	}
	return n
}

// loadF64 reads an 8-byte IEEE 754 value.
func (m *Machine) loadF64(addr uint32) (float64, error) {
	hi, err := m.Load(addr, 4)
	if err != nil {
		return 0, err
	}
	lo, err := m.Load(addr+4, 4)
	if err != nil {
		return 0, err
	}
	return math.Float64frombits(uint64(hi)<<32 | uint64(lo)), nil
}

// storeF64 writes an 8-byte IEEE 754 value.
func (m *Machine) storeF64(addr uint32, f float64) error {
	b := math.Float64bits(f)
	if err := m.Store(addr, 4, uint32(b>>32)); err != nil {
		return err
	}
	return m.Store(addr+4, 4, uint32(b))
}

func (m *Machine) fpSrc(in *Instr) (float64, error) {
	switch in.Src.Mode {
	case ModeImm:
		return float64(in.Src.Imm), nil
	case ModeDReg:
		return float64(int32(m.D[in.Src.Reg])), nil
	case ModeNone:
		return m.FP[in.Fp], nil
	default:
		addr, err := m.ea(&in.Src, 8)
		if err != nil {
			return 0, err
		}
		if err := m.checkUserAccess(addr); err != nil {
			return 0, err
		}
		return m.loadF64(addr)
	}
}

func (m *Machine) execFP(in *Instr) error {
	if in.Op == FMOVE && in.Dst.Mode != ModeNone {
		// fmove fpN,<ea>
		addr, err := m.ea(&in.Dst, 8)
		if err != nil {
			return err
		}
		if err := m.checkUserAccess(addr); err != nil {
			return err
		}
		return m.storeF64(addr, m.FP[in.Fp])
	}
	s, err := m.fpSrc(in)
	if err != nil {
		return err
	}
	m.FP[in.Fp] = s
	return nil
}

// execFmovem saves or restores the masked FP register set. Each
// register occupies a 12-byte extended-precision slot as on the
// MC68881 (the paper: "the hundred-plus bytes of information takes
// about 10 microseconds to save"); we store the float64 image in the
// first 8 bytes and charge the third memory reference for the
// remaining 4.
func (m *Machine) execFmovem(in *Instr) error {
	if in.Dir == 0 { // registers -> memory
		addr, err := m.ea(&in.Dst, 4)
		if err != nil {
			return err
		}
		for r := 0; r < 8; r++ {
			if in.Mask&(1<<uint(r)) == 0 {
				continue
			}
			m.Cycles += cycFpuMovem
			if err := m.checkUserAccess(addr); err != nil {
				return err
			}
			if err := m.storeF64(addr, m.FP[r]); err != nil {
				return err
			}
			m.chargeMem(1) // third reference of the 12-byte slot
			addr += 12
		}
		return nil
	}
	addr, err := m.ea(&in.Src, 4)
	if err != nil {
		return err
	}
	for r := 0; r < 8; r++ {
		if in.Mask&(1<<uint(r)) == 0 {
			continue
		}
		m.Cycles += cycFpuMovem
		if err := m.checkUserAccess(addr); err != nil {
			return err
		}
		f, err := m.loadF64(addr)
		if err != nil {
			return err
		}
		m.FP[r] = f
		m.chargeMem(1)
		addr += 12
	}
	return nil
}
