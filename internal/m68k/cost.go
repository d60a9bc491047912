package m68k

// Cycle cost model.
//
// The paper's measurements are instruction path lengths multiplied by
// a 68020-style cost per instruction at a configured clock rate
// (Section 6.1: the Quamachine runs 1-50 MHz; 16 MHz with one memory
// wait state emulates a SUN 3/160). We use base costs in the style of
// the published 68020 cache-case timings; every memory reference adds
// cycMemRef plus the configured wait states (charged in
// Machine.Load/Store, so instructions with more memory operands cost
// proportionally more, as on real hardware). The model is documented
// rather than cycle-exact; DESIGN.md Section 4 states the calibration
// policy.
const (
	cycMemRef = 3 // bus cost of one memory reference before wait states

	// The base costs follow the published 68020 cache-case timings,
	// where instruction prefetch overlaps execution: register
	// operations are 2 cycles and operand-address calculation mostly
	// hides behind the bus.
	cycReg       = 2 // register-to-register ALU / move
	cycImm       = 1 // extra cost of an immediate extension word
	cycEA        = 1 // effective-address calculation for memory modes
	cycBranchTak = 5 // taken branch
	cycBranchNot = 3 // untaken branch
	cycDBRATaken = 5 // DBRA that loops
	cycDBRAExit  = 8 // DBRA that falls through
	cycJmp       = 4
	cycJsr       = 4 // plus the push memory reference
	cycRts       = 8 // includes internal sequencing beyond the pop
	cycRte       = 14
	cycTrap      = 14 // plus stack pushes and vector fetch
	cycException = 20 // interrupt/exception dispatch internal cost
	cycStop      = 8
	cycMovemBase = 6 // plus per-register memory references
	cycMovec     = 8
	cycSRop      = 8
	cycMulu      = 27
	cycDivu      = 42
	cycTas       = 10 // read-modify-write bus lock
	cycCas       = 12 // plus its memory references
	cycBitOp     = 4
	cycFpuMove   = 20
	cycFpuMovem  = 14 // per register, plus its memory references; the
	// paper quotes "hundred-plus bytes ... about 10 microseconds" for
	// a full FP context save at SUN 3/160 speed.
)

// baseCost returns the fixed cycle cost of an instruction, excluding
// memory references (those are charged as they happen).
func baseCost(i *Instr) uint64 {
	c := uint64(cycReg)
	switch i.Op {
	case NOP:
		c = 2
	case MULU:
		c = cycMulu
	case DIVU:
		c = cycDivu
	case JMP:
		c = cycJmp
	case JSR:
		c = cycJsr
	case RTS:
		c = cycRts
	case RTE:
		c = cycRte
	case TRAP:
		c = cycTrap
	case STOP:
		c = cycStop
	case MOVEM:
		c = cycMovemBase
	case MOVEC:
		c = cycMovec
	case ORSR, ANDSR, MOVEFSR, MOVETSR:
		c = cycSRop
	case TAS:
		c = cycTas
	case CAS:
		c = cycCas
	case BTST:
		c = cycBitOp
	case FMOVE:
		c = cycFpuMove
	case FMOVEM:
		c = cycMovemBase
	case KCALL:
		c = 4
	case HALT:
		c = 2
	}
	if i.Src.Mode == ModeImm {
		c += cycImm
	}
	if i.Src.Mode.IsMemory() {
		c += cycEA
	}
	if i.Dst.Mode.IsMemory() {
		c += cycEA
	}
	return c
}
