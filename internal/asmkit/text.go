package asmkit

import (
	"fmt"
	"strconv"
	"strings"

	"synthesis/internal/m68k"
)

// Text assembler: the front end behind `quamon -program
// <file>`. It accepts a small m68k-style dialect covering the subset
// of the Quamachine ISA that guest workloads use, so a monitoring
// workload can be written as a text file instead of a Go builder
// function.
//
// Grammar, one instruction per line:
//
//	; comment                       (also //)
//	label:  move.l  #0x1234, d0     (label may share a line)
//	        move.l  d0, (a1)+
//	        cmp.l   #10, d0
//	        bne     label
//	        trap    #0
//	        kcall   #100
//
// Mnemonics (case-insensitive): move.l/.w/.b, lea, clr.l/.w/.b,
// add.l, sub.l, mulu, divu, and.l, or.l, eor.l, lsl.l, lsr.l,
// cmp.l/.w/.b, tst.l/.w/.b, the Bcc family (bra, beq, bne, blt, ble,
// bgt, bge, bhi, bls, bcc, bcs, bmi, bpl), dbra, jmp, jsr, rts, rte,
// trap, kcall, stop, halt, nop.
//
// Operands: dN and aN registers, #imm (decimal, 0x…, or $… hex),
// (aN), (aN)+, -(aN), disp(aN), and a bare number for an absolute
// address. Branches, dbra, and jmp take a label; jmp and jsr also
// accept a bare absolute address.

// Assemble parses the source text into a Builder ready to Link. All
// labels are resolved against the program's own label table; an
// undefined or duplicate label is an error, not a link-time panic.
func Assemble(src string) (*Builder, error) {
	b := New()
	for i, raw := range strings.Split(src, "\n") {
		line := raw
		if j := strings.Index(line, ";"); j >= 0 {
			line = line[:j]
		}
		if j := strings.Index(line, "//"); j >= 0 {
			line = line[:j]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		if j := strings.Index(line, ":"); j >= 0 && isIdent(strings.TrimSpace(line[:j])) {
			name := strings.TrimSpace(line[:j])
			if _, dup := b.labels[name]; dup {
				return nil, fmt.Errorf("asm: line %d: duplicate label %q", i+1, name)
			}
			b.Label(name)
			line = strings.TrimSpace(line[j+1:])
			if line == "" {
				continue
			}
		}
		if err := asmLine(b, line); err != nil {
			return nil, fmt.Errorf("asm: line %d: %s: %w", i+1, line, err)
		}
	}
	for _, f := range b.fixups {
		if _, ok := b.labels[f.label]; !ok {
			return nil, fmt.Errorf("asm: undefined label %q", f.label)
		}
	}
	return b, nil
}

// isIdent reports whether s is a plausible label name (letters,
// digits, '_', '.', not starting with a digit).
func isIdent(s string) bool {
	if s == "" || (s[0] >= '0' && s[0] <= '9') {
		return false
	}
	for _, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z',
			c >= '0' && c <= '9', c == '_', c == '.':
		default:
			return false
		}
	}
	return true
}

// asmLine assembles one mnemonic + operand list into the builder.
func asmLine(b *Builder, line string) error {
	mnem := line
	rest := ""
	if j := strings.IndexAny(line, " \t"); j >= 0 {
		mnem, rest = line[:j], strings.TrimSpace(line[j+1:])
	}
	mnem = strings.ToLower(mnem)
	args := splitOperands(rest)

	op, sz, ok := opFor(mnem)
	if !ok {
		return fmt.Errorf("unknown mnemonic %q", mnem)
	}

	want, gotOk := arity(mnem, len(args))
	if !gotOk {
		return fmt.Errorf("%s wants %s operand(s), got %d", mnem, want, len(args))
	}

	switch {
	case isBranchMnem(mnem): // bcc family, dbra, jmp/jsr with label
		return asmBranch(b, mnem, op, args)
	case mnem == "trap", mnem == "kcall", mnem == "stop":
		n, err := parseInt(strings.TrimPrefix(args[0], "#"))
		if err != nil {
			return fmt.Errorf("%s target: %w", mnem, err)
		}
		switch mnem {
		case "trap":
			b.Trap(uint8(n))
		case "kcall":
			b.Kcall(uint8(n))
		case "stop":
			b.Stop(uint16(n))
		}
		return nil
	case len(args) == 0:
		b.I(m68k.Instr{Op: op})
		return nil
	case len(args) == 1:
		o, err := parseOperand(args[0])
		if err != nil {
			return err
		}
		if op == m68k.TST {
			b.Tst(sz, o)
		} else {
			b.I(m68k.Instr{Op: op, Sz: sz, Dst: o})
		}
		return nil
	default:
		src, err := parseOperand(args[0])
		if err != nil {
			return err
		}
		dst, err := parseOperand(args[1])
		if err != nil {
			return err
		}
		if op == m68k.LEA {
			if dst.Mode != m68k.ModeAReg {
				return fmt.Errorf("lea destination must be an address register, got %q", args[1])
			}
			b.Lea(src, dst.Reg)
			return nil
		}
		b.I(m68k.Instr{Op: op, Sz: sz, Src: src, Dst: dst})
		return nil
	}
}

// opFor maps a mnemonic (with optional size suffix) to the ISA op and
// operand size.
func opFor(mnem string) (m68k.Op, uint8, bool) {
	base, sz := mnem, uint8(4)
	if j := strings.IndexByte(mnem, '.'); j >= 0 {
		base = mnem[:j]
		switch mnem[j+1:] {
		case "l":
			sz = 4
		case "w":
			sz = 2
		case "b":
			sz = 1
		default:
			return 0, 0, false
		}
	}
	ops := map[string]m68k.Op{
		"move": m68k.MOVE, "lea": m68k.LEA, "clr": m68k.CLR,
		"add": m68k.ADD, "sub": m68k.SUB, "mulu": m68k.MULU,
		"divu": m68k.DIVU, "and": m68k.AND, "or": m68k.OR,
		"eor": m68k.EOR, "lsl": m68k.LSL, "lsr": m68k.LSR,
		"cmp": m68k.CMP, "tst": m68k.TST,
		"bra": m68k.BRA, "beq": m68k.BEQ, "bne": m68k.BNE,
		"blt": m68k.BLT, "ble": m68k.BLE, "bgt": m68k.BGT,
		"bge": m68k.BGE, "bhi": m68k.BHI, "bls": m68k.BLS,
		"bcc": m68k.BCC, "bcs": m68k.BCS, "bmi": m68k.BMI,
		"bpl": m68k.BPL, "dbra": m68k.DBRA,
		"jmp": m68k.JMP, "jsr": m68k.JSR,
		"rts": m68k.RTS, "rte": m68k.RTE, "trap": m68k.TRAP,
		"kcall": m68k.KCALL, "stop": m68k.STOP,
		"halt": m68k.HALT, "nop": m68k.NOP,
	}
	op, ok := ops[base]
	return op, sz, ok
}

// arity validates the operand count for a mnemonic; want describes the
// expectation for the error message.
func arity(mnem string, got int) (want string, ok bool) {
	base := mnem
	if j := strings.IndexByte(base, '.'); j >= 0 {
		base = base[:j]
	}
	switch base {
	case "rts", "rte", "halt", "nop":
		return "0", got == 0
	case "bra", "beq", "bne", "blt", "ble", "bgt", "bge", "bhi",
		"bls", "bcc", "bcs", "bmi", "bpl", "jmp", "jsr",
		"trap", "kcall", "stop", "clr", "tst":
		return "1", got == 1
	default:
		return "2", got == 2
	}
}

func isBranchMnem(mnem string) bool {
	switch mnem {
	case "bra", "beq", "bne", "blt", "ble", "bgt", "bge", "bhi",
		"bls", "bcc", "bcs", "bmi", "bpl", "dbra", "jmp", "jsr":
		return true
	}
	return false
}

// asmBranch handles the label-target instructions. jmp and jsr also
// accept a bare absolute address.
func asmBranch(b *Builder, mnem string, op m68k.Op, args []string) error {
	target := args[len(args)-1]
	if mnem == "dbra" {
		reg, err := parseOperand(args[0])
		if err != nil {
			return err
		}
		if reg.Mode != m68k.ModeDReg {
			return fmt.Errorf("dbra counter must be a data register, got %q", args[0])
		}
		if !isIdent(target) {
			return fmt.Errorf("dbra target must be a label, got %q", target)
		}
		b.Dbra(reg.Reg, target)
		return nil
	}
	if mnem == "jmp" || mnem == "jsr" {
		if n, err := parseInt(target); err == nil {
			if mnem == "jmp" {
				b.Jmp(uint32(n))
			} else {
				b.Jsr(uint32(n))
			}
			return nil
		}
	}
	if !isIdent(target) {
		return fmt.Errorf("%s target must be a label, got %q", mnem, target)
	}
	if mnem == "jsr" {
		// No builder helper for jsr-to-label; record the fixup directly.
		b.fixups = append(b.fixups, fixup{idx: len(b.ins), label: target})
		b.I(m68k.Instr{Op: m68k.JSR, Dst: m68k.Abs(0)})
		return nil
	}
	b.branch(op, target)
	return nil
}

// splitOperands splits on top-level commas (commas inside parentheses
// belong to the operand).
func splitOperands(s string) []string {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil
	}
	var out []string
	depth, start := 0, 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '(':
			depth++
		case ')':
			depth--
		case ',':
			if depth == 0 {
				out = append(out, strings.TrimSpace(s[start:i]))
				start = i + 1
			}
		}
	}
	out = append(out, strings.TrimSpace(s[start:]))
	return out
}

// parseOperand parses one effective-address operand.
func parseOperand(s string) (m68k.Operand, error) {
	s = strings.TrimSpace(s)
	low := strings.ToLower(s)
	zero := m68k.Operand{}
	if r, ok := parseReg(low); ok {
		return r, nil
	}
	switch {
	case strings.HasPrefix(s, "#"):
		n, err := parseInt(s[1:])
		if err != nil {
			return zero, fmt.Errorf("immediate %q: %w", s, err)
		}
		return m68k.Imm(int32(n)), nil
	case strings.HasPrefix(low, "-("):
		an, err := parseAReg(low, "-(", ")")
		if err != nil {
			return zero, err
		}
		return m68k.PreDec(an), nil
	case strings.HasSuffix(low, ")+"):
		an, err := parseAReg(low, "(", ")+")
		if err != nil {
			return zero, err
		}
		return m68k.PostInc(an), nil
	case strings.HasPrefix(low, "("):
		an, err := parseAReg(low, "(", ")")
		if err != nil {
			return zero, err
		}
		return m68k.Ind(an), nil
	}
	if j := strings.IndexByte(low, '('); j > 0 && strings.HasSuffix(low, ")") {
		disp, err := parseInt(low[:j])
		if err != nil {
			return zero, fmt.Errorf("displacement in %q: %w", s, err)
		}
		an, err := parseAReg(low[j:], "(", ")")
		if err != nil {
			return zero, err
		}
		return m68k.Disp(int32(disp), an), nil
	}
	if n, err := parseInt(low); err == nil {
		return m68k.Abs(uint32(n)), nil
	}
	return zero, fmt.Errorf("cannot parse operand %q", s)
}

// parseReg recognizes dN / aN / sp.
func parseReg(low string) (m68k.Operand, bool) {
	if low == "sp" {
		return m68k.A(7), true
	}
	if len(low) == 2 && low[1] >= '0' && low[1] <= '7' {
		n := low[1] - '0'
		switch low[0] {
		case 'd':
			return m68k.D(n), true
		case 'a':
			return m68k.A(n), true
		}
	}
	return m68k.Operand{}, false
}

// parseAReg extracts the address register between the given prefix and
// suffix, e.g. "(a0)+" with prefix "(" suffix ")+".
func parseAReg(low, prefix, suffix string) (uint8, error) {
	inner := strings.TrimSuffix(strings.TrimPrefix(low, prefix), suffix)
	inner = strings.TrimSpace(inner)
	if inner == "sp" {
		return 7, nil
	}
	if len(inner) == 2 && inner[0] == 'a' && inner[1] >= '0' && inner[1] <= '7' {
		return inner[1] - '0', nil
	}
	return 0, fmt.Errorf("expected address register, got %q", inner)
}

// parseInt parses a decimal, 0x-hex, or $-hex integer literal.
func parseInt(s string) (int64, error) {
	s = strings.TrimSpace(s)
	neg := false
	if strings.HasPrefix(s, "-") {
		neg, s = true, s[1:]
	}
	var n uint64
	var err error
	switch {
	case strings.HasPrefix(strings.ToLower(s), "0x"):
		n, err = strconv.ParseUint(s[2:], 16, 32)
	case strings.HasPrefix(s, "$"):
		n, err = strconv.ParseUint(s[1:], 16, 32)
	default:
		n, err = strconv.ParseUint(s, 10, 32)
	}
	if err != nil {
		return 0, err
	}
	if neg {
		return -int64(n), nil
	}
	return int64(n), nil
}
