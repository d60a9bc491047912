package synth

import (
	"synthesis/internal/asmkit"
	"synthesis/internal/m68k"
)

// The optimization stage of the quaject creator (builder.go): four
// peephole cleanups over asmkit.Program values. Two have traffic on
// kernel routines, removeNops and dropBranchToNext; deadCode and
// redundantMoves have none, and only the benchmark's probe routine
// exercises them (the measured table is in the package comment). They
// tidy what template composition leaves behind — a handler assembled
// from per-socket pieces ends a piece with a branch to the next one,
// follows an unconditional exit with a shared tail, hands a value back
// in the register it came from. Folding and
// specialization are not here: they happen when the template runs
// (env.go), before this stage sees the program.

// OptStats reports what the optimizer did, for the kernel monitor and
// the size accounting of Section 6.4.
type OptStats struct {
	Removed      int // instructions deleted
	BytesBefore  int
	BytesAfter   int
	InstrsBefore int
	InstrsAfter  int
}

// Optimize runs the peephole passes to a fixed point (bounded) and
// returns the optimized program plus statistics. It consumes p: the
// Labels map and Fixups array it was handed are rewritten in place.
func Optimize(p asmkit.Program) (asmkit.Program, OptStats) {
	var st OptStats
	st.InstrsBefore = len(p.Ins)
	for _, in := range p.Ins {
		st.BytesBefore += in.ByteSize()
	}
	for round := 0; round < 8; round++ {
		changed := false
		changed = removeNops(&p, &st) || changed
		changed = dropBranchToNext(&p, &st) || changed
		changed = deadCode(&p, &st) || changed
		changed = redundantMoves(&p, &st) || changed
		if !changed {
			break
		}
	}
	st.InstrsAfter = len(p.Ins)
	for _, in := range p.Ins {
		st.BytesAfter += in.ByteSize()
	}
	return p, st
}

// leaders marks instructions that are branch targets or fall-through
// points after labels: control may arrive there from elsewhere, so
// they are reachable and never the second half of a peephole pair.
func leaders(p *asmkit.Program) []bool {
	l := make([]bool, len(p.Ins)+1)
	l[0] = true
	for _, idx := range p.Labels {
		if idx <= len(p.Ins) {
			l[idx] = true
		}
	}
	for _, f := range p.Fixups {
		if t, ok := p.Labels[f.Label]; ok && t <= len(p.Ins) {
			l[t] = true
		}
	}
	return l
}

// compact removes instructions where keep[i] is false, remapping
// labels and fixups. A label on a removed instruction moves to the
// next kept one.
func compact(p *asmkit.Program, keep []bool) {
	remap := make([]int, len(p.Ins)+1)
	out := make([]m68k.Instr, 0, len(p.Ins))
	for i, in := range p.Ins {
		remap[i] = len(out)
		if keep[i] {
			out = append(out, in)
		}
	}
	remap[len(p.Ins)] = len(out)
	p.Ins = out
	for name, idx := range p.Labels {
		p.Labels[name] = remap[idx]
	}
	fx := p.Fixups[:0]
	for _, f := range p.Fixups {
		if f.Idx < len(keep) && keep[f.Idx] {
			f.Idx = remap[f.Idx]
			fx = append(fx, f)
		}
	}
	p.Fixups = fx
}

// removeIf deletes the instructions dead names, asked once each in
// program order, and reports whether there were any.
func removeIf(p *asmkit.Program, st *OptStats, dead func(i int) bool) bool {
	keep := make([]bool, len(p.Ins))
	n := 0
	for i := range keep {
		keep[i] = !dead(i)
		if !keep[i] {
			n++
		}
	}
	if n > 0 {
		st.Removed += n
		compact(p, keep)
	}
	return n > 0
}

func removeNops(p *asmkit.Program, st *OptStats) bool {
	return removeIf(p, st, func(i int) bool { return p.Ins[i].Op == m68k.NOP })
}

// isBarrier reports whether control never falls through the
// instruction.
func isBarrier(op m68k.Op) bool {
	switch op {
	case m68k.BRA, m68k.JMP, m68k.RTS, m68k.RTE, m68k.HALT:
		return true
	}
	return false
}

// deadCode removes instructions that cannot be reached: those between
// a barrier and the next leader.
func deadCode(p *asmkit.Program, st *OptStats) bool {
	ld := leaders(p)
	reachable := true
	return removeIf(p, st, func(i int) bool {
		dead := !reachable && !ld[i]
		reachable = !dead && !isBarrier(p.Ins[i].Op)
		return dead
	})
}

// fixupAt returns the index in p.Fixups of the fixup attached to
// instruction i's destination, or -1.
func fixupAt(p *asmkit.Program, i int) int {
	for fi, f := range p.Fixups {
		if f.Idx == i && !f.Src {
			return fi
		}
	}
	return -1
}

// dropBranchToNext removes BRA instructions that target the
// immediately following instruction.
func dropBranchToNext(p *asmkit.Program, st *OptStats) bool {
	return removeIf(p, st, func(i int) bool {
		if p.Ins[i].Op != m68k.BRA {
			return false
		}
		fi := fixupAt(p, i)
		if fi < 0 {
			return false
		}
		t, ok := p.Labels[p.Fixups[fi].Label]
		return ok && t == i+1
	})
}

// redundantMoves removes the second move of a register-to-register
// pair, move Dm,Dn immediately followed by move Dn,Dm: it rewrites the
// same value and its flag effect equals the first move's.
func redundantMoves(p *asmkit.Program, st *OptStats) bool {
	ld := leaders(p)
	return removeIf(p, st, func(i int) bool {
		if i == 0 || ld[i] {
			return false
		}
		a, b := &p.Ins[i-1], &p.Ins[i]
		return a.Op == m68k.MOVE && b.Op == m68k.MOVE &&
			a.Size() == 4 && b.Size() == 4 &&
			a.Src.Mode == m68k.ModeDReg && a.Dst.Mode == m68k.ModeDReg &&
			b.Src.Mode == m68k.ModeDReg && b.Dst.Mode == m68k.ModeDReg &&
			a.Src.Reg == b.Dst.Reg && a.Dst.Reg == b.Src.Reg
	})
}
