package synth

import (
	"synthesis/internal/asmkit"
	"synthesis/internal/m68k"
)

// The optimization stage of the quaject creator (builder.go): the two
// peephole cleanups kernel routines give work (the measured table is
// in the package comment). They tidy what template composition leaves
// behind: a padding NOP, or a handler assembled from per-socket pieces
// that ends a piece with a branch to the next one. Folding and
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
// returns the optimized program plus statistics. p is left intact: a
// pass that removes an instruction writes new Labels and Fixups, so
// optimizing one Program twice gives the same result twice.
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

// compact removes instructions where keep[i] is false, remapping
// labels and fixups into a new map and array, so the caller's are never
// written. A label on a removed instruction moves to the next kept one.
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
	labels := make(map[string]int, len(p.Labels))
	for name, idx := range p.Labels {
		labels[name] = remap[idx]
	}
	p.Labels = labels
	fx := make([]asmkit.Fixup, 0, len(p.Fixups))
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
