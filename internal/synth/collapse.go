package synth

import (
	"fmt"

	"synthesis/internal/asmkit"
	"synthesis/internal/m68k"
)

// Collapsing Layers (Section 2.2): "eliminates unnecessary procedure
// calls ... vertically for layered modules". In this kernel all of it
// happens at template-composition time: a layer is an emit helper, and
// the template either calls the helper (collapsed) or emits a JSR to a
// routine built from it (layered) — kio's cooked tty read, /proc read
// and net handler take that choice as a parameter.
//
// This file is the other form, an inliner that splices
// already-emitted leaf routines into a caller's Program at its
// `jsr <addr>` sites. It is probe-only: no build goes through it, and
// it stays because benchmark/probes.go times Collapse and
// RegisterInline as synth.collapse_ns_per_call. Retiring that probe,
// which is a benchmark change, is what lets this file go.

// Inlinable marks a routine the inliner may splice: a leaf Program
// whose body ends with a single RTS and contains no other returns or
// stack-discipline surprises. RegisterInline performs the checks.
type Inlinable struct {
	prog asmkit.Program
}

// RegisterInline validates a routine for inlining: it must contain
// exactly one RTS, as its final instruction, and must not contain
// JSR/TRAP/RTE (non-leaf or context-switching callees stay calls).
func RegisterInline(p asmkit.Program) (Inlinable, error) {
	if len(p.Ins) == 0 {
		return Inlinable{}, fmt.Errorf("synth: empty inline candidate")
	}
	for i, in := range p.Ins {
		switch in.Op {
		case m68k.RTS:
			if i != len(p.Ins)-1 {
				return Inlinable{}, fmt.Errorf("synth: inline candidate has an interior rts at %d", i)
			}
		case m68k.JSR, m68k.TRAP, m68k.RTE, m68k.HALT, m68k.STOP:
			return Inlinable{}, fmt.Errorf("synth: inline candidate is not a leaf (%v at %d)", in.Op, i)
		}
	}
	if p.Ins[len(p.Ins)-1].Op != m68k.RTS {
		return Inlinable{}, fmt.Errorf("synth: inline candidate does not end with rts")
	}
	return Inlinable{prog: p}, nil
}

// Collapse splices registered callees into the caller: every
// `jsr <addr>` whose absolute target is a key of callees is replaced
// by the callee's body (labels renamed per call site, the final RTS
// dropped). Call sites whose target is not registered are left alone.
// Returns the collapsed program and the number of calls eliminated.
func Collapse(caller asmkit.Program, callees map[uint32]Inlinable) (asmkit.Program, int) {
	out := asmkit.Program{Labels: make(map[string]int)}
	collapsed := 0

	// Map old instruction index -> new index, for fixup/label
	// remapping after the splice.
	remap := make([]int, len(caller.Ins)+1)

	// Fixups attached to JSR destinations are label-based; only
	// absolute (non-fixup) JSRs can be matched against callee
	// addresses.
	fixupOnDst := make(map[int]bool)
	for _, f := range caller.Fixups {
		if !f.Src {
			fixupOnDst[f.Idx] = true
		}
	}

	spliceN := 0
	for i, in := range caller.Ins {
		remap[i] = len(out.Ins)
		target := uint32(in.Dst.Imm)
		callee, ok := callees[target]
		if in.Op == m68k.JSR && in.Dst.Mode == m68k.ModeAbs && !fixupOnDst[i] && ok {
			// Splice the callee body, dropping its trailing RTS.
			spliceN++
			base := len(out.Ins)
			body := callee.prog.Ins[:len(callee.prog.Ins)-1]
			out.Ins = append(out.Ins, body...)
			prefix := fmt.Sprintf("__inl%d_", spliceN)
			for name, idx := range callee.prog.Labels {
				if idx >= len(callee.prog.Ins)-1 {
					// A label on the RTS lands after the body.
					idx = len(body)
				}
				out.Labels[prefix+name] = base + idx
			}
			for _, f := range callee.prog.Fixups {
				out.Fixups = append(out.Fixups, asmkit.Fixup{
					Idx: base + f.Idx, Label: prefix + f.Label, Src: f.Src,
				})
			}
			collapsed++
			continue
		}
		out.Ins = append(out.Ins, in)
	}
	remap[len(caller.Ins)] = len(out.Ins)

	for name, idx := range caller.Labels {
		out.Labels[name] = remap[idx]
	}
	for _, f := range caller.Fixups {
		out.Fixups = append(out.Fixups, asmkit.Fixup{
			Idx: remap[f.Idx], Label: f.Label, Src: f.Src,
		})
	}
	return out, collapsed
}
