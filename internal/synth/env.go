package synth

import (
	"fmt"

	"synthesis/internal/asmkit"
	"synthesis/internal/m68k"
)

// Factoring Invariants (Section 2.2): "bypasses redundant
// computations, much like constant folding". A code template names
// the quantities it depends on as holes; when a quaject is created
// the creator binds each hole either to a constant — which the
// emitter folds straight into immediate operands, and which a
// template can compute with before it emits anything — or to a memory
// cell holding a value that can still change, which the emitter loads
// at run time.

// Binding gives a hole its value.
type Binding struct {
	Const bool
	Val   uint32 // the constant, or the memory address of the cell
}

// ConstOf binds a hole to an invariant value.
func ConstOf(v uint32) Binding { return Binding{Const: true, Val: v} }

// CellAt binds a hole to a mutable memory cell.
func CellAt(addr uint32) Binding { return Binding{Const: false, Val: addr} }

// Env maps hole names to bindings.
type Env map[string]Binding

// Emitter wraps an asmkit.Builder with hole resolution. Templates are
// written against the Emitter so the same template text serves both
// the generic and the specialized instantiation: the difference is
// entirely in the Env.
type Emitter struct {
	*asmkit.Builder
	env  Env
	cell uint32 // a two-entry Counted build's counter cell (Entry)
}

// Entry marks an entry point of a two-entry routine here
// (Builder.EmitEntries): label is EntryMain or EntryAlt. A Counted
// routine counts the calls that enter here.
func (e *Emitter) Entry(label string) {
	e.Label(label)
	if e.cell != 0 {
		e.AddL(m68k.Imm(1), m68k.Abs(e.cell))
	}
}

// NewEmitter creates an emitter over a fresh builder.
func NewEmitter(env Env) *Emitter {
	return &Emitter{Builder: asmkit.New(), env: env}
}

// binding fetches a hole's binding or panics: a template referencing
// an unbound hole is a kernel bug, not a run-time condition.
func (e *Emitter) binding(hole string) Binding {
	b, ok := e.env[hole]
	if !ok {
		panic(fmt.Sprintf("synth: unbound hole %q", hole))
	}
	return b
}

// HoleOperand returns an operand for reading the hole's value: an
// immediate when the hole is invariant, a memory reference otherwise.
// This is the basic Factoring Invariants step — a constant binding
// removes a memory indirection from the synthesized code.
func (e *Emitter) HoleOperand(hole string) m68k.Operand {
	b := e.binding(hole)
	if b.Const {
		return m68k.Imm(int32(b.Val))
	}
	return m68k.Abs(b.Val)
}

// LoadHole emits code moving the hole's value into a register.
func (e *Emitter) LoadHole(hole string, dst m68k.Operand) *Emitter {
	e.MoveL(e.HoleOperand(hole), dst)
	return e
}

// LeaHole emits code loading the hole's value into an address
// register. For a constant binding this is a pure immediate load (no
// memory reference); for a cell binding the address is fetched from
// memory.
func (e *Emitter) LeaHole(hole string, an uint8) *Emitter {
	b := e.binding(hole)
	if b.Const {
		e.Lea(m68k.Abs(b.Val), an)
	} else {
		e.MoveL(m68k.Abs(b.Val), m68k.A(an))
	}
	return e
}

// IsConst reports whether the hole is bound to an invariant, letting
// templates choose entirely different code shapes for known values
// (the "bypass redundant computation" case: e.g. the synthesized read
// for /dev/null is a constant-return stub).
func (e *Emitter) IsConst(hole string) bool { return e.binding(hole).Const }

// ConstVal returns the invariant value of a constant-bound hole.
func (e *Emitter) ConstVal(hole string) uint32 {
	b := e.binding(hole)
	if !b.Const {
		panic(fmt.Sprintf("synth: hole %q is not constant-bound", hole))
	}
	return b.Val
}
