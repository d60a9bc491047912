package bench

import (
	"synthesis/internal/asmkit"
	"synthesis/internal/kernel"
	"synthesis/internal/m68k"
	"synthesis/internal/synth"
)

// Table 3: thread operations in microseconds. Each operation is timed
// from a driver thread with mark pairs around the native system call.

// Table3 regenerates the thread-operations measurements.
func Table3() (Table, error) {
	t := Table{
		Title: "Table 3: Thread Operations (microseconds)",
		Note:  "native Synthesis calls at the SUN 3/160 point, code synthesis charged",
	}
	rig := NewSynthRig()
	k := rig.K

	// A victim thread for stop/start/step/signal/destroy: parked,
	// never scheduled during the measurements.
	victimProg := k.C.Synthesize(nil, "victim", nil, func(e *synth.Emitter) {
		e.Label("loop")
		e.Nop()
		e.Bra("loop")
	})
	victim := k.SpawnKernelStopped("victim", victimProg)

	handler := k.C.Synthesize(nil, "sig", nil, func(e *synth.Emitter) {
		e.Trap(kernel.TrapSig)
	})

	vt := int32(victim.TTE)
	d, err := runMarks(rig, 7, func(b *asmkit.Builder) {
		sys := func(fn int32, d1 int32, d2 int32) {
			b.MoveL(m68k.Imm(fn), m68k.D(0))
			b.MoveL(m68k.Imm(d1), m68k.D(1))
			b.MoveL(m68k.Imm(d2), m68k.D(2))
			b.Trap(kernel.TrapSys)
		}
		measure := func(fn int32, d1, d2 int32) {
			mark(b)
			sys(fn, d1, d2)
			mark(b)
		}
		// create: D0 returns the new TTE; destroy it right after (the
		// second interval).
		mark(b)
		sys(kernel.SysCreate, 0, 0) // entry 0: never started
		mark(b)
		b.MoveL(m68k.D(0), m68k.D(4)) // keep the new TTE
		mark(b)
		b.MoveL(m68k.Imm(kernel.SysDestroy), m68k.D(0))
		b.MoveL(m68k.D(4), m68k.D(1))
		b.Trap(kernel.TrapSys)
		mark(b)
		// stop/start on the parked victim (it is not linked, but stop on
		// a linked thread measures the same unlink; link it first).
		b.MoveL(m68k.Imm(kernel.SysStart), m68k.D(0))
		b.MoveL(m68k.Imm(vt), m68k.D(1))
		b.Trap(kernel.TrapSys) // make it runnable once (unmeasured)
		measure(kernel.SysStop, vt, 0)
		measure(kernel.SysStart, vt, 0)
		measure(kernel.SysStop, vt, 0) // leave it parked (unmeasured pairing)
		// step: arm + insert; the stepped instruction itself runs later.
		measure(kernel.SysStep, vt, 0)
		// Let the victim absorb its step and trace-stop.
		b.MoveL(m68k.Imm(kernel.SysYield), m68k.D(0))
		b.Trap(kernel.TrapSys)
		// signal.
		measure(kernel.SysSignal, vt, int32(handler))
		progExit(b)
	})
	if err != nil {
		return t, err
	}
	paper := []struct {
		name string
		val  float64
		idx  int
		note string
	}{
		{"create", 142, 0, "TTE fill in machine code + charged synthesis"},
		{"destroy", 11, 1, ""},
		{"stop", 8, 2, "ready-ring unlink"},
		{"start", 8, 3, "ready-ring insert at the front"},
		{"step", 37, 5, "arm trace bit + insert (execution is asynchronous)"},
		{"signal", 8, 6, "rewrites the target's saved resume PC"},
	}
	for _, p := range paper {
		t.Rows = append(t.Rows, Row{Name: p.name, Paper: p.val, Measured: d[p.idx], Unit: "usec", Note: p.note})
	}
	return t, nil
}
