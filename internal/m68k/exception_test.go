package m68k_test

import (
	"testing"

	"synthesis/internal/asmkit"
	"synthesis/internal/m68k"
)

// oneShotFaulter is a minimal m68k.Injector that bus-errors the first
// device-window access it sees and counts consultations.
type oneShotFaulter struct {
	armed bool
	hits  int
	dev   string
	off   uint32
	write bool
}

func (f *oneShotFaulter) AccessFault(dev m68k.Device, off uint32, write bool) bool {
	if !f.armed {
		return false
	}
	f.armed = false
	f.hits++
	f.dev, f.off, f.write = dev.Name(), off, write
	return true
}
func (f *oneShotFaulter) Frame(frame []byte) ([][]byte, uint64) { return [][]byte{frame}, 0 }
func (f *oneShotFaulter) RingFull() bool                        { return false }
func (f *oneShotFaulter) TimerArm(cycles uint64) uint64         { return cycles }

// TestBusErrorOnDeviceWindow: an injected bus error on a device
// register store must vector through VecBusError without the store
// reaching the device, and RTE from the handler must resume execution
// after the faulting instruction.
func TestBusErrorOnDeviceWindow(t *testing.T) {
	m := newM(t)
	m.Attach(m68k.NewTimer(m))
	f := &oneShotFaulter{armed: true}
	m.Inj = f

	h := asmkit.New()
	h.AddL(m68k.Imm(1), m68k.D(6)) // count handler entries
	h.Rte()
	m.Poke(m.VBR+uint32(m68k.VecBusError)*4, 4, h.Link(m))

	b := asmkit.New()
	b.MoveL(m68k.Imm(1), m68k.D(5))
	b.MoveL(m68k.Imm(1234), m68k.Abs(m68k.TimerBase+m68k.TimerRegQuantum)) // faults
	b.MoveL(m68k.Imm(2), m68k.D(5))                                        // resume lands here
	b.Halt()
	run(t, m, b.Link(m))

	if m.D[6] != 1 {
		t.Errorf("bus-error handler ran %d times, want 1", m.D[6])
	}
	if m.D[5] != 2 {
		t.Errorf("D5 = %d: execution did not resume after the faulting store", m.D[5])
	}
	if f.dev != "timer" || !f.write {
		t.Errorf("fault consulted for %s write=%v, want timer write", f.dev, f.write)
	}
	// The store never reached the device: no quantum was armed, so no
	// timer interrupt is pending.
	if got, _ := m.Load(m68k.TimerBase+m68k.TimerRegQuantum, 4); got == 1234 {
		t.Error("bus-erred store reached the timer register")
	}
}

// TestIllegalInstructionVector: both an undecodable opcode and a
// KCALL on an unregistered service slot must vector through
// VecIllegal.
func TestIllegalInstructionVector(t *testing.T) {
	cases := []struct {
		name string
		prog func(m *m68k.Machine) uint32
	}{
		{"undecodable-opcode", func(m *m68k.Machine) uint32 {
			return m.Emit([]m68k.Instr{{Op: m68k.Op(0xF0)}, {Op: m68k.HALT}})
		}},
		{"unregistered-kcall", func(m *m68k.Machine) uint32 {
			b := asmkit.New()
			b.Kcall(99)
			b.Halt()
			return b.Link(m)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := newM(t)
			h := asmkit.New()
			h.MoveL(m68k.Imm(0xdead), m68k.D(6))
			h.Halt()
			m.Poke(m.VBR+uint32(m68k.VecIllegal)*4, 4, h.Link(m))
			run(t, m, tc.prog(m))
			if m.D[6] != 0xdead {
				t.Error("illegal instruction did not reach VecIllegal")
			}
		})
	}
}

// spuriousDev is an interrupt source with no register window: it
// asserts one interrupt at a fixed cycle, modeling a device that
// screams once for no reason.
type spuriousDev struct {
	level int
	at    uint64
	done  bool
}

func (d *spuriousDev) Name() string                         { return "spurious" }
func (d *spuriousDev) Base() uint32                         { return 0xffff_fe00 }
func (d *spuriousDev) Size() uint32                         { return 0 }
func (d *spuriousDev) Load(off uint32, sz uint8) uint32     { return 0 }
func (d *spuriousDev) Store(off uint32, sz uint8, v uint32) {}
func (d *spuriousDev) Tick(now uint64) (int, uint64) {
	if !d.done && now >= d.at {
		d.done = true
		return d.level, 0
	}
	if d.done {
		return 0, 0
	}
	return 0, d.at
}

// TestSpuriousInterruptAutovector: an interrupt asserted at a level no
// driver claims must dispatch through its autovector slot, and only
// once the mask admits it — the assertion stays pending while the IPL
// blocks the level.
func TestSpuriousInterruptAutovector(t *testing.T) {
	m := newM(t)
	m.Attach(&spuriousDev{level: 3, at: 50})

	h := asmkit.New()
	h.AddL(m68k.Imm(1), m68k.D(6)) // count deliveries
	h.MoveL(m68k.D(4), m68k.D(3))  // snapshot the phase flag
	h.Rte()
	m.Poke(m.VBR+uint32(m68k.VecAutovector+3)*4, 4, h.Link(m))

	b := asmkit.New()
	// Phase 0: masked. The device asserts at cycle 50; spin well past
	// it with the IPL at 7 so the interrupt must stay pending.
	b.MoveL(m68k.Imm(0), m68k.D(4))
	b.MoveL(m68k.Imm(200), m68k.D(0))
	b.Label("masked")
	b.SubL(m68k.Imm(1), m68k.D(0))
	b.Bne("masked")
	// Phase 1: unmask and give the pending interrupt room to land.
	b.MoveL(m68k.Imm(1), m68k.D(4))
	b.AndSR(^uint16(7 << 8))
	b.MoveL(m68k.Imm(200), m68k.D(0))
	b.Label("open")
	b.SubL(m68k.Imm(1), m68k.D(0))
	b.Bne("open")
	b.Halt()
	run(t, m, b.Link(m))

	if m.D[6] != 1 {
		t.Fatalf("spurious interrupt delivered %d times, want 1", m.D[6])
	}
	if m.D[3] != 1 {
		t.Error("interrupt was delivered while its level was masked")
	}
}
