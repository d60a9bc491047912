package m68k_test

import (
	"errors"
	"testing"

	"synthesis/internal/asmkit"
	"synthesis/internal/m68k"
)

// newDeviceM builds a machine with the full device complement
// attached, as kernel.Boot does.
func newDeviceM(t *testing.T) *m68k.Machine {
	t.Helper()
	m := m68k.New(m68k.Config{MemSize: 1 << 16})
	m.Attach(m68k.NewTimer(m))
	m.Attach(m68k.NewTTY(m))
	m.Attach(m68k.NewDisk(m, 4))
	m.Attach(m68k.NewAD(m))
	m.Attach(m68k.NewNet(m))
	return m
}

// TestDeviceWindowDispatch drives every registered device window
// through the machine's Load/Store device routing: accesses anywhere
// inside a window must reach the device (never RAM, never a fault),
// and addresses in the I/O region that no device claims must bus
// fault cleanly.
func TestDeviceWindowDispatch(t *testing.T) {
	m := newDeviceM(t)

	cases := []struct {
		name string
		base uint32
	}{
		{"timer", m68k.TimerBase},
		{"tty", m68k.TTYBase},
		{"disk", m68k.DiskBase},
		{"ad", m68k.ADBase},
		{"net", m68k.NetBase},
	}
	for _, c := range cases {
		d := m.FindDevice(c.name)
		if d == nil {
			t.Fatalf("%s: not attached", c.name)
		}
		if d.Base() != c.base {
			t.Errorf("%s: base = %#x, want %#x", c.name, d.Base(), c.base)
		}
		// Probe the first and last longword of the window: both loads
		// and stores must dispatch to the device without faulting.
		for _, addr := range []uint32{c.base, c.base + d.Size() - 4} {
			if _, err := m.Load(addr, 4); err != nil {
				t.Errorf("%s: load %#x: %v", c.name, addr, err)
			}
			if err := m.Store(addr, 4, 0); err != nil {
				t.Errorf("%s: store %#x: %v", c.name, addr, err)
			}
		}
	}

	// Gaps in the I/O region — the window below the NIC's, past the
	// last window and far into the unclaimed space — must fault, not
	// fall through to RAM.
	for _, addr := range []uint32{
		m68k.IOBase + 0x400,  // the unclaimed window between the A/D's and the NIC's
		m68k.NetBase - 4,     // its last longword
		m68k.NetBase + 0x100, // first byte past the last window
		m68k.IOBase + 0x800,
		m68k.IOBase + 0xfffc,
	} {
		var bf *m68k.BusFault
		if _, err := m.Load(addr, 4); !errors.As(err, &bf) {
			t.Errorf("load %#x: got %v, want bus fault", addr, err)
		}
		if err := m.Store(addr, 4, 0); !errors.As(err, &bf) {
			t.Errorf("store %#x: got %v, want bus fault", addr, err)
		}
	}
}

// configureNet programs the receive ring registers the way a driver
// would.
func configureNet(m *m68k.Machine, base, slots, slotSz uint32) {
	m.Store(m68k.NetBase+m68k.NetRegRxBase, 4, base)
	m.Store(m68k.NetBase+m68k.NetRegRxSlots, 4, slots)
	m.Store(m68k.NetBase+m68k.NetRegSlotSz, 4, slotSz)
	m.Store(m68k.NetBase+m68k.NetRegCtl, 4, 1)
}

func TestNetLoopbackDMA(t *testing.T) {
	m := newDeviceM(t)
	n := m.FindDevice("net").(*m68k.Net)

	const ring, slots, slotSz = 0x4000, 4, 256
	configureNet(m, ring, slots, slotSz)

	// Stage a frame and launch it: the length store fires the DMA.
	frame := []byte{0xde, 0xad, 0xbe, 0xef, 0, 0, 0, 9, 0, 0, 0, 0, 0x01, 0x02}
	m.PokeBytes(0x2000, frame)
	m.Store(m68k.NetBase+m68k.NetRegTxAddr, 4, 0x2000)
	m.Store(m68k.NetBase+m68k.NetRegTxLen, 4, uint32(len(frame)))

	if got, _ := m.Load(m68k.NetBase+m68k.NetRegRxHead, 4); got != 1 {
		t.Fatalf("rx head = %d, want 1", got)
	}
	if got := m.Peek(ring, 4); got != uint32(len(frame)) {
		t.Fatalf("slot length = %d, want %d", got, len(frame))
	}
	if got := m.PeekBytes(ring+4, len(frame)); string(got) != string(frame) {
		t.Fatalf("slot bytes = % x, want % x", got, frame)
	}

	// The delivery must have latched a level-IRQNet interrupt: a
	// spinning program with the mask open gets preempted into the
	// autovector handler (a halt stub here).
	stub := m.Emit([]m68k.Instr{{Op: m68k.HALT}})
	m.VBR = 0x100
	for v := 0; v < m68k.NumVectors; v++ {
		m.Poke(m.VBR+uint32(v)*4, 4, stub)
	}
	m.A[7] = 0x8000
	m.SSP = 0x8000
	b := asmkit.New()
	b.Label("spin")
	b.Nop()
	b.Bra("spin")
	m.PC = b.Link(m)
	m.SR = m68k.FlagS // supervisor, interrupt mask open
	if err := m.Run(10_000); !errors.Is(err, m68k.ErrHalted) {
		t.Fatalf("receive interrupt never delivered: %v", err)
	}

	// Consuming the slot via the tail register frees it.
	m.Store(m68k.NetBase+m68k.NetRegRxTail, 4, 1)
	if n.RxPending() != 0 {
		t.Fatalf("rx pending = %d after tail advance", n.RxPending())
	}
}

func TestNetRingFullDrops(t *testing.T) {
	m := newDeviceM(t)
	n := m.FindDevice("net").(*m68k.Net)
	configureNet(m, 0x4000, 2, 64)

	for i := 0; i < 3; i++ {
		n.Deliver(make([]byte, m68k.NetMinFrame+i))
	}
	if n.RxPending() != 2 {
		t.Fatalf("rx pending = %d, want 2 (ring size)", n.RxPending())
	}
	if n.Dropped() != 1 {
		t.Fatalf("drops = %d, want 1", n.Dropped())
	}
	// Runts, oversize frames and frames while disabled also count as
	// drops.
	m.Store(m68k.NetBase+m68k.NetRegRxTail, 4, 2)
	n.Deliver(make([]byte, m68k.NetMinFrame-1))
	n.Deliver(make([]byte, 64))
	m.Store(m68k.NetBase+m68k.NetRegCtl, 4, 0)
	n.Deliver(make([]byte, m68k.NetMinFrame))
	if n.RxPending() != 0 || n.Dropped() != 4 {
		t.Fatalf("rx pending = %d, drops = %d, want 0 and 4", n.RxPending(), n.Dropped())
	}
}

// TestNetLaunchDoesNotAllocate: with no Tx hook and no injector nothing
// can keep a launched frame, so the length store DMAs it from the
// sender's memory straight into the loopback receive ring, with no
// per-frame copy, and the frame lands intact.
func TestNetLaunchDoesNotAllocate(t *testing.T) {
	m := newDeviceM(t)
	const ring, slots, slotSz, stage = 0x4000, 4, 64, 0x2000
	configureNet(m, ring, slots, slotSz)
	frame := []byte("loopback, no copy")
	m.PokeBytes(stage, frame)
	m.Store(m68k.NetBase+m68k.NetRegTxAddr, 4, stage)
	allocs := testing.AllocsPerRun(100, func() {
		m.Store(m68k.NetBase+m68k.NetRegTxLen, 4, uint32(len(frame)))
		head, _ := m.Load(m68k.NetBase+m68k.NetRegRxHead, 4)
		m.Store(m68k.NetBase+m68k.NetRegRxTail, 4, head) // consume it
	})
	if allocs != 0 {
		t.Errorf("loopback launch: %v allocations per frame, want 0", allocs)
	}
	head, _ := m.Load(m68k.NetBase+m68k.NetRegRxHead, 4)
	slot := uint32(ring + (head-1)%slots*slotSz)
	if n := m.Peek(slot, 4); n != uint32(len(frame)) || string(m.PeekBytes(slot+4, len(frame))) != string(frame) {
		t.Fatalf("ring slot holds %d bytes %q, want %q", n, m.PeekBytes(slot+4, int(n)), frame)
	}
	if stat, _ := m.Load(m68k.NetBase+m68k.NetRegTxStat, 4); stat != 1 {
		t.Fatalf("tx stat = %d, want 1", stat)
	}
}

// TestNetTxHook: a fabric-attached NIC hands every launched frame to
// the Tx hook instead of the peer, and the hook's verdict lands in
// NetRegTxStat so guest-side retry/backoff sees fabric backpressure.
func TestNetTxHook(t *testing.T) {
	m := newDeviceM(t)
	n := m.FindDevice("net").(*m68k.Net)
	configureNet(m, 0x4000, 4, 64)

	// The hook is handed a view of guest memory valid for the call, so
	// it copies what it keeps. The view ends at the frame: an append
	// to it cannot write into guest memory.
	var got [][]byte
	accept := true
	n.Tx = func(frame []byte) bool {
		if cap(frame) != len(frame) {
			t.Errorf("hook frame has capacity %d past its %d bytes", cap(frame), len(frame))
		}
		got = append(got, append([]byte(nil), frame...))
		return accept
	}

	launch := func(frame []byte) uint32 {
		m.PokeBytes(0x2000, frame)
		m.Store(m68k.NetBase+m68k.NetRegTxAddr, 4, 0x2000)
		m.Store(m68k.NetBase+m68k.NetRegTxLen, 4, uint32(len(frame)))
		stat, _ := m.Load(m68k.NetBase+m68k.NetRegTxStat, 4)
		return stat
	}

	if stat := launch([]byte("to the fabric")); stat != 1 {
		t.Fatalf("tx stat = %d, want 1 (hook accepted)", stat)
	}
	accept = false
	if stat := launch([]byte("congested")); stat != 0 {
		t.Fatalf("tx stat = %d, want 0 (hook refused)", stat)
	}

	if len(got) != 2 || string(got[0]) != "to the fabric" || string(got[1]) != "congested" {
		t.Fatalf("hook saw %q", got)
	}
	// Hooked launches bypass local loopback delivery entirely.
	if n.RxPending() != 0 {
		t.Fatalf("rx pending = %d, want 0 (no loopback when hooked)", n.RxPending())
	}
	if cnt, _ := m.Load(m68k.NetBase+m68k.NetRegTxCount, 4); cnt != 2 {
		t.Fatalf("tx count = %d, want 2", cnt)
	}

	// Detaching the hook restores loopback delivery.
	n.Tx = nil
	if stat := launch([]byte("delivered locally")); stat != 1 {
		t.Fatalf("tx stat after detach = %d, want 1", stat)
	}
	if n.RxPending() != 1 {
		t.Fatalf("rx pending after detach = %d, want 1", n.RxPending())
	}
}

func TestNetCrossMachine(t *testing.T) {
	ma := m68k.New(m68k.Config{MemSize: 1 << 16})
	mb := m68k.New(m68k.Config{MemSize: 1 << 16})
	na, nb := m68k.NewNet(ma), m68k.NewNet(mb)
	ma.Attach(na)
	mb.Attach(nb)
	na.Tx, nb.Tx = nb.Deliver, na.Deliver // cross-wired: each launch lands in the other ring

	configureNet(mb, 0x4000, 4, 64)

	frame := []byte("hello, remote peer")
	ma.PokeBytes(0x2000, frame)
	ma.Store(m68k.NetBase+m68k.NetRegTxAddr, 4, 0x2000)
	ma.Store(m68k.NetBase+m68k.NetRegTxLen, 4, uint32(len(frame)))

	if nb.RxPending() != 1 {
		t.Fatalf("peer rx pending = %d, want 1", nb.RxPending())
	}
	if got := mb.PeekBytes(0x4000+4, len(frame)); string(got) != string(frame) {
		t.Fatalf("peer slot = %q, want %q", got, frame)
	}
	if na.RxPending() != 0 {
		t.Fatal("frame delivered to sender, not peer")
	}
}
