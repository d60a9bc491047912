package kio_test

import (
	"bytes"
	"encoding/json"
	"testing"

	"synthesis/internal/kernel"
	"synthesis/internal/kio"
	"synthesis/internal/m68k"
	"synthesis/internal/metrics"
	"synthesis/internal/synth"
	"synthesis/internal/unixemu"
)

// The guest-visible metrics quaject, round-tripped: a guest program
// opens /proc/metrics through the UNIX emulator, reads the whole
// snapshot, and the bytes it received must be exactly what the
// kernel's renderer produced — the same renderer quamon's
// -metrics-json export uses, so guest and host observe the kernel
// through one code path.

func bootProcMetrics(t *testing.T) (*kernel.Kernel, *kio.IO, *metrics.Registry) {
	t.Helper()
	reg := metrics.New()
	k := kernel.Boot(kernel.Config{
		Machine: m68k.Config{MemSize: 1 << 20},
		Metrics: reg,
	})
	io := kio.Install(k)
	unixemu.Install(k)
	return k, io, reg
}

// emitUnix emits one UNIX-convention syscall: number in D0, trap #0.
func emitUnix(e *synth.Emitter, no int32) {
	e.MoveL(m68k.Imm(no), m68k.D(0))
	e.Trap(kernel.TrapUnix)
}

func TestProcMetricsRoundTrip(t *testing.T) {
	k, io, reg := bootProcMetrics(t)
	const nameAddr, res, buf = 0x9100, 0x9000, 0x40000
	const readMax = 0x8000
	pokeName(k, nameAddr, kio.ProcMetricsPath)

	prog := k.C.Synthesize(nil, "main", nil, func(e *synth.Emitter) {
		// First open/read/close: warms the plane (allocates the proc
		// read's invocation cell, registers the fd gauge).
		e.MoveL(m68k.Imm(int32(nameAddr)), m68k.D(1))
		emitUnix(e, unixemu.SysOpen)
		e.MoveL(m68k.D(0), m68k.D(6))
		e.MoveL(m68k.D(6), m68k.D(1))
		e.MoveL(m68k.Imm(buf), m68k.D(2))
		e.MoveL(m68k.Imm(readMax), m68k.D(3))
		emitUnix(e, unixemu.SysRead)
		e.MoveL(m68k.D(6), m68k.D(1))
		emitUnix(e, unixemu.SysClose)

		// Second open: a fresh snapshot is cut and the read routine
		// resynthesized around it; this is the one we verify.
		e.MoveL(m68k.Imm(int32(nameAddr)), m68k.D(1))
		emitUnix(e, unixemu.SysOpen)
		e.MoveL(m68k.D(0), m68k.D(6))
		e.MoveL(m68k.D(0), m68k.Abs(res)) // fd
		e.MoveL(m68k.D(6), m68k.D(1))
		e.MoveL(m68k.Imm(buf), m68k.D(2))
		e.MoveL(m68k.Imm(readMax), m68k.D(3))
		emitUnix(e, unixemu.SysRead)
		e.MoveL(m68k.D(0), m68k.Abs(res+4)) // snapshot length
		// A second read must report end of snapshot.
		e.MoveL(m68k.D(6), m68k.D(1))
		e.MoveL(m68k.Imm(buf+readMax), m68k.D(2))
		e.MoveL(m68k.Imm(readMax), m68k.D(3))
		emitUnix(e, unixemu.SysRead)
		e.MoveL(m68k.D(0), m68k.Abs(res+8)) // EOF read -> 0
		exitSeq(e)
	})
	th := k.SpawnKernel("main", prog)
	run(t, k, th, 50_000_000)

	if fd := int32(k.M.Peek(res, 4)); fd < 0 {
		t.Fatalf("second open of %s = %d, want >= 0", kio.ProcMetricsPath, fd)
	}
	want := io.ProcLast()
	if len(want) == 0 {
		t.Fatal("ProcLast is empty: no snapshot was cut")
	}
	n := int32(k.M.Peek(res+4, 4))
	if int(n) != len(want) {
		t.Fatalf("guest read %d bytes, host rendered %d", n, len(want))
	}
	if eof := int32(k.M.Peek(res+8, 4)); eof != 0 {
		t.Errorf("read past snapshot end = %d, want 0", eof)
	}
	got := make([]byte, n)
	for i := range got {
		got[i] = byte(k.M.Peek(buf+uint32(i), 1))
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("guest bytes differ from host renderer output:\nguest: %.120s\nhost:  %.120s", got, want)
	}

	// The payload must decode as a metrics snapshot and carry the
	// plane's counters, including the quaject's own invocation count
	// (cut at open #2, after open #1's read ran once) and the unixemu
	// gate's syscall cells.
	var snap metrics.Snapshot
	if err := json.Unmarshal(got, &snap); err != nil {
		t.Fatalf("guest snapshot does not decode: %v", err)
	}
	if c := snap.Counters["synth.kio.proc.read.calls"]; c != 1 {
		t.Errorf("snapshot proc read calls = %d, want 1 (open #1's read)", c)
	}
	if c := snap.Counters["unixemu.sys.open.calls"]; c != 2 {
		t.Errorf("snapshot unixemu open calls = %d, want 2", c)
	}

	// Modulo-clock identity with the host export: a host snapshot taken
	// now sees the same key sets, and every monotonic counter at a
	// value >= the guest's earlier view.
	host := reg.Snapshot()
	for name, gv := range snap.Counters {
		hv, ok := host.Counters[name]
		if !ok {
			t.Errorf("guest counter %q missing from host snapshot", name)
			continue
		}
		if hv < gv {
			t.Errorf("counter %q went backwards: guest %d, host %d", name, gv, hv)
		}
	}
	for name := range snap.Gauges {
		if _, ok := host.Gauges[name]; !ok {
			t.Errorf("guest gauge %q missing from host snapshot", name)
		}
	}
}

// TestProcGenericTwinSameBytes installs the generic layered read next
// to the synthesized one (same template, cell bindings, jsr'd bcopy)
// and checks both return the identical snapshot bytes — the two
// instantiations differ only in path length.
func TestProcGenericTwinSameBytes(t *testing.T) {
	k, io, _ := bootProcMetrics(t)
	const nameAddr, res, bufA, bufB = 0x9100, 0x9000, 0x40000, 0x50000
	const readMax = 0x8000
	const svcTwin = 122
	pokeName(k, nameAddr, kio.ProcMetricsPath)

	var mainTh *kernel.Thread
	k.M.RegisterService(svcTwin, func(mm *m68k.Machine) uint64 {
		mm.D[7] = uint32(io.SynthGenericProcRead(mainTh, int32(mm.D[6])))
		return 0
	})

	prog := k.C.Synthesize(nil, "main", nil, func(e *synth.Emitter) {
		e.MoveL(m68k.Imm(int32(nameAddr)), m68k.D(1))
		emitUnix(e, unixemu.SysOpen)
		e.MoveL(m68k.D(0), m68k.D(6))
		e.Kcall(svcTwin) // generic twin descriptor -> D7
		e.MoveL(m68k.D(7), m68k.Abs(res))
		e.MoveL(m68k.D(6), m68k.D(1))
		e.MoveL(m68k.Imm(bufA), m68k.D(2))
		e.MoveL(m68k.Imm(readMax), m68k.D(3))
		emitUnix(e, unixemu.SysRead)
		e.MoveL(m68k.D(0), m68k.Abs(res+4))
		e.MoveL(m68k.D(7), m68k.D(1))
		e.MoveL(m68k.Imm(bufB), m68k.D(2))
		e.MoveL(m68k.Imm(readMax), m68k.D(3))
		emitUnix(e, unixemu.SysRead)
		e.MoveL(m68k.D(0), m68k.Abs(res+8))
		exitSeq(e)
	})
	mainTh = k.SpawnKernel("main", prog)
	run(t, k, mainTh, 50_000_000)

	if fd := int32(k.M.Peek(res, 4)); fd < 0 {
		t.Fatalf("generic twin install failed: fd = %d", fd)
	}
	nA := k.M.Peek(res+4, 4)
	nB := k.M.Peek(res+8, 4)
	if nA == 0 || nA != nB {
		t.Fatalf("read lengths differ: synthesized %d, generic %d", nA, nB)
	}
	for i := uint32(0); i < nA; i++ {
		a, b := k.M.Peek(bufA+i, 1), k.M.Peek(bufB+i, 1)
		if a != b {
			t.Fatalf("byte %d differs: synthesized %#x, generic %#x", i, a, b)
		}
	}
}

// TestProcWithoutMetricsPlane: a kernel booted with no registry still
// serves /proc/metrics (the zero snapshot), so guests never see the
// file vanish based on host configuration.
func TestProcWithoutMetricsPlane(t *testing.T) {
	k, _ := boot(t)
	unixemu.Install(k)
	const nameAddr, res, buf = 0x9100, 0x9000, 0x40000
	pokeName(k, nameAddr, kio.ProcMetricsPath)
	prog := k.C.Synthesize(nil, "main", nil, func(e *synth.Emitter) {
		e.MoveL(m68k.Imm(int32(nameAddr)), m68k.D(1))
		emitUnix(e, unixemu.SysOpen)
		e.MoveL(m68k.D(0), m68k.Abs(res))
		e.MoveL(m68k.D(0), m68k.D(1))
		e.MoveL(m68k.Imm(buf), m68k.D(2))
		e.MoveL(m68k.Imm(4096), m68k.D(3))
		emitUnix(e, unixemu.SysRead)
		e.MoveL(m68k.D(0), m68k.Abs(res+4))
		exitSeq(e)
	})
	th := k.SpawnKernel("main", prog)
	run(t, k, th, 50_000_000)

	if fd := int32(k.M.Peek(res, 4)); fd < 0 {
		t.Fatalf("open without plane = %d, want >= 0", fd)
	}
	n := int32(k.M.Peek(res+4, 4))
	if n <= 0 {
		t.Fatalf("read without plane = %d, want > 0", n)
	}
	got := make([]byte, n)
	for i := range got {
		got[i] = byte(k.M.Peek(buf+uint32(i), 1))
	}
	var snap metrics.Snapshot
	if err := json.Unmarshal(got, &snap); err != nil {
		t.Fatalf("zero snapshot does not decode: %v", err)
	}
}

// TestProcPromVariant: the .prom twin serves the Prometheus text
// exposition with the synthesis_ prefix.
func TestProcPromVariant(t *testing.T) {
	k, io, _ := bootProcMetrics(t)
	const nameAddr, res, buf = 0x9100, 0x9000, 0x40000
	pokeName(k, nameAddr, kio.ProcMetricsPromPath)
	prog := k.C.Synthesize(nil, "main", nil, func(e *synth.Emitter) {
		e.MoveL(m68k.Imm(int32(nameAddr)), m68k.D(1))
		emitUnix(e, unixemu.SysOpen)
		e.MoveL(m68k.D(0), m68k.Abs(res))
		e.MoveL(m68k.D(0), m68k.D(1))
		e.MoveL(m68k.Imm(buf), m68k.D(2))
		e.MoveL(m68k.Imm(0x8000), m68k.D(3))
		emitUnix(e, unixemu.SysRead)
		e.MoveL(m68k.D(0), m68k.Abs(res+4))
		exitSeq(e)
	})
	th := k.SpawnKernel("main", prog)
	run(t, k, th, 50_000_000)

	n := int32(k.M.Peek(res+4, 4))
	if n <= 0 {
		t.Fatalf("prom read = %d, want > 0", n)
	}
	got := make([]byte, n)
	for i := range got {
		got[i] = byte(k.M.Peek(buf+uint32(i), 1))
	}
	if !bytes.Equal(got, io.ProcLast()) {
		t.Fatal("prom guest bytes differ from host renderer output")
	}
	if !bytes.Contains(got, []byte("synthesis_")) {
		t.Errorf("prom exposition lacks the synthesis_ prefix:\n%.200s", got)
	}
}

// TestProcCloseFreesSnapshotBuffer: open/close cycles must not leak
// the per-open snapshot buffer (the code stays cached, the data does
// not).
func TestProcCloseFreesSnapshotBuffer(t *testing.T) {
	k, io, _ := bootProcMetrics(t)
	const nameAddr = 0x9100
	pokeName(k, nameAddr, kio.ProcMetricsPath)

	const cycles = 20
	prog := k.C.Synthesize(nil, "main", nil, func(e *synth.Emitter) {
		e.MoveL(m68k.Imm(cycles), m68k.D(5))
		e.Label("loop")
		e.MoveL(m68k.Imm(int32(nameAddr)), m68k.D(1))
		emitUnix(e, unixemu.SysOpen)
		e.MoveL(m68k.D(0), m68k.D(1))
		emitUnix(e, unixemu.SysClose)
		e.SubL(m68k.Imm(1), m68k.D(5))
		e.Bne("loop")
		exitSeq(e)
	})
	th := k.SpawnKernel("main", prog)

	// Measure heap after a couple of warm-up rounds have stabilized
	// the plane's own allocations (invocation cell etc.), then check
	// the loop does not consume heap per round. The heap free-byte
	// count after the run must match a single open/close's footprint:
	// every snapshot buffer freed.
	run(t, k, th, 200_000_000)
	freeAfter := k.Heap.FreeBytes()

	prog2 := k.C.Synthesize(nil, "main2", nil, func(e *synth.Emitter) {
		e.MoveL(m68k.Imm(cycles), m68k.D(5))
		e.Label("loop")
		e.MoveL(m68k.Imm(int32(nameAddr)), m68k.D(1))
		emitUnix(e, unixemu.SysOpen)
		e.MoveL(m68k.D(0), m68k.D(1))
		emitUnix(e, unixemu.SysClose)
		e.SubL(m68k.Imm(1), m68k.D(5))
		e.Bne("loop")
		exitSeq(e)
	})
	th2 := k.SpawnKernel("main2", prog2)
	run(t, k, th2, 200_000_000)
	freeAfter2 := k.Heap.FreeBytes()

	// Snapshot lengths drift a few bytes per cut (counters gain
	// digits), so exact-fit reuse is not guaranteed and a little
	// fragmentation is expected. Leaking would cost a full buffer per
	// open; allow a quarter of that.
	snapLen := len(io.ProcLast())
	if snapLen == 0 {
		t.Fatal("no snapshot cut")
	}
	if budget := cycles * snapLen / 4; int(freeAfter)-int(freeAfter2) > budget {
		t.Errorf("heap shrank %d bytes over %d open/close cycles of ~%d-byte snapshots (leak budget %d)",
			int(freeAfter)-int(freeAfter2), cycles, snapLen, budget)
	}
}
