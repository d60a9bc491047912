package bench

import (
	"fmt"

	"synthesis/internal/asmkit"
	"synthesis/internal/kernel"
	"synthesis/internal/kio"
	"synthesis/internal/m68k"
	"synthesis/internal/metrics"
	"synthesis/internal/unixemu"
)

// Table "proc": the guest-visible metrics quaject. A guest program
// opens /proc/metrics through the UNIX emulator and reads the kernel's
// own observability snapshot; the table compares the per-open
// synthesized read (buffer address and length folded in as constants,
// unrolled copy spliced inline) against the generic layered
// instantiation of the SAME template (both holes bound to descriptor
// cells, the block transfer behind a jsr into a byte-loop bcopy).
// Both descriptors serve the identical snapshot buffer, so the path
// difference is purely Factoring Invariants + Collapsing Layers.
//
// Unlike the other tables this one boots only the Synthesis rig, with
// a metrics registry attached: the baseline here is not the SUNOS
// kernel (which has no /proc) but the generic shape of the same read.

// procChunk is the read size for the path-length rows: fixed so the
// copy cost is identical no matter how large the snapshot is.
const procChunk = 256

// svcProcGeneric is the KCALL id of the host hook that installs the
// generic twin descriptor (120 is pathlen's competing processor).
const svcProcGeneric = 122

// newMetricsSynthRig boots the Synthesis rig with an observability
// registry attached, so /proc/metrics serves a real snapshot.
func newMetricsSynthRig() *SynthRig {
	k := kernel.Boot(kernel.Config{
		Machine:         m68k.Sun3Config(),
		ChargeSynthesis: true,
		Metrics:         metrics.New(),
	})
	io := kio.Install(k)
	unixemu.Install(k)
	if _, err := k.FS.CreateSized(benchFileName, make([]byte, 1024), 8192); err != nil {
		panic(err)
	}
	prepareNames(k.M)
	attachFaults(k.M)
	return &SynthRig{K: k, IO: io}
}

// procRead emits read(fd in D<fdReg>, addrBufB, procChunk).
func procRead(b *asmkit.Builder, fdReg uint8) {
	b.MoveL(m68k.D(fdReg), m68k.D(1))
	b.MoveL(m68k.Imm(addrBufB), m68k.D(2))
	b.MoveL(m68k.Imm(procChunk), m68k.D(3))
	unixCall(b, unixemu.SysRead)
}

// procSeek emits lseek(fd in D<fdReg>, 0): rewind to the snapshot's
// start so every measured read copies the same procChunk bytes.
func procSeek(b *asmkit.Builder, fdReg uint8) {
	b.MoveL(m68k.D(fdReg), m68k.D(1))
	b.MoveL(m68k.Imm(0), m68k.D(2))
	unixCall(b, unixemu.SysLseek)
}

// buildProcPath emits the path-length program: open /proc/metrics
// (descriptor in D6), ask the host hook for the generic twin (D7),
// one unmeasured warm-up read on each, then pathRounds rounds of a
// rewind and a marked read on each path, synthesized first.
func buildProcPath(b *asmkit.Builder) {
	b.MoveL(m68k.Imm(addrNameProc), m68k.D(1))
	unixCall(b, unixemu.SysOpen)
	b.MoveL(m68k.D(0), m68k.D(6))
	b.Kcall(svcProcGeneric) // host installs the generic twin -> D7
	procRead(b, 6)
	procRead(b, 7)
	for i := 0; i < pathRounds; i++ {
		procSeek(b, 6)
		mark(b)
		procRead(b, 6)
		mark(b)
		procSeek(b, 7)
		mark(b)
		procRead(b, 7)
		mark(b)
	}
	progExit(b)
}

// buildProcOpen emits the open-cost program: one marked open of
// /proc/metrics (snapshot cut + render + poke + read synthesis).
func buildProcOpen(b *asmkit.Builder) {
	mark(b)
	b.MoveL(m68k.Imm(addrNameProc), m68k.D(1))
	unixCall(b, unixemu.SysOpen)
	mark(b)
	progExit(b)
}

// hookProcGeneric registers the KCALL service that installs the
// generic twin of the snapshot descriptor the guest just opened (fd
// in D6); the new descriptor comes back in D7.
func hookProcGeneric(r *SynthRig) {
	r.K.M.RegisterService(svcProcGeneric, func(mm *m68k.Machine) uint64 {
		var bt *kernel.Thread
		for th := range r.K.Threads() {
			if th.Name == "bench" {
				bt = th
			}
		}
		if bt == nil {
			mm.D[7] = ^uint32(0)
			return 0
		}
		mm.D[7] = uint32(r.IO.SynthGenericProcRead(bt, int32(mm.D[6])))
		return 0
	})
}

// TableProc regenerates the guest-visible metrics quaject table.
func TableProc() (Table, error) {
	t := Table{
		Title: "Table proc: guest-visible /proc/metrics, synthesized vs generic read",
		Note: "256-byte reads of the kernel's own metrics snapshot from inside the VM;\n" +
			"both descriptors serve the identical per-open snapshot buffer",
	}

	r := newMetricsSynthRig()
	hookProcGeneric(r)
	spec, gen, err := pathInstrs(r, buildProcPath)
	if err != nil {
		return t, err
	}
	if n := len(r.IO.ProcLast()); n < procChunk {
		return t, fmt.Errorf("bench proc: snapshot only %d bytes, need >= %d", n, procChunk)
	}
	t.Rows = append(t.Rows,
		Row{Name: "read 256 B of /proc/metrics, synthesized", Measured: spec, Unit: "instr",
			Note: "buffer base+len folded to immediates, unrolled copy inline"},
		Row{Name: "read 256 B of /proc/metrics, generic layered", Measured: gen, Unit: "instr",
			Note: "base+len via descriptor cells, byte-loop bcopy behind a jsr"},
		Row{Name: "read path ratio (generic/synthesized)", Measured: gen / spec, Unit: "x", Note: ""},
	)

	rOpen := newMetricsSynthRig()
	open, err := runMarks(rOpen, 1, buildProcOpen)
	if err != nil {
		return t, err
	}
	t.Rows = append(t.Rows,
		Row{Name: "open /proc/metrics", Measured: open[0], Unit: "usec",
			Note: "snapshot cut + render + buffer poke + charged read synthesis"},
	)
	return t, nil
}
