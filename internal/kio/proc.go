package kio

import (
	"synthesis/internal/fs"
	"synthesis/internal/kernel"
	"synthesis/internal/m68k"
	"synthesis/internal/synth"
)

// The guest-visible metrics quaject: a /proc-style read-only
// pseudo-file that serves the observability registry's snapshot to VM
// programs, closing the loop between the kernel and the plane that
// watches it. Host tools see the registry through quamon
// -metrics-json; guest programs see the very same bytes by opening
// /proc/metrics (JSON) or /proc/metrics.prom (Prometheus text)
// through either the native Synthesis open or the UNIX emulator.
//
// The serving path is the paper's stream-I/O discipline applied to
// introspection. Open cuts a snapshot (refresh-on-open: every open
// re-samples the registry), renders it with the same
// metrics.Snapshot renderer the host export uses, pokes the bytes
// into a per-open kernel buffer, and synthesizes the read routine
// with the buffer's address and length bound as CONSTANTS through
// synth.Builder's hole environment — Factoring Invariants: a later
// read never consults a descriptor record, it executes code that
// already knows where the snapshot lives and how long it is. Each
// open resynthesizes the routine around the freshly cut snapshot, in
// the descriptor slot's code region; close frees the buffer.
//
// SynthGenericProcRead builds the SAME template with both holes bound
// to descriptor cells instead of constants and the block copy behind
// a jsr layer — the generic, layered read a traditional kernel would
// run. The bench table "proc" counts both paths on the instruction
// counter.

// Guest-visible pseudo-file names.
const (
	ProcMetricsPath     = "/proc/metrics"      // JSON snapshot
	ProcMetricsPromPath = "/proc/metrics.prom" // Prometheus text snapshot
)

// fdProcLen is the fd-slot offset (after the kernel's FDPos/FDAux/
// FDGauge/FDKind cells) where the proc open records the snapshot's
// byte length. The specialized read folds the value into an
// immediate; the generic layered read fetches it from this cell on
// every call.
const fdProcLen = 16

// installProc registers the pseudo-files in the directory. The
// entries carry no data: contents materialize per open.
func (io *IO) installProc() {
	mustCreate(io.K.FS.CreateSpecial(ProcMetricsPath, fs.SpecialMetrics))
	mustCreate(io.K.FS.CreateSpecial(ProcMetricsPromPath, fs.SpecialMetrics))
}

// renderProcSnapshot cuts and renders a fresh snapshot for the named
// pseudo-file. A nil registry renders the zero snapshot, so the file
// stays readable on kernels booted without the plane.
func (io *IO) renderProcSnapshot(name string) []byte {
	snap := io.K.Metrics.Snapshot()
	var data []byte
	var err error
	if name == ProcMetricsPromPath {
		data, err = snap.PromBytes()
	} else {
		data, err = snap.JSONBytes()
	}
	if err != nil {
		// The renderer writes to memory; an error here is a host-side
		// programming bug. Serve an empty snapshot rather than dying.
		data = []byte("{}\n")
	}
	return data
}

// synthProcRead implements the metrics quaject's open: cut + render a
// snapshot, stage it in a per-open kernel buffer, and emit the
// specialized read with the buffer geometry folded in, into the slot's
// region r.
func (io *IO) synthProcRead(t *kernel.Thread, fd int32, f *fs.File, r *region) entries {
	k := io.K
	data := io.renderProcSnapshot(f.Name)
	io.procLast = append(io.procLast[:0], data...)

	buf, err := k.Heap.Alloc(uint32(len(data)))
	if err != nil {
		// Heap exhausted: the descriptor gets the bad-fd stub. Clear the
		// aux cell so a later close does not free a stale address.
		k.M.Poke(kernel.FDCell(t.TTE, int(fd), kernel.FDAux), 4, 0)
		return entries{}
	}
	k.M.PokeBytes(buf, data)

	// Mirror the geometry into the descriptor slot: the generic
	// layered read (and close's buffer free) find it there.
	k.M.Poke(kernel.FDCell(t.TTE, int(fd), kernel.FDAux), 4, buf)
	k.M.Poke(kernel.FDCell(t.TTE, int(fd), fdProcLen), 4, uint32(len(data)))

	pos := kernel.FDCell(t.TTE, int(fd), kernel.FDPos)
	gauge := kernel.FDCell(t.TTE, int(fd), kernel.FDGauge)
	return buildRW(r.at(k.C.Build(t.Q, "proc_read").
		Named("kio.proc.read").
		Counted()).
		Bind("snap_base", synth.ConstOf(buf)).
		Bind("snap_len", synth.ConstOf(uint32(len(data)))),
		func(e *synth.Emitter) {
			emitProcReadBody(e, pos, gauge, nil)
		})
}

// emitProcReadBody is the one template behind both instantiations:
// read(d1=buf, d2=len) -> d0 = n, copying from the snapshot buffer
// named by the "snap_base"/"snap_len" holes and advancing the pos
// cell. When copyVia is nil the block transfer is inlined (the
// collapsed, specialized shape); otherwise each call crosses into the
// copy routine at *copyVia — the layer boundary the generic build
// keeps.
func emitProcReadBody(e *synth.Emitter, pos, gauge uint32, copyVia *uint32) {
	e.MoveL(m68k.D(1), m68k.A(1))     // dst
	e.MoveL(m68k.Abs(pos), m68k.D(0)) // position
	e.LoadHole("snap_len", m68k.D(1))
	e.SubL(m68k.D(0), m68k.D(1)) // avail = len - pos
	e.Bhi("pr_some")
	e.Clr(4, m68k.D(0)) // at or past end of snapshot
	e.Rte()
	e.Label("pr_some")
	// n = min(avail, len)
	e.Cmp(4, m68k.D(2), m68k.D(1))
	e.Bls("pr_n")
	e.MoveL(m68k.D(2), m68k.D(1))
	e.Label("pr_n")
	// src = base + pos; pos += n
	e.LeaHole("snap_base", 0)
	e.AddL(m68k.D(0), m68k.A(0))
	e.AddL(m68k.D(1), m68k.D(0))
	e.MoveL(m68k.D(0), m68k.Abs(pos))
	e.MoveL(m68k.D(1), m68k.PreDec(7)) // save n
	if copyVia != nil {
		e.Jsr(*copyVia)
	} else {
		emitCopy(e, longCopy, 0)
	}
	e.MoveL(m68k.PostInc(7), m68k.D(0))
	e.AddL(m68k.D(0), m68k.Abs(gauge))
	e.Rte()
}

// SynthGenericProcRead builds the generic, layered instantiation of
// the proc read for an ALREADY-OPEN proc descriptor and installs it
// on a fresh descriptor of the same thread, sharing the open's
// snapshot buffer. Both holes bind to the descriptor cells (two extra
// memory indirections per call) and the block transfer runs behind a
// jsr into a byte-loop bcopy — the un-specialized shape a layered
// kernel executes. Returns the new descriptor, or -1.
//
// This exists for the bench table "proc" and the tests: the same
// workload reads the same snapshot through both instantiations and
// the instruction counter tells them apart.
func (io *IO) SynthGenericProcRead(t *kernel.Thread, procFD int32) int32 {
	k := io.K
	fd := io.allocFD(t)
	if fd < 0 {
		return -1
	}
	r := io.slot(t, fd)
	if r == nil {
		return -1
	}
	srcAux := kernel.FDCell(t.TTE, int(procFD), kernel.FDAux)
	srcLen := kernel.FDCell(t.TTE, int(procFD), fdProcLen)
	pos := kernel.FDCell(t.TTE, int(fd), kernel.FDPos)
	gauge := kernel.FDCell(t.TTE, int(fd), kernel.FDGauge)
	k.M.Poke(pos, 4, 0)

	// The generic server's copy layer: D1 bytes from (A0)+ to (A1)+,
	// one byte per round — the bcopy a generic path calls instead of
	// splicing an unrolled transfer into the caller.
	bcopy := io.once(&io.procBcopy, k.C.Build(t.Q, "proc_bcopy").Named("kio.proc.bcopy"), func(e *synth.Emitter) {
		e.Label(synth.EntryAlt)
		e.Label(synth.EntryMain)
		e.TstL(m68k.D(1))
		e.Beq("bc_done")
		e.Label("bc_loop")
		e.MoveB(m68k.PostInc(0), m68k.PostInc(1))
		e.SubL(m68k.Imm(1), m68k.D(1))
		e.Bne("bc_loop")
		e.Label("bc_done")
		e.Rts()
	}).native

	read := buildRW(r.at(k.C.Build(t.Q, "proc_read_generic").
		Named("kio.proc.read_generic")).
		Bind("snap_base", synth.CellAt(srcAux)).
		Bind("snap_len", synth.CellAt(srcLen)),
		func(e *synth.Emitter) {
			emitProcReadBody(e, pos, gauge, &bcopy)
		})

	io.setFDCell(t, fd, kernel.FDKind, FDProcGeneric)
	io.installFD(t, fd, read, entries{})
	return fd
}

// closeProc releases the open's snapshot buffer buf (0: the open
// found no heap for one).
func (io *IO) closeProc(buf uint32) {
	if buf != 0 {
		_ = io.K.Heap.Free(buf)
	}
}

// ProcLast returns the bytes of the most recently cut /proc snapshot
// (what the last open staged for its reader) — the host-side truth a
// guest read is compared against in tests.
func (io *IO) ProcLast() []byte { return io.procLast }
