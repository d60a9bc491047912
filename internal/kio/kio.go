// Package kio is the Synthesis kernel's I/O system (Section 5): device
// servers encapsulating the physical devices, streams connecting them
// to threads, and — the heart of the paper — read and write routines
// synthesized by open, specialized to the file, device or pipe they
// serve and installed directly in the opening thread's system-call
// vectors.
//
// Every data-path routine here is Quamachine code emitted through the
// synthesizer with the quaject's invariants (buffer addresses, queue
// geometry, descriptor cells) folded in as constants. The open, close,
// pipe and socket bookkeeping that the paper does not time runs in Go
// behind kio's own KCALL services, and keeps its state in the TTE's
// descriptor slots: the FDKind cell says what a slot is open on, FDAux
// which queue or buffer.
package kio

import (
	"synthesis/internal/fs"
	"synthesis/internal/kernel"
	"synthesis/internal/m68k"
	"synthesis/internal/synth"
)

// IO carries the I/O system's state for one booted kernel.
type IO struct {
	K *kernel.Kernel

	// Shared routines.
	badFD      uint32 // handler for closed/never-opened descriptors
	copyGroups uint32 // kio.block_copy: the block copy's 32-byte groups

	// Descriptor routines built once (once).
	nullRead, nullWrite, ttyWrite, cookedRead, adRead builtOnce
	rawGetChar, layeredRead, procBcopy                builtOnce

	// Raw tty server state.
	ttyQ    uint32 // kernel byte queue fed by the tty interrupt
	ttyIntH uint32 // synthesized tty interrupt handler
	adIntH  uint32 // synthesized A/D interrupt handler
	adQ     *ADQueue

	// Raw disk server state.
	diskIntH      uint32 // synthesized disk completion handler
	diskWait      uint32 // wait cell for the (single) outstanding request
	nextDiskBlock uint32 // host-side block allocation cursor

	// Network server state.
	netRing      uint32 // NIC DMA receive ring base
	netTailCell  uint32 // kernel mirror of the consumed-frame count
	netDropCell  uint32 // frames for ports nobody has open
	netStormCell uint32 // handler entries this watchdog window
	netCoalCell  uint32 // coalescing front-end interrupt counter
	netSockTab   uint32 // socket table: MaxSockets [port][queue or 0] entries
	netBlocks    uint32 // socket blocks, one per table entry
	netCells     uint32 // MaxSockets longs: each entry's demux cell in netCode
	netCode      uint32 // the receive handler's code region, netIntrSlots long
	netCoalesce  uint32 // >0: storm throttle, drain every Nth interrupt
	netWD        *Watchdog

	// Metrics quaject state.
	procLast []byte // bytes of the last snapshot cut by a /proc open
}

// TTYIntHandler returns the synthesized tty interrupt handler's code
// address (benchmarks time it with a hand-built exception frame).
func (io *IO) TTYIntHandler() uint32 { return io.ttyIntH }

// ADIntHandler returns the synthesized A/D interrupt handler.
func (io *IO) ADIntHandler() uint32 { return io.adIntH }

// Install wires the I/O system into a freshly booted kernel: device
// files, interrupt handlers, and the open, close, pipe and socket
// services. Must run before user threads are created so they inherit
// the interrupt vectors.
func Install(k *kernel.Kernel) *IO {
	io := &IO{K: k}

	// Device files.
	mustCreate(k.FS.CreateSpecial("/dev/null", fs.SpecialNull))
	mustCreate(k.FS.CreateSpecial("/dev/tty", fs.SpecialTTY))
	mustCreate(k.FS.CreateSpecial("/dev/ad", fs.SpecialAD))

	io.badFD = k.C.Synthesize(nil, "bad_fd", nil, func(e *synth.Emitter) {
		e.MoveL(m68k.Imm(-1), m68k.D(0))
		e.Rte()
	})
	io.copyGroups = k.C.Build(nil, "block_copy").Named("kio.block_copy").Emit(emitBlockGroups)
	// A descriptor that was never opened fails like a closed one, in
	// either convention: bad_fd reads no argument.
	for fd := 0; fd < kernel.MaxFD; fd++ {
		for _, trap := range []int{kernel.TrapRead + fd, kernel.TrapWrite + fd} {
			k.SetVector(m68k.VecTrapBase+trap, io.badFD)
			k.SetUnixRW(trap, io.badFD)
		}
	}

	io.installTTY()
	io.installAD()
	io.installDisk()
	io.installNet()
	io.installProc()
	io.wireIOMetrics()
	io.registerServices()
	return io
}

// registerServices serves the native open, close, pipe and socket
// calls. Open arrives with the directory entry fs_lookup left in D0.
// Each call returns its descriptor, or -1, in D0 (pipe's write end in
// D1); close returns 0 and charges 20 cycles. A dead thread's release
// (TTE in D1, 30 cycles) closes its descriptors before freeing it.
func (io *IO) registerServices() {
	k := io.K
	k.M.RegisterService(kernel.SvcOpen, func(mm *m68k.Machine) uint64 {
		mm.D[0] = uint32(io.open(k.Cur(), k.FS.ByEntry(mm.D[0])))
		return 0
	})
	k.M.RegisterService(kernel.SvcClose, func(mm *m68k.Machine) uint64 {
		if !io.Close(k.Cur(), int32(mm.D[1])) {
			mm.D[0] = ^uint32(0)
			return 0
		}
		mm.D[0] = 0
		return 20
	})
	k.M.RegisterService(kernel.SvcPipe, func(mm *m68k.Machine) uint64 {
		rfd, wfd := io.pipe(k.Cur())
		mm.D[0], mm.D[1] = uint32(rfd), uint32(wfd)
		return 0
	})
	k.M.RegisterService(kernel.SvcSock, func(mm *m68k.Machine) uint64 {
		mm.D[0] = uint32(io.OpenSocket(k.Cur(), mm.D[1], mm.D[2]))
		return 0
	})
	k.M.RegisterService(kernel.SvcFreeTTE, func(mm *m68k.Machine) uint64 {
		for t := range k.Threads() {
			if t.TTE == mm.D[1] {
				for fd := int32(0); fd < kernel.MaxFD; fd++ {
					io.Close(t, fd)
				}
			}
		}
		k.FreeThread(mm.D[1])
		return 30
	})
}

// Descriptor kinds: the code open writes into a slot's FDKind cell,
// the one record of what the slot is open on. FDFree (0) marks a free
// slot; a TTE starts cleared, so every slot of a new thread is free.
const (
	FDFree uint32 = iota
	FDNull
	FDTTY
	FDRawTTY
	FDAD
	FDDiskFile
	FDProc
	FDProcGeneric
	FDFile
	FDPipeR
	FDPipeW
	FDSock
)

func mustCreate(f *fs.File, err error) *fs.File {
	if err != nil {
		panic(err)
	}
	return f
}

// fdCell reads cell off of fd's slot in t's TTE.
func (io *IO) fdCell(t *kernel.Thread, fd int32, off int) uint32 {
	return io.K.M.Peek(kernel.FDCell(t.TTE, int(fd), off), 4)
}

// setFDCell writes cell off of fd's slot in t's TTE.
func (io *IO) setFDCell(t *kernel.Thread, fd int32, off int, v uint32) {
	io.K.M.Poke(kernel.FDCell(t.TTE, int(fd), off), 4, v)
}

// allocFD finds a free descriptor slot on the thread.
func (io *IO) allocFD(t *kernel.Thread) int32 {
	for fd := int32(0); fd < kernel.MaxFD; fd++ {
		if io.fdCell(t, fd, kernel.FDKind) == FDFree {
			return fd
		}
	}
	return -1
}

// entries are a descriptor routine's two entry points, from one build
// (synth.Builder.EmitEntries): native (buffer D1, length D2) for its
// trap vector, and unix (fd D1, buffer D2, length D3) for the UNIX
// gate's TTEUnixRW cell. The zero value is no routine.
type entries struct{ native, unix uint32 }

// buildRW builds rw(body).
func buildRW(b *synth.Builder, body func(*synth.Emitter)) entries {
	native, unix := b.EmitEntries(rw(body))
	return entries{native, unix}
}

// buildUnixRW is buildRW for a body written against the UNIX registers
// (buffer D2, length D3): the native entry shuffles into them and falls
// into the UNIX one. The socket routines take it, since their callers
// come through the UNIX gate.
func buildUnixRW(b *synth.Builder, body func(*synth.Emitter)) entries {
	native, unix := b.EmitEntries(func(e *synth.Emitter) {
		e.Label(synth.EntryMain)
		e.MoveL(m68k.D(2), m68k.D(3))
		e.MoveL(m68k.D(1), m68k.D(2))
		e.Entry(synth.EntryAlt)
		body(e)
	})
	return entries{native, unix}
}

// rw gives a template written for the native convention the default
// UNIX entry: two moves that shuffle the registers and fall into the
// native entry. emitQueueWrite, emitQueueRead and /dev/null's pair
// mark entries of their own.
func rw(body func(*synth.Emitter)) func(*synth.Emitter) {
	return func(e *synth.Emitter) {
		e.Label(synth.EntryAlt)
		e.MoveL(m68k.D(2), m68k.D(1))
		e.MoveL(m68k.D(3), m68k.D(2))
		e.Entry(synth.EntryMain)
		body(e)
	}
}

// A descriptor owns its code: a slot's first open of a per-descriptor
// kind (file, disk file, raw tty, pipe end, /proc, socket) takes a
// region of fdCodeSlots, the largest pair a kind emits (DESIGN.md
// Section 2a), kept in the slot's fdCode cell for the TTE's life.
const fdCode, fdCodeSlots = 20, 131

// region is a slot's region while an open builds into it, end to end
// (synth.Builder.At): the last build's NOP fill runs to its end. An
// open makes its region builds in turn, with no other build between.
type region struct {
	c         *synth.Creator
	next, end uint32
	built     bool
}

// at directs b past the region's earlier builds of this open.
func (r *region) at(b *synth.Builder) *synth.Builder {
	if r.built {
		r.next += uint32(r.c.LastStats.InstrsAfter)
	}
	r.built = true
	return b.At(r.next, int(r.end-r.next))
}

// slot returns fd's region on t, taking one on the slot's first open,
// or nil, failing the open, while t is in a signal or error handler
// (TTESigOld set): the code it interrupted may be the routine there.
func (io *IO) slot(t *kernel.Thread, fd int32) *region {
	m := io.K.M
	base := io.fdCell(t, fd, fdCode)
	if base == 0 {
		base = m.AllocCode(fdCodeSlots)
		io.setFDCell(t, fd, fdCode, base)
	} else if m.Peek(t.TTE+kernel.TTESigOld, 4) != 0 {
		return nil
	}
	return &region{c: io.K.C, next: base, end: base + fdCodeSlots}
}

// builtOnce is a routine that folds nothing per descriptor, built once
// per kernel: its entries, and what its build cost.
type builtOnce struct {
	e  entries
	st synth.OptStats
}

// once returns r's routine, building emit with b on first use; a later
// use is charged and counted as the build was (synth.Builder.Account).
func (io *IO) once(r *builtOnce, b *synth.Builder, emit func(*synth.Emitter)) entries {
	if r.e.native == 0 {
		r.e.native, r.e.unix = b.EmitEntries(emit)
		r.st = io.K.C.LastStats
	} else {
		b.Account(r.e.native, r.st)
	}
	return r.e
}

// installFD installs the descriptor's read/write routines: native
// entries in the thread's trap vectors, UNIX entries in its TTEUnixRW
// cells. No routine means bad_fd in both.
func (io *IO) installFD(t *kernel.Thread, fd int32, read, write entries) {
	for i, r := range []entries{read, write} {
		if r.native == 0 {
			r = entries{io.badFD, io.badFD}
		}
		trap := []int{kernel.TrapRead, kernel.TrapWrite}[i] + int(fd)
		io.K.M.Poke(t.TTE+kernel.TTEVec+uint32(m68k.VecTrapBase+trap)*4, 4, r.native)
		io.K.M.Poke(t.TTE+kernel.UnixRWOff(trap), 4, r.unix)
	}
}

// Open opens the named file on t from the host: the name lookup the
// open system call does in machine code, then the same service.
// Returns the descriptor, or -1.
func (io *IO) Open(t *kernel.Thread, name string) int32 {
	return io.open(t, io.K.FS.Lookup(name))
}

// open serves the open system call once the VM name lookup has found
// f: it allocates a descriptor and synthesizes the specialized read
// and write routines — the charged code-synthesis part of open's cost
// (Section 6.3: "60% are used to find the file ... and 40% for code
// synthesis").
func (io *IO) open(t *kernel.Thread, f *fs.File) int32 {
	if t == nil || f == nil {
		return -1
	}
	fd := io.allocFD(t)
	if fd < 0 {
		return -1
	}
	var read, write entries
	var kind uint32
	switch f.Special {
	case fs.SpecialNull:
		read, write = io.synthNull(t)
		kind = FDNull
	case fs.SpecialTTY:
		read, write = io.synthCooked(t), io.synthTTYWrite(t)
		kind = FDTTY
	case fs.SpecialAD:
		read = io.synthAD(t)
		kind = FDAD
	default:
		r := io.slot(t, fd)
		if r == nil {
			return -1
		}
		switch f.Special {
		case fs.SpecialRawTTY: // the plain bulk queue read
			q := &KQueue{Addr: io.ttyQ, Size: ttyQueueBytes}
			read.native, read.unix = r.at(io.K.C.Build(t.Q, "rawtty_read")).EmitEntries(func(e *synth.Emitter) {
				io.emitQueueRead(e, q, kernel.FDCell(t.TTE, int(fd), kernel.FDGauge))
			})
			write = io.synthTTYWrite(t)
			kind = FDRawTTY
		case fs.SpecialDisk:
			read, write = io.synthDiskFileRead(t, fd, f, r), io.synthFileWrite(t, fd, f, r)
			kind = FDDiskFile
		case fs.SpecialMetrics:
			read = io.synthProcRead(t, fd, f, r)
			kind = FDProc
		default:
			read, write = io.synthFileRead(t, fd, f, r), io.synthFileWrite(t, fd, f, r)
			kind = FDFile
		}
	}
	io.setFDCell(t, fd, kernel.FDKind, kind)
	io.setFDCell(t, fd, kernel.FDPos, 0)
	io.installFD(t, fd, read, write)
	return fd
}

// Close serves the close system call: point the vectors back at the
// bad-fd stub and free the slot. The slot keeps its code region, and
// its next open of a per-descriptor kind builds into it. The slot's
// byte gauge moves to the thread's, where the scheduler still sees
// it, so the next descriptor here counts from zero. Returns false for
// a slot that is not open.
func (io *IO) Close(t *kernel.Thread, fd int32) bool {
	if t == nil || fd < 0 || fd >= kernel.MaxFD {
		return false
	}
	kind := io.fdCell(t, fd, kernel.FDKind)
	if kind == FDFree {
		return false
	}
	m := io.K.M
	m.Poke(t.TTE+kernel.TTEIOGauge, 4, m.Peek(t.TTE+kernel.TTEIOGauge, 4)+io.fdCell(t, fd, kernel.FDGauge))
	io.setFDCell(t, fd, kernel.FDGauge, 0)
	io.setFDCell(t, fd, kernel.FDKind, FDFree)
	switch aux := io.fdCell(t, fd, kernel.FDAux); kind {
	case FDSock:
		io.closeSocket(aux)
	case FDProc:
		io.closeProc(aux)
	case FDPipeR, FDPipeW:
		io.closePipeEnd(aux)
	}
	io.installFD(t, fd, entries{}, entries{})
	return true
}
