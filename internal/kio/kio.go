// Package kio is the Synthesis kernel's I/O system (Section 5): device
// servers encapsulating the physical devices, streams connecting them
// to threads, and — the heart of the paper — read and write routines
// synthesized by open, specialized to the file, device or pipe they
// serve and installed directly in the opening thread's system-call
// vectors.
//
// Every data-path routine here is Quamachine code emitted through the
// synthesizer with the quaject's invariants (buffer addresses, queue
// geometry, descriptor cells) folded in as constants. The open/close
// bookkeeping that the paper does not time runs in Go behind the
// kernel's KCALL services.
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
	badFD uint32 // handler for closed/never-opened descriptors

	// Raw tty server state.
	ttyQ    uint32 // kernel byte queue fed by the tty interrupt
	ttyIntH uint32 // synthesized tty interrupt handler
	adIntH  uint32 // synthesized A/D interrupt handler
	adQ     *ADQueue
	pipes   []*Pipe
	echo    bool

	// Raw disk server state.
	diskIntH      uint32 // synthesized disk completion handler
	diskWait      uint32 // wait cell for the (single) outstanding request
	nextDiskBlock uint32 // host-side block allocation cursor

	// Network server state.
	netIntH      uint32 // synthesized receive interrupt handler (current)
	netRing      uint32 // NIC DMA receive ring base
	netTailCell  uint32 // kernel mirror of the consumed-frame count
	netDropCell  uint32 // frames for ports nobody has open
	netStormCell uint32 // handler entries this watchdog window
	netCoalCell  uint32 // coalescing front-end interrupt counter
	netPortCount uint32 // generic fallback: open-socket count cell
	netPortTab   uint32 // generic fallback: [port, queue] pair table
	netGeneric   bool   // demux strategy: layered table walk, not compare chain
	netCoalesce  uint32 // >0: storm throttle, drain every Nth interrupt
	netWD        *Watchdog
	socks        []*NSocket

	// Metrics quaject state.
	procLast []byte // bytes of the last snapshot cut by a /proc open
}

// TTYIntHandler returns the synthesized tty interrupt handler's code
// address (benchmarks time it with a hand-built exception frame).
func (io *IO) TTYIntHandler() uint32 { return io.ttyIntH }

// ADIntHandler returns the synthesized A/D interrupt handler.
func (io *IO) ADIntHandler() uint32 { return io.adIntH }

// Install wires the I/O system into a freshly booted kernel: device
// files, interrupt handlers, and the open/close/pipe hooks. Must run
// before user threads are created so they inherit the interrupt
// vectors.
func Install(k *kernel.Kernel) *IO {
	io := &IO{K: k, echo: true}

	// Device files.
	mustCreate(k.FS.CreateSpecial("/dev/null", fs.SpecialNull))
	mustCreate(k.FS.CreateSpecial("/dev/tty", fs.SpecialTTY))
	mustCreate(k.FS.CreateSpecial("/dev/ad", fs.SpecialAD))

	io.badFD = k.C.Synthesize(nil, "bad_fd", nil, func(e *synth.Emitter) {
		e.MoveL(m68k.Imm(-1), m68k.D(0))
		e.Rte()
	})
	// A descriptor that was never opened fails like a closed one.
	for fd := 0; fd < kernel.MaxFD; fd++ {
		io.pokeAllVectors(m68k.VecTrapBase+kernel.TrapRead+fd, io.badFD)
		io.pokeAllVectors(m68k.VecTrapBase+kernel.TrapWrite+fd, io.badFD)
	}

	io.installTTY()
	io.installAD()
	io.installDisk()
	io.installNet()
	io.installProc()
	io.wireIOMetrics()

	k.OpenHook = io.open
	k.CloseHook = io.close
	k.PipeHook = io.pipe
	k.SockHook = io.sock
	return io
}

func mustCreate(f *fs.File, err error) *fs.File {
	if err != nil {
		panic(err)
	}
	return f
}

// pokeAllVectors sets a vector in the prototype table and in every
// existing thread.
func (io *IO) pokeAllVectors(vec int, addr uint32) {
	k := io.K
	k.M.Poke(k.ProtoVectors()+uint32(vec)*4, 4, addr)
	for _, t := range k.Threads {
		k.M.Poke(t.TTE+kernel.TTEVec+uint32(vec)*4, 4, addr)
	}
}

// allocFD finds a free descriptor slot on the thread.
func allocFD(t *kernel.Thread) int32 {
	for i := range t.FDs {
		if t.FDs[i].Kind == "" {
			return int32(i)
		}
	}
	return -1
}

// installFD installs synthesized read/write handlers in the thread's
// trap vectors for the descriptor.
func (io *IO) installFD(t *kernel.Thread, fd int32, read, write uint32) {
	m := io.K.M
	if read == 0 {
		read = io.badFD
	}
	if write == 0 {
		write = io.badFD
	}
	m.Poke(t.TTE+kernel.TTEVec+uint32(m68k.VecTrapBase+kernel.TrapRead+int(fd))*4, 4, read)
	m.Poke(t.TTE+kernel.TTEVec+uint32(m68k.VecTrapBase+kernel.TrapWrite+int(fd))*4, 4, write)
}

// open implements the kernel's OpenHook: called from the open system
// call after the VM name lookup succeeded. It allocates a descriptor
// and synthesizes the specialized read and write routines — this is
// the charged code-synthesis part of open's cost (Section 6.3: "60%
// are used to find the file ... and 40% for code synthesis").
func (io *IO) open(k *kernel.Kernel, t *kernel.Thread, name string) (int32, bool) {
	if t == nil {
		return -1, false
	}
	f := k.FS.Lookup(name)
	if f == nil {
		return -1, false
	}
	fd := allocFD(t)
	if fd < 0 {
		return -1, false
	}
	var read, write uint32
	kind := ""
	switch f.Special {
	case fs.SpecialNull:
		read, write = io.synthNull(t, fd)
		kind = "null"
	case fs.SpecialTTY:
		if name == "/dev/rawtty" {
			read, write = io.synthRawTTY(t, fd)
			kind = "rawtty"
		} else {
			read, write = io.synthTTY(t, fd)
			kind = "tty"
		}
	case fs.SpecialAD:
		read, write = io.synthAD(t, fd), 0
		kind = "ad"
	case fs.SpecialDisk:
		read, write = io.synthDiskFile(t, fd, f)
		kind = "diskfile"
	case fs.SpecialMetrics:
		read, write = io.synthProcRead(t, fd, f), 0
		kind = "proc"
	default:
		read, write = io.synthFile(t, fd, f)
		kind = "file"
	}
	t.FDs[fd] = kernel.FDInfo{Kind: kind, File: name}
	// Reset the descriptor's position cell.
	k.M.Poke(kernel.FDCell(t.TTE, int(fd), kernel.FDPos), 4, 0)
	io.installFD(t, fd, read, write)
	io.registerFDMetrics(t, fd)
	return fd, true
}

// close implements CloseHook: point the vectors back at the bad-fd
// stub and release the slot. The synthesized routines stay in code
// space and in the creator's cache, so the next open of the same thing
// on this slot finds them by key (synth.Builder.Key) and builds nothing.
// The slot's byte gauge moves to the thread's, where the scheduler
// still sees it, so the next descriptor here counts from zero.
func (io *IO) close(k *kernel.Kernel, t *kernel.Thread, fd int32) bool {
	if t == nil || fd < 0 || int(fd) >= kernel.MaxFD || t.FDs[fd].Kind == "" {
		return false
	}
	gauge := kernel.FDCell(t.TTE, int(fd), kernel.FDGauge)
	k.M.Poke(t.TTE+kernel.TTEIOGauge, 4, k.M.Peek(t.TTE+kernel.TTEIOGauge, 4)+k.M.Peek(gauge, 4))
	k.M.Poke(gauge, 4, 0)
	switch t.FDs[fd].Kind {
	case "sock":
		io.closeSocket(t, fd)
	case "proc":
		io.closeProc(t, fd)
	}
	io.unregisterFDMetrics(t, fd)
	io.installFD(t, fd, 0, 0)
	t.FDs[fd] = kernel.FDInfo{}
	return true
}

// pipe implements PipeHook for the native pipe call: both ends land
// in the calling thread.
func (io *IO) pipe(k *kernel.Kernel, t *kernel.Thread) (int32, int32, bool) {
	if t == nil {
		return -1, -1, false
	}
	p := io.NewPipe(DefaultPipeBytes)
	rfd := io.OpenPipeEnd(t, p, false)
	wfd := io.OpenPipeEnd(t, p, true)
	if rfd < 0 || wfd < 0 {
		return -1, -1, false
	}
	return rfd, wfd, true
}
