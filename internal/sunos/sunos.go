// Package sunos is the comparison baseline: a traditional, layered
// UNIX kernel in the style of SUNOS 3.5 running on the same
// Quamachine. It services the identical trap #0 system-call
// convention as the Synthesis UNIX emulator, so the same benchmark
// "binaries" run on both kernels and Table 1's comparison is direct.
//
// Everything the Synthesis kernel specializes away is deliberately
// present here, because this is how the traditional kernel works
// (summarized from the paper's description and the lineage of the
// 4.2BSD-derived source it cites):
//
//   - system call entry saves and restores the full register set and
//     dispatches through a bounds-checked table;
//   - every read/write revalidates the descriptor (getf), then
//     dispatches again through a file-operations table;
//   - file reads walk inode -> buffer cache (linear scan of buffer
//     headers) -> per-byte uiomove copy loop;
//   - open runs namei: the path is parsed component by component,
//     each resolved by a linear directory scan with forward string
//     comparison;
//   - pipes are socket pairs: each write allocates mbufs, copies into
//     them byte by byte, appends to the socket buffer under a
//     test-and-set lock and wakes readers by scanning the whole
//     process table (the "general blocked queue" Synthesis
//     eliminated);
//   - the context switch always saves everything: all integer
//     registers, the floating-point context, and a copy into the
//     process-table entry, followed by a run-queue scan.
//
// There is no code synthesis anywhere: all state is fetched from
// memory at run time.
package sunos

import (
	"errors"

	"synthesis/internal/alloc"
	"synthesis/internal/asmkit"
	"synthesis/internal/m68k"
)

// Memory map.
const (
	bootVBR  uint32 = 0x0000_0100
	globBase uint32 = 0x0000_0600

	gUArea   = globBase + 0  // address of the u-area
	gClock   = globBase + 4  // ticking "time" for inode stamps
	gProcTab = globBase + 8  // process table base
	gMFree   = globBase + 12 // mbuf free list head
	gRootDir = globBase + 16 // root directory inode
	gBufHdr  = globBase + 20 // buffer cache headers base
	gBufRot  = globBase + 24 // buffer cache replacement rotor
	gExitRes = globBase + 28 // exit status
	gMStat   = globBase + 32 // mbuf allocation statistics (mbstat)

	heapBase uint32 = 0x0001_0000
)

// u-area file table.
const (
	nofile    = 16
	uSlotSize = 16
	// Slot fields.
	fType = 0 // 0 free, 1 inode, 2 pipe-read, 3 pipe-write, 4 null, 5 tty
	fPtr  = 4 // inode or socket buffer address
	fOff  = 8 // file offset
	fAux  = 12
)

// File slot types.
const (
	ftFree = iota
	ftInode
	ftPipeR
	ftPipeW
	ftNull
	ftTTY
	ftSock
)

// inode layout.
const (
	iLock      = 0
	iSize      = 4
	iData      = 8 // backing storage address
	iMtime     = 12
	iAtime     = 16
	iKind      = 20 // 0 directory, 1 regular, 4 null, 5 tty
	iCap       = 24
	inodeBytes = 32
)

// Directory entries: [inode addr (4)][name (28, NUL padded)].
const (
	direntBytes = 32
	nameMax     = 27
)

// Buffer cache.
const (
	nbuf     = 16
	bufBlock = 1024
	// Header fields.
	bInode      = 0
	bBlk        = 4
	bAddr       = 8
	bValid      = 12
	bufHdrBytes = 16
)

// mbufs (socket-pipe storage).
const (
	mNext     = 0
	mLen      = 4
	mOff      = 8 // consumption offset within the data area
	mData     = 12
	mbufBytes = 128
	mbufCap   = mbufBytes - mData
	nmbufs    = 128
)

// Socket buffer (one per pipe).
const (
	sbCC    = 0 // byte count
	sbHead  = 4
	sbTail  = 8
	sbLock  = 12
	sbBytes = 16
)

// Process table: nproc entries scanned by wakeup.
const (
	nproc     = 64
	pWchan    = 0
	pStat     = 4
	pPri      = 8
	pRegs     = 12 // 15 integer registers copied by the full switch
	pFP       = 72 // 8 x 12 bytes of FP context
	procBytes = 176
)

// Kernel is one booted baseline instance.
type Kernel struct {
	M    *m68k.Machine
	Heap *alloc.Heap

	TTYDev *m68k.TTY

	// Routine addresses.
	sysEntry uint32
	swtchR   uint32 // full context switch (ablation measurements)
	bcopyR   uint32
	bread    uint32
	uarea    uint32
	rootDir  uint32
	sockPool uint32 // static socket table (nsock entries)

	files map[string]*File

	halted bool
}

// File mirrors one created file.
type File struct {
	Name  string
	Inode uint32
	Data  uint32
	Size  uint32
	Cap   uint32
}

// Boot builds the baseline kernel.
func Boot(cfg m68k.Config) *Kernel {
	if cfg.MemSize == 0 {
		cfg.MemSize = 4 << 20
	}
	m := m68k.New(cfg)
	k := &Kernel{
		M:     m,
		Heap:  alloc.New(heapBase, cfg.MemSize-heapBase),
		files: make(map[string]*File),
	}
	k.TTYDev = m68k.NewTTY(m)
	m.Attach(m68k.NewTimer(m))
	m.Attach(k.TTYDev)
	m.Attach(m68k.NewCons())

	k.initStructures()
	k.buildRoutines()
	k.installVectors()
	return k
}

func (k *Kernel) alloc(n uint32) uint32 {
	a, err := k.Heap.Alloc(n)
	if err != nil {
		panic("sunos: heap exhausted")
	}
	return a
}

// initStructures lays out the u-area, proc table, buffer cache, mbuf
// free list and root directory.
func (k *Kernel) initStructures() {
	m := k.M

	k.uarea = k.alloc(nofile * uSlotSize)
	for i := uint32(0); i < nofile*uSlotSize; i += 4 {
		m.Poke(k.uarea+i, 4, 0)
	}
	m.Poke(gUArea, 4, k.uarea)
	m.Poke(gClock, 4, 1)

	proc := k.alloc(nproc * procBytes)
	for i := uint32(0); i < nproc*procBytes; i += 4 {
		m.Poke(proc+i, 4, 0)
	}
	m.Poke(gProcTab, 4, proc)

	hdrs := k.alloc(nbuf * bufHdrBytes)
	data := k.alloc(nbuf * bufBlock)
	for i := 0; i < nbuf; i++ {
		h := hdrs + uint32(i*bufHdrBytes)
		m.Poke(h+bInode, 4, 0)
		m.Poke(h+bBlk, 4, 0)
		m.Poke(h+bAddr, 4, data+uint32(i*bufBlock))
		m.Poke(h+bValid, 4, 0)
	}
	m.Poke(gBufHdr, 4, hdrs)
	m.Poke(gBufRot, 4, 0)

	// mbuf free list.
	var prev uint32
	for i := 0; i < nmbufs; i++ {
		mb := k.alloc(mbufBytes)
		m.Poke(mb+mNext, 4, prev)
		prev = mb
	}
	m.Poke(gMFree, 4, prev)

	// Root directory inode with an empty entry table (grown by
	// CreateFile / device registration).
	k.rootDir = k.makeInode(0, 0, 0, 0)
	m.Poke(gRootDir, 4, k.rootDir)

	// Standard device nodes live under /dev.
	devDir := k.mkdir(k.rootDir, "dev")
	k.addEntry(devDir, "null", k.makeInode(4, 0, 0, 0))
	k.addEntry(devDir, "tty", k.makeInode(5, 0, 0, 0))

	// The static socket table (sockets are not heap objects here:
	// the traditional kernel preallocates its tables).
	k.sockPool = k.alloc(nsock * soBytes)
	for i := uint32(0); i < nsock*soBytes; i += 4 {
		m.Poke(k.sockPool+i, 4, 0)
	}
}

// makeInode allocates and fills an inode.
func (k *Kernel) makeInode(kind, size, data, capacity uint32) uint32 {
	m := k.M
	ino := k.alloc(inodeBytes)
	m.Poke(ino+iLock, 4, 0)
	m.Poke(ino+iSize, 4, size)
	m.Poke(ino+iData, 4, data)
	m.Poke(ino+iMtime, 4, 0)
	m.Poke(ino+iAtime, 4, 0)
	m.Poke(ino+iKind, 4, kind)
	m.Poke(ino+iCap, 4, capacity)
	return ino
}

// mkdir adds a directory beneath parent and returns its inode.
func (k *Kernel) mkdir(parent uint32, name string) uint32 {
	dir := k.makeInode(0, 0, 0, 0)
	k.addEntry(parent, name, dir)
	return dir
}

// addEntry appends a directory entry, reallocating the entry table
// (directories are small; this is boot-time only).
func (k *Kernel) addEntry(dir uint32, name string, ino uint32) {
	if len(name) > nameMax {
		panic("sunos: name too long: " + name)
	}
	m := k.M
	oldData := m.Peek(dir+iData, 4)
	oldSize := m.Peek(dir+iSize, 4)
	newData := k.alloc(oldSize + direntBytes)
	if oldSize > 0 {
		m.PokeBytes(newData, m.PeekBytes(oldData, int(oldSize)))
		k.Heap.Free(oldData)
	}
	e := newData + oldSize
	m.Poke(e, 4, ino)
	for i := 0; i < nameMax+1; i++ {
		var c uint32
		if i < len(name) {
			c = uint32(name[i])
		}
		m.Poke(e+4+uint32(i), 1, c)
	}
	m.Poke(dir+iData, 4, newData)
	m.Poke(dir+iSize, 4, oldSize+direntBytes)
}

// CreateFile adds a regular file at an absolute path (directories
// created as needed), with the given capacity for growth.
func (k *Kernel) CreateFile(path string, contents []byte, capacity uint32) *File {
	if capacity < uint32(len(contents)) {
		capacity = uint32(len(contents))
	}
	var data uint32
	if capacity > 0 {
		data = k.alloc(capacity)
		k.M.PokeBytes(data, contents)
	}
	ino := k.makeInode(1, uint32(len(contents)), data, capacity)

	dir := k.rootDir
	rest := path
	for len(rest) > 0 && rest[0] == '/' {
		rest = rest[1:]
	}
	for {
		slash := -1
		for i := 0; i < len(rest); i++ {
			if rest[i] == '/' {
				slash = i
				break
			}
		}
		if slash < 0 {
			break
		}
		comp := rest[:slash]
		rest = rest[slash+1:]
		if sub := k.lookupEntry(dir, comp); sub != 0 {
			dir = sub
		} else {
			dir = k.mkdir(dir, comp)
		}
	}
	k.addEntry(dir, rest, ino)
	f := &File{Name: path, Inode: ino, Data: data, Size: uint32(len(contents)), Cap: capacity}
	k.files[path] = f
	return f
}

// lookupEntry is the host-side directory scan (boot only).
func (k *Kernel) lookupEntry(dir uint32, name string) uint32 {
	m := k.M
	data := m.Peek(dir+iData, 4)
	size := m.Peek(dir+iSize, 4)
	for off := uint32(0); off < size; off += direntBytes {
		e := data + off
		got := ""
		for i := 0; i < nameMax; i++ {
			c := byte(m.Peek(e+4+uint32(i), 1))
			if c == 0 {
				break
			}
			got += string(c)
		}
		if got == name {
			return m.Peek(e, 4)
		}
	}
	return 0
}

// FileSize reads a file's live size from its inode.
func (k *Kernel) FileSize(path string) uint32 {
	f := k.files[path]
	if f == nil {
		return 0
	}
	return k.M.Peek(f.Inode+iSize, 4)
}

// installVectors points the boot vector table at the syscall entry
// and panic stubs.
func (k *Kernel) installVectors() {
	m := k.M
	b := asmkit.New()
	b.Kcall(201) // panic service
	b.Halt()
	panicStub := b.Link(m)

	m.VBR = bootVBR
	for v := 0; v < m68k.NumVectors; v++ {
		m.Poke(bootVBR+uint32(v)*4, 4, panicStub)
	}
	m.Poke(bootVBR+uint32(m68k.VecTrapBase)*4, 4, k.sysEntry)

	m.RegisterService(201, func(mm *m68k.Machine) uint64 {
		k.halted = true
		return 0
	})
	m.RegisterService(202, func(mm *m68k.Machine) uint64 {
		// exit: record status and halt.
		mm.Poke(gExitRes, 4, mm.D[1])
		return 0
	})
}

// Run executes the user program at entry until exit.
func (k *Kernel) Run(entry uint32, maxCycles uint64) error {
	m := k.M
	// User stack near the top of memory; the baseline runs the
	// program in supervisor state on its single kernel stack (no
	// quaspaces — faithful to the flat single-process comparison).
	m.A[7] = uint32(len(m.Mem) - 16)
	m.SSP = m.A[7]
	// The baseline is fully polled (tty status loops, disk untouched)
	// and single-process, so it runs with interrupts masked — device
	// interrupt lines have no handlers here.
	m.SR = m68k.FlagS | 7<<8
	m.PC = entry
	err := m.Run(maxCycles)
	if errors.Is(err, m68k.ErrHalted) {
		return nil
	}
	return err
}

// Panicked reports whether the panic stub fired.
func (k *Kernel) Panicked() bool { return k.halted }
