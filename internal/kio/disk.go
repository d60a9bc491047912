package kio

import (
	"synthesis/internal/fs"
	"synthesis/internal/kernel"
	"synthesis/internal/m68k"
	"synthesis/internal/synth"
)

// The disk pipeline of Section 5.1: "Connected to the disk hardware we
// have a raw disk device server. The next stage in the pipeline is the
// disk scheduler, which contains the disk request queue, followed by
// the default file system cache manager ... Directly connected to the
// cache manager we have the synthesized code to read the currently
// open files."
//
// Disk-resident files are demand-loaded: the routine open synthesizes
// carries a fault prologue that checks the file's cached flag; on a
// miss it drives the raw disk server block by block — program the DMA
// registers, park on the disk wait cell, get woken by the interrupt
// handler — and then falls into the same specialized read body that
// memory-resident files use. The file geometry (start block, buffer
// address, block count, flag cell) is folded into the code at open
// time.

// installDisk synthesizes the disk interrupt handler and allocates
// the wait cell ("the disk request queue" degenerates to a single
// outstanding request: the machine has one disk and requests are
// serialized through the wait cell).
func (io *IO) installDisk() {
	k := io.K
	cell, err := k.Heap.Alloc(8)
	if err != nil {
		panic("kio: cannot allocate disk wait cell")
	}
	io.diskWait = cell
	k.M.Poke(io.diskWait, 4, 0)

	io.diskIntH = k.C.Synthesize(nil, "disk_intr", nil, func(e *synth.Emitter) {
		e.MoveL(m68k.D(0), m68k.PreDec(7))
		e.MoveL(m68k.A(0), m68k.PreDec(7))
		e.MoveL(m68k.A(1), m68k.PreDec(7))
		// Chained unblock of the thread waiting for the transfer.
		e.Lea(m68k.Abs(io.diskWait), 0)
		e.Jsr(k.WakeCellRoutine())
		e.MoveL(m68k.PostInc(7), m68k.A(1))
		e.MoveL(m68k.PostInc(7), m68k.A(0))
		e.MoveL(m68k.PostInc(7), m68k.D(0))
		e.Rte()
	})
	k.SetVector(m68k.VecAutovector+m68k.IRQDisk, io.diskIntH)
}

// StoreDiskFile writes contents onto consecutive disk blocks and
// registers a disk-resident file for them. Blocks are allocated
// sequentially from the host-side cursor.
func (io *IO) StoreDiskFile(name string, contents []byte) (*fs.File, error) {
	k := io.K
	nblocks := (len(contents) + m68k.DiskBlockSize - 1) / m68k.DiskBlockSize
	if nblocks == 0 {
		nblocks = 1
	}
	start := io.nextDiskBlock
	for b := 0; b < nblocks; b++ {
		lo := b * m68k.DiskBlockSize
		hi := lo + m68k.DiskBlockSize
		if hi > len(contents) {
			hi = len(contents)
		}
		if int(start)+b >= len(k.Disk.Blocks) {
			panic("kio: disk full")
		}
		blk := make([]byte, m68k.DiskBlockSize)
		copy(blk, contents[lo:hi])
		k.Disk.Blocks[start+uint32(b)] = blk
	}
	io.nextDiskBlock += uint32(nblocks)
	return k.FS.CreateOnDisk(name, start, uint32(len(contents)), uint32(nblocks*m68k.DiskBlockSize))
}

// synthDiskFileRead builds a disk-resident file's read into the slot's
// region r: the memory-resident file's read body behind a demand-load
// prologue. Writes go to the cache buffer through the memory-resident
// file's write (write-back: nothing is flushed to the disk blocks,
// matching the memory-resident semantics of the rest of the file
// system). Note the demand-load ordering: a write through a descriptor
// that has never faulted is clobbered when a later read faults the
// blocks in; read before writing.
func (io *IO) synthDiskFileRead(t *kernel.Thread, fd int32, f *fs.File, r *region) entries {
	k := io.K
	data := f.Data
	nblocks := (f.Cap + m68k.DiskBlockSize - 1) / m68k.DiskBlockSize
	// The cached flag lives in the descriptor's aux cell so tests can
	// watch it; all descriptors for the same file share the cache
	// buffer but fault independently (a shared flag would need the
	// cache manager's bookkeeping; one cell per open keeps the
	// synthesized code self-contained).
	cachedCell := kernel.FDCell(t.TTE, int(fd), kernel.FDAux)
	k.M.Poke(cachedCell, 4, 0)

	return buildRW(r.at(k.C.Build(t.Q, "diskfile_read")), func(e *synth.Emitter) {
		// Fault prologue: demand-load every block through the raw
		// disk server on first use.
		e.TstL(m68k.Abs(cachedCell))
		e.Bne("cached")
		e.MoveL(m68k.D(1), m68k.PreDec(7)) // preserve the caller's buffer/length
		e.MoveL(m68k.D(2), m68k.PreDec(7))
		e.MoveL(m68k.Imm(int32(nblocks)), m68k.D(2)) // blocks to go
		e.MoveL(m68k.Imm(int32(f.Block)), m68k.D(1)) // current block
		e.Lea(m68k.Abs(data), 1)                     // cache cursor
		e.Label("fault")
		// Program the raw disk server's DMA registers.
		e.MoveL(m68k.D(1), m68k.Abs(m68k.DiskBase+m68k.DiskRegBlock))
		e.MoveL(m68k.A(1), m68k.Abs(m68k.DiskBase+m68k.DiskRegAddr))
		e.MoveL(m68k.Imm(1), m68k.Abs(m68k.DiskBase+m68k.DiskRegCmd))
		// Park until the completion interrupt; re-check the done bit
		// under the mask so the wakeup cannot slip by.
		e.Label("wait")
		e.OrSR(kernel.SRIPLMask)
		e.MoveL(m68k.Abs(m68k.DiskBase+m68k.DiskRegStatus), m68k.D(0))
		e.Btst(m68k.Imm(1), m68k.D(0))
		e.Bne("done")
		e.MoveL(m68k.A(1), m68k.PreDec(7))
		e.Lea(m68k.Abs(io.diskWait), 0)
		e.Jsr(k.BlockOnRoutine())
		e.MoveL(m68k.PostInc(7), m68k.A(1))
		e.AndSR(^uint16(kernel.SRIPLMask))
		e.Bra("wait")
		e.Label("done")
		e.AndSR(^uint16(kernel.SRIPLMask))
		e.AddL(m68k.Imm(1), m68k.D(1))
		e.Lea(m68k.Disp(m68k.DiskBlockSize, 1), 1)
		e.SubL(m68k.Imm(1), m68k.D(2))
		e.Bne("fault")
		e.MoveL(m68k.Imm(1), m68k.Abs(cachedCell))
		e.MoveL(m68k.PostInc(7), m68k.D(2))
		e.MoveL(m68k.PostInc(7), m68k.D(1))
		e.Label("cached")
		io.emitFileReadBody(e, t, fd, f)
	})
}
