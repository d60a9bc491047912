package kio

import (
	"synthesis/internal/fs"
	"synthesis/internal/kernel"
	"synthesis/internal/m68k"
	"synthesis/internal/synth"
)

// Synthesized file and /dev/null I/O (Table 2).
//
// The file read of the paper is the showcase specialization: open
// binds the file's buffer-cache address, its size cell and the
// descriptor's position cell (a TTE-local cell — Code Isolation: each
// thread updates its own descriptor state without locks) into a short
// routine, so a later read never consults a descriptor table, vnode
// or cache index.

// synthNull returns the /dev/null pair. Read returns 0 (end of file),
// write claims everything was written: the whole routine is the
// residue after every invariant folds away. The read reads no
// argument, so one entry serves both conventions; the write reads
// only the length, so its UNIX entry is its own copy reading D3.
func (io *IO) synthNull(t *kernel.Thread) (read, write entries) {
	c := io.K.C
	read = io.once(&io.nullRead, c.Build(t.Q, "null_read"), func(e *synth.Emitter) {
		e.Label(synth.EntryAlt)
		e.Label(synth.EntryMain)
		e.Clr(4, m68k.D(0))
		e.Rte()
	})
	write = io.once(&io.nullWrite, c.Build(t.Q, "null_write"), func(e *synth.Emitter) {
		e.Entry(synth.EntryAlt)
		e.MoveL(m68k.D(3), m68k.D(0))
		e.Rte()
		e.Entry(synth.EntryMain)
		e.MoveL(m68k.D(2), m68k.D(0))
		e.Rte()
	})
	return read, write
}

// synthFileRead emits read(d1=buf, d2=len) -> d0 = n for a plain
// memory-resident file ("Data already in kernel queues or buffer
// cache", Table 2) into the slot's region r.
func (io *IO) synthFileRead(t *kernel.Thread, fd int32, f *fs.File, r *region) entries {
	return buildRW(r.at(io.K.C.Build(t.Q, "file_read")), func(e *synth.Emitter) {
		io.emitFileReadBody(e, t, fd, f)
	})
}

// emitFileReadBody is the specialized read of a file whose contents are
// in memory, shared by plain files and, behind their demand-load
// prologue, disk-resident ones: the file's buffer, its size cell and
// the descriptor's position and gauge cells are folded in.
func (io *IO) emitFileReadBody(e *synth.Emitter, t *kernel.Thread, fd int32, f *fs.File) {
	pos := kernel.FDCell(t.TTE, int(fd), kernel.FDPos)
	e.MoveL(m68k.D(1), m68k.A(1))     // dst
	e.MoveL(m68k.Abs(pos), m68k.D(0)) // position
	e.MoveL(m68k.Abs(f.Entry+fs.EntSize), m68k.D(1))
	e.SubL(m68k.D(0), m68k.D(1)) // avail = size - pos
	e.Bhi("fr_some")
	e.Clr(4, m68k.D(0)) // at or past EOF
	e.Rte()
	e.Label("fr_some")
	// n = min(avail, len)
	e.Cmp(4, m68k.D(2), m68k.D(1))
	e.Bls("fr_n")
	e.MoveL(m68k.D(2), m68k.D(1))
	e.Label("fr_n")
	// src = data + pos; pos += n
	e.Lea(m68k.Abs(f.Data), 0)
	e.AddL(m68k.D(0), m68k.A(0))
	e.AddL(m68k.D(1), m68k.D(0))
	e.MoveL(m68k.D(0), m68k.Abs(pos))
	e.MoveL(m68k.D(1), m68k.PreDec(7))    // save n
	emitCopy(e, blockCopy, io.copyGroups) // n bytes, clobbers d0/d1
	e.MoveL(m68k.PostInc(7), m68k.D(0))
	// Byte-rate gauge for the fine-grain scheduler.
	e.AddL(m68k.D(0), m68k.Abs(kernel.FDCell(t.TTE, int(fd), kernel.FDGauge)))
	e.Rte()
}

// synthFileWrite emits write(d1=buf, d2=len) -> d0 = n (bounded by
// the file's capacity; the memory-resident file grows in place) into
// the slot's region r.
func (io *IO) synthFileWrite(t *kernel.Thread, fd int32, f *fs.File, r *region) entries {
	c := io.K.C
	pos := kernel.FDCell(t.TTE, int(fd), kernel.FDPos)
	sizeCell := f.Entry + fs.EntSize
	data := f.Data
	capLimit := f.Cap
	return buildRW(r.at(c.Build(t.Q, "file_write")), func(e *synth.Emitter) {
		e.MoveL(m68k.D(1), m68k.A(0))     // src
		e.MoveL(m68k.Abs(pos), m68k.D(0)) // position
		e.MoveL(m68k.Imm(int32(capLimit)), m68k.D(1))
		e.SubL(m68k.D(0), m68k.D(1)) // room = cap - pos
		e.Bhi("fw_some")
		e.Clr(4, m68k.D(0))
		e.Rte()
		e.Label("fw_some")
		e.Cmp(4, m68k.D(2), m68k.D(1))
		e.Bls("fw_n")
		e.MoveL(m68k.D(2), m68k.D(1))
		e.Label("fw_n")
		e.Lea(m68k.Abs(data), 1)
		e.AddL(m68k.D(0), m68k.A(1)) // dst = data + pos
		e.AddL(m68k.D(1), m68k.D(0)) // pos += n
		e.MoveL(m68k.D(0), m68k.Abs(pos))
		// size = max(size, pos)
		e.Cmp(4, m68k.Abs(sizeCell), m68k.D(0))
		e.Bls("fw_nosz")
		e.MoveL(m68k.D(0), m68k.Abs(sizeCell))
		e.Label("fw_nosz")
		e.MoveL(m68k.D(1), m68k.PreDec(7))
		emitCopy(e, blockCopy, io.copyGroups)
		e.MoveL(m68k.PostInc(7), m68k.D(0))
		e.AddL(m68k.D(0), m68k.Abs(kernel.FDCell(t.TTE, int(fd), kernel.FDGauge)))
		e.Rte()
	})
}
