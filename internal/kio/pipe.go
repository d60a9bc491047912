package kio

import (
	"math/bits"

	"synthesis/internal/kernel"
	"synthesis/internal/synth"
)

// Pipes (Section 6.2, programs 2-4): a kernel byte queue with
// synthesized, pipe-specific read and write routines on each end.
// The queue address and size are folded into the code at open time;
// the 1-byte case runs the same specialized path with a chunk of one,
// which is where the paper's 56x single-byte speedup over the
// traditional layered pipe implementation comes from.
//
// A pipe has no record of its own: each end is a descriptor slot whose
// FDKind cell says FDPipeR or FDPipeW and whose FDAux cell holds the
// queue. The queue is freed when the last end anywhere closes.

// DefaultPipeBytes is the pipe buffer size: comfortably more than one
// page so the Table 1 programs can write a full 4 KB chunk and read
// it back within a single thread without blocking.
const DefaultPipeBytes = 8192

// NewPipe allocates a pipe's kernel queue of size bytes, a power of
// two, for host-side setup; heap exhaustion panics. Open its ends with
// OpenPipeEnd.
func (io *IO) NewPipe(size int32) *KQueue {
	q := io.newKQueue(size)
	if q == nil {
		panic("kio: cannot allocate pipe queue")
	}
	return q
}

// pipeQueue returns the pipe queue at addr. Its size is read back from
// the heap block holding it: the largest power of two that fits after
// the header, exact for every size from 4 up.
func (io *IO) pipeQueue(addr uint32) *KQueue {
	n, _ := io.K.Heap.SizeOf(addr)
	return &KQueue{Addr: addr, Size: 1 << (bits.Len32(n-KQBuf) - 1)}
}

// pipe serves the native pipe call: both ends land in t. Returns -1, -1
// when the heap or t's descriptor table is full.
func (io *IO) pipe(t *kernel.Thread) (rfd, wfd int32) {
	if t == nil {
		return -1, -1
	}
	q := io.newKQueue(DefaultPipeBytes)
	if q == nil {
		return -1, -1
	}
	rfd = io.OpenPipeEnd(t, q, false)
	wfd = io.OpenPipeEnd(t, q, true)
	if rfd < 0 || wfd < 0 {
		// Closing the one end that opened frees the queue; with neither
		// open, free it here.
		if !io.Close(t, rfd) && !io.Close(t, wfd) {
			_ = io.K.Heap.Free(q.Addr)
		}
		return -1, -1
	}
	return rfd, wfd
}

// OpenPipeEnd synthesizes one end of the pipe on queue q for a thread
// into the descriptor slot's region and installs it as a descriptor:
// writeEnd selects the writing side. Returns the descriptor, or -1
// when the thread's table is full or the slot's region may not be
// rebuilt (slot).
// Both ends may live in the same thread (the Table 1 benchmarks) or
// in different threads (a producer/consumer stream).
func (io *IO) OpenPipeEnd(t *kernel.Thread, q *KQueue, writeEnd bool) int32 {
	fd := io.allocFD(t)
	if fd < 0 {
		return -1
	}
	r := io.slot(t, fd)
	if r == nil {
		return -1
	}
	g := kernel.FDCell(t.TTE, int(fd), kernel.FDGauge)
	var read, write entries
	kind, end, name, emit := FDPipeR, &read, "pipe_read", io.emitQueueRead
	if writeEnd {
		kind, end, name, emit = FDPipeW, &write, "pipe_write", io.emitQueueWrite
	}
	end.native, end.unix = r.at(io.K.C.Build(t.Q, name)).EmitEntries(func(e *synth.Emitter) {
		emit(e, q, g)
	})
	io.setFDCell(t, fd, kernel.FDKind, kind)
	io.setFDCell(t, fd, kernel.FDAux, q.Addr)
	io.installFD(t, fd, read, write)
	return fd
}

// closePipeEnd frees queue q once no live thread holds an end of it:
// the descriptor slots are the only record, so it scans them.
func (io *IO) closePipeEnd(q uint32) {
	for t := range io.K.Threads() {
		for fd := int32(0); fd < kernel.MaxFD; fd++ {
			if kind := io.fdCell(t, fd, kernel.FDKind); (kind == FDPipeR || kind == FDPipeW) && io.fdCell(t, fd, kernel.FDAux) == q {
				return
			}
		}
	}
	_ = io.K.Heap.Free(q)
}
