package kio

import (
	"synthesis/internal/kernel"
	"synthesis/internal/synth"
)

// Pipes (Section 6.2, programs 2-4): a kernel byte queue with
// synthesized, pipe-specific read and write routines on each end.
// The queue address and size are folded into the code at open time;
// the 1-byte case runs the same specialized path with a chunk of one,
// which is where the paper's 56x single-byte speedup over the
// traditional layered pipe implementation comes from.

// DefaultPipeBytes is the pipe buffer size: comfortably more than one
// page so the Table 1 programs can write a full 4 KB chunk and read
// it back within a single thread without blocking.
const DefaultPipeBytes = 8192

// Pipe is the host-side mirror of one kernel pipe.
type Pipe struct {
	Q *KQueue
}

// NewPipe allocates the pipe's kernel queue.
func (io *IO) NewPipe(size int32) *Pipe {
	p := &Pipe{Q: io.NewKQueue(size)}
	io.pipes = append(io.pipes, p)
	io.registerPipeMetrics(p, len(io.pipes)-1)
	return p
}

// OpenPipeEnd synthesizes one end of the pipe for a thread and
// installs it as a descriptor: writeEnd selects the writing side.
// Returns the descriptor, or -1 when the thread's table is full.
// Both ends may live in the same thread (the Table 1 benchmarks) or
// in different threads (a producer/consumer stream).
func (io *IO) OpenPipeEnd(t *kernel.Thread, p *Pipe, writeEnd bool) int32 {
	fd := allocFD(t)
	if fd < 0 {
		return -1
	}
	var read, write uint32
	if writeEnd {
		g := kernel.FDCell(t.TTE, int(fd), kernel.FDGauge)
		write = io.K.C.Build(t.Q, "pipe_write").Key("kio.pipe_write", t.TTE, uint32(fd), p.Q.Addr).Emit(func(e *synth.Emitter) {
			io.emitQueueWrite(e, p.Q, g)
		})
		t.FDs[fd] = kernel.FDInfo{Kind: "pipe-w", Aux: p.Q.Addr}
	} else {
		g := kernel.FDCell(t.TTE, int(fd), kernel.FDGauge)
		read = io.K.C.Build(t.Q, "pipe_read").Key("kio.pipe_read", t.TTE, uint32(fd), p.Q.Addr).Emit(func(e *synth.Emitter) {
			io.emitQueueRead(e, p.Q, g)
		})
		t.FDs[fd] = kernel.FDInfo{Kind: "pipe-r", Aux: p.Q.Addr}
	}
	io.installFD(t, fd, read, write)
	io.registerFDMetrics(t, fd)
	return fd
}
