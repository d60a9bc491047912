package kio

import "synthesis/internal/synth"

// SetNetMode rebuilds the receive handler in the given demultiplex
// discipline, with the storm throttle engaged or not, the way the
// watchdog's mode changes do.
func (io *IO) SetNetMode(generic, throttled bool) {
	io.netGeneric, io.netCoalesce = generic, 0
	if throttled {
		io.netCoalesce = coalesceBatch
	}
	io.resynthNetHandler()
}

// BadFD returns the routine a descriptor that is not open enters, by
// either convention.
func (io *IO) BadFD() uint32 { return io.badFD }

// TTYQueue returns the raw tty input queue's address.
func (io *IO) TTYQueue() uint32 { return io.ttyQ }

// EmitCopy emits emitCopy's form: LongCopy, BlockCopy or SumCopy.
func EmitCopy(e *synth.Emitter, form int) { emitCopy(e, form) }

// emitCopy's forms.
const LongCopy, BlockCopy, SumCopy = longCopy, blockCopy, sumCopy
