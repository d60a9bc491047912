package kio

import "synthesis/internal/synth"

// SetNetMode rebuilds the receive handler with the storm throttle
// engaged or not, the way the watchdog's mode changes do.
func (io *IO) SetNetMode(throttled bool) {
	io.netCoalesce = 0
	if throttled {
		io.netCoalesce = coalesceBatch
	}
	io.resynthNetHandler()
}

// WatchdogWindowUS is the watchdog's sampling window.
const WatchdogWindowUS = windowUS

// BadFD returns the routine a descriptor that is not open enters, by
// either convention.
func (io *IO) BadFD() uint32 { return io.badFD }

// TTYQueue returns the raw tty input queue's address.
func (io *IO) TTYQueue() uint32 { return io.ttyQ }

// EmitCopy emits emitCopy's form: LongCopy, BlockCopy or SumCopy. The
// block form calls groups, a routine EmitBlockGroups emitted.
func EmitCopy(e *synth.Emitter, form int, groups uint32) { emitCopy(e, form, groups) }

// EmitBlockGroups emits kio.block_copy's template.
func EmitBlockGroups(e *synth.Emitter) { emitBlockGroups(e) }

// BlockCopyRoutine returns the kernel's kio.block_copy routine.
func (io *IO) BlockCopyRoutine() uint32 { return io.copyGroups }

// emitCopy's forms.
const LongCopy, BlockCopy, SumCopy = longCopy, blockCopy, sumCopy

// A descriptor slot's code region: the fd-slot cell that holds its base,
// and its size.
const FDCode, FDCodeSlots = fdCode, fdCodeSlots
