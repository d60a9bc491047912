package kio

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
