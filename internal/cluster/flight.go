package cluster

import (
	"fmt"
	"io"
	"strings"
	"sync"

	"synthesis/internal/kernel"
)

// The flight recorder: when Config.Flight is set, every VM boots
// with the profiler attached (its event ring is the recent
// sched/IRQ/region history, its program trace the recent
// instructions), and a VM driver error — guest panic, halt,
// unexpected machine fault — renders the whole tail into a dump the
// moment it happens.
// The two scheduler bugs of PR 6 and PR 7 each took a soak-and-bisect
// hunt to see; this turns the next one into reading a dump.

// flightEventTail bounds the profiler events rendered in a dump.
const flightEventTail = 64

// flightInstrTail is the program-trace depth a flight recorder arms.
const flightInstrTail = 48

type flightState struct {
	mu    sync.Mutex
	dumps []string
}

// FlightDumps returns the dumps captured so far (one per failed VM),
// in capture order.
func (c *Cluster) FlightDumps() []string {
	if c.flight == nil {
		return nil
	}
	c.flight.mu.Lock()
	defer c.flight.mu.Unlock()
	return append([]string(nil), c.flight.dumps...)
}

// captureFlight renders and retains one VM's dump. Called from the
// VM's own driver goroutine at the moment of failure, before the
// error is published, so the rings still hold the failure's tail.
func (c *Cluster) captureFlight(vm *VM, err error) {
	if c.flight == nil {
		return
	}
	vm.mu.Lock()
	dump := renderFlight(vm, err, c)
	vm.mu.Unlock()
	c.flight.mu.Lock()
	c.flight.dumps = append(c.flight.dumps, dump)
	c.flight.mu.Unlock()
}

// DumpFlight quiesces the fleet and writes every VM's current flight
// state — failed or not — to w. Soak tests call this when an
// assertion (not a VM) fails, so the dump shows what the whole fleet
// was doing at the moment the invariant broke.
func (c *Cluster) DumpFlight(w io.Writer) {
	for _, vm := range c.vms {
		vm.mu.Lock()
		dump := renderFlight(vm, vm.err, c)
		vm.mu.Unlock()
		fmt.Fprint(w, dump)
	}
	for _, d := range c.FlightDumps() {
		fmt.Fprintf(w, "---- captured at failure ----\n%s", d)
	}
}

// renderFlight formats one VM's recent history. Callers hold vm.mu.
func renderFlight(vm *VM, err error, c *Cluster) string {
	var b strings.Builder
	k := vm.K
	m := k.M
	fmt.Fprintf(&b, "==== flight vm%d ====\n", vm.ID)
	if err != nil {
		fmt.Fprintf(&b, "error: %v\n", err)
	}
	fmt.Fprintf(&b, "cycles=%d pc=%d sr=%#x cur_tte=%#x ingress=%d/%d\n",
		m.Clock(), m.PC, m.SR, k.CurTTE(), vm.ingress.Len(), vm.ingress.Cap())
	if k.PanicMsg != "" {
		fmt.Fprintf(&b, "panic: %s\n", k.PanicMsg)
	}

	// Live threads, in creation order. The state is read from the TTE:
	// the ready ring's unlink clears TTENext, so a nonzero link means the
	// thread is on the ring.
	for t := range k.Threads() {
		state := "blocked"
		switch {
		case t.TTE == k.CurTTE():
			state = "running"
		case m.Peek(t.TTE+kernel.TTENext, 4) != 0:
			state = "ready"
		}
		fmt.Fprintf(&b, "thread %-12s tte=%#x %s\n", t.Name, t.TTE, state)
	}

	if p := k.Prof; p != nil {
		// IRQ raise→entry latency per level: the first place a
		// missed-wake or masked-window bug shows.
		for l := 7; l >= 1; l-- {
			h := p.IRQ(l)
			if h.Count == 0 {
				continue
			}
			fmt.Fprintf(&b, "irq l%d: n=%d mean=%.0f max=%d cycles\n",
				l, h.Count, h.Mean(), h.Max)
		}
		evs := p.Ring().Items()
		if len(evs) > flightEventTail {
			evs = evs[len(evs)-flightEventTail:]
		}
		fmt.Fprintf(&b, "-- last %d profiler events --\n", len(evs))
		for _, e := range evs {
			if e.Ph == 'X' {
				fmt.Fprintf(&b, "%12d +%-8d %s\n", e.At, e.Dur, e.Name)
			} else {
				fmt.Fprintf(&b, "%12d          * %s\n", e.At, e.Name)
			}
		}
		if t := p.Trace(); t != nil && t.Len() > 0 {
			fmt.Fprintf(&b, "-- last %d instructions --\n", t.Len())
			b.WriteString(p.Tail(t.Len()))
		}
	}

	if c.tr != nil {
		s, done, inc, ab := c.tr.mSampled.Value(), c.tr.mCompleted.Value(),
			c.tr.mIncompl.Value(), c.tr.mAbandoned.Value()
		fmt.Fprintf(&b, "trace plane: sampled=%d completed=%d incomplete=%d abandoned=%d\n",
			s, done, inc, ab)
	}
	return b.String()
}
