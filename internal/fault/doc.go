// Package fault is the deterministic fault-injection plane. It plugs
// into the m68k device layer the same way prof.Probe plugs into the
// step loop: a nil-checked hook (Machine.Inj) that costs nothing when
// absent. An Injector perturbs the device view of the world — losing,
// corrupting, duplicating and delaying NIC frames, raising bus errors
// on device-window accesses, firing spurious interrupts and interrupt
// storms at a chosen IPL, jittering the interval timer, and forcing
// packet-ring-full conditions — while the kernel under test must keep
// serving. Every random draw comes from one seeded source, so a fault
// schedule replays exactly: a failing soak run is a repro, not an
// anecdote.
//
// A Plan is built programmatically or by Parse from the one grammar
// that -faults and cluster.Config.Faults share (SpecHelp), e.g.
// "spurious=7:20000,buserr=disk@3"; New(plan, seed) builds its
// injector. The same Plan carries the fleet clauses internal/cluster
// executes, and a fabric link decides its drop, corrupt, dup and delay
// with the same Wire.Draw as the NIC injector. The injector's
// Stats and the kernel's recovery counters (kernel.spurious_irq,
// kio.net.recovery_events, ...) land in the metrics registry, so a
// seeded soak can assert both that faults fired and that the kernel
// absorbed them — `make soak` is exactly that, under the race
// detector.
package fault
