package kernel

import (
	"fmt"

	"synthesis/internal/m68k"
	"synthesis/internal/synth"
)

// This file builds threads: the TTE in machine memory plus the
// per-thread synthesized procedures of Figure 3 — context-switch-out
// and context-switch-in (with and without the quaspace change), and
// the lazy floating-point variant installed by resynthesis after the
// first FP trap (Section 4.2).

// perThreadCodeSlots reserves room in code space for one thread's
// switch procedures, sized for the largest (FP + MMU) variants so
// resynthesis happens in place.
const perThreadCodeSlots = 38

// newThread allocates and initializes a thread entirely from the
// host (used at boot and by tests; the measured creation path runs
// through the kcreate VM routine instead, which does the microsecond-
// expensive filling as machine code and then calls finishCreate).
func (k *Kernel) newThread(name string, ubase, ulimit uint32, kernelMode bool) *Thread {
	tte := k.alloc(TTESize + kstackSize)
	// Host-side fill (the VM path pays for this with its clear loop).
	for off := uint32(0); off < TTESize; off += 4 {
		k.M.Poke(tte+off, 4, 0)
	}
	k.copyProtoVectors(tte)
	return k.initThread(tte, name, ubase, ulimit, kernelMode)
}

// copyProtoVectors copies the prototype vector table and UNIX cells
// into a TTE.
func (k *Kernel) copyProtoVectors(tte uint32) {
	for i := uint32(0); i < m68k.VectorTableBytes; i += 4 {
		k.M.Poke(tte+TTEVec+i, 4, k.M.Peek(k.protoVec+i, 4))
	}
	for i := uint32(0); i < TTESize-TTEUnixRW; i += 4 {
		k.M.Poke(tte+TTEUnixRW+i, 4, k.M.Peek(k.protoVec+m68k.VectorTableBytes+i, 4))
	}
}

// initThread wires the per-thread fields and synthesizes the switch
// procedures. The TTE memory must already be cleared and the vector
// table copied.
func (k *Kernel) initThread(tte uint32, name string, ubase, ulimit uint32, kernelMode bool) *Thread {
	m := k.M
	t := &Thread{
		TTE:  tte,
		Name: name,
		Q:    k.C.NewQuaject("thread:" + name),
	}
	k.handles[tte] = t
	k.setg(k.liveCell(0), tte) // appended: the TTE is cleared, so its own TTELive ends the chain
	k.mCreates.Inc()

	if kernelMode {
		ubase, ulimit = 0, 0
	}
	// The quaspace bounds are written here and nowhere else, so the
	// switch-in entry synthesizeSwitch picks from them is fixed for the
	// thread's life.
	m.Poke(tte+TTEUBase, 4, ubase)
	m.Poke(tte+TTEULimit, 4, ulimit)
	m.Poke(tte+TTEQuantum, 4, uint32(k.defaultQuantumCycles()))

	// synthesizeSwitch also wires the per-thread vectors (quantum and
	// voluntary-switch) at the thread's own code — Figure 3: "the
	// interrupt is vectored to thread-0's context-switch-out
	// procedure".
	k.synthesizeSwitch(t, m.AllocCode(perThreadCodeSlots), false)
	return t
}

// defaultQuantumCycles is the initial CPU quantum, BaseQuantumUS: "a
// typical quantum is on the order of a few hundred microseconds"
// (Section 4.4).
func (k *Kernel) defaultQuantumCycles() uint64 {
	return uint64(BaseQuantumUS * k.M.ClockMHz)
}

// setEntry builds the thread's initial exception frame so that the
// first switch-in starts it at entry with the given SR. The kernel
// stack sits right after the TTE.
func (k *Kernel) setEntry(t *Thread, entry, userSP uint32, sr uint16) {
	m := k.M
	ssp := t.TTE + TTESize + kstackSize - 8
	m.Poke(ssp, 4, uint32(sr)) // stacked SR
	m.Poke(ssp+4, 4, entry)    // stacked PC
	m.Poke(t.TTE+TTESSP, 4, ssp)
	m.Poke(t.TTE+TTEUSP, 4, userSP)
}

// synthesizeSwitch (re)builds the thread's sw_out and sw_in
// procedures in its code region at swout. withFP selects the variant
// that also saves and restores the floating-point context; the default
// omits it and the line-F trap upgrades the thread on first FP use.
func (k *Kernel) synthesizeSwitch(t *Thread, swout uint32, withFP bool) {
	m := k.M
	tte := t.TTE
	fpTrap := int32(1)
	if withFP {
		fpTrap = 0
	}

	// sw_out at the region's base. The quantum vectors here directly:
	// it is the lowest interrupt level (m68k.IRQTimer), so it is only
	// ever taken at IPL 0, from thread context, never inside a handler.
	k.C.Build(t.Q, "sw_out").At(swout, 16).Emit(func(e *synth.Emitter) {
		// The whole switch runs with interrupts masked: a quantum
		// interrupt landing mid-switch would re-enter sw_out and
		// overwrite the register save area with transient state. The
		// target thread's RTE restores its own interrupt level.
		e.OrSR(SRIPLMask)
		// Save the integer context into the register save area; the
		// TTE address is a synthesis-time constant for this thread
		// (Factoring Invariants), so no pointer is ever chased.
		e.MovemSave(m68k.MovemContextRegs, m68k.Abs(tte+TTEReg)) // D0-D7, A0-A6
		e.MovecFrom(m68k.CtrlUSP, m68k.D(0))
		e.MoveL(m68k.D(0), m68k.Abs(tte+TTEUSP))
		if withFP {
			e.FmovemSave(0xff, m68k.Abs(tte+TTEFP))
		}
		e.MoveL(m68k.A(7), m68k.Abs(tte+TTESSP))
		// The executable ready queue: control flows straight to the
		// next thread's switch-in through this TTE cell.
		e.JmpVia(m68k.Abs(tte + TTENextSw))
	})

	// sw_in.mmu then sw_in, contiguous: the mmu entry performs the
	// quaspace change and falls through.
	swinMMU := swout + 16
	k.C.Build(t.Q, "sw_in").At(swinMMU, perThreadCodeSlots-16).Emit(func(e *synth.Emitter) {
		e.MovecTo(m68k.CtrlUBase, m68k.Abs(tte+TTEUBase))
		e.MovecTo(m68k.CtrlULimit, m68k.Abs(tte+TTEULimit))
		e.Label("swin")
		e.MoveL(m68k.Imm(int32(tte)), m68k.Abs(GCurTTE))
		e.MovecTo(m68k.CtrlVBR, m68k.Imm(int32(tte+TTEVec)))
		e.MovecTo(m68k.CtrlFPTrap, m68k.Imm(fpTrap))
		// Re-arm the quantum for this thread (fine-grain scheduling
		// adjusts the cell).
		e.MoveL(m68k.Abs(tte+TTEQuantum), m68k.Abs(m68k.TimerBase+m68k.TimerRegQuantum))
		e.MoveL(m68k.Abs(tte+TTEUSP), m68k.D(0))
		e.MovecTo(m68k.CtrlUSP, m68k.D(0))
		if withFP {
			e.FmovemRest(m68k.Abs(tte+TTEFP), 0xff)
		}
		e.MoveL(m68k.Abs(tte+TTESSP), m68k.A(7))
		e.MovemRest(m68k.Abs(tte+TTEReg), m68k.MovemContextRegs)
		e.Rte()
	})
	// The plain sw_in entry skips the two quaspace loads; a thread with
	// a quaspace is switched in through the mmu entry. The ready ring
	// copies this one cell into a predecessor's TTENextSw.
	swin := swinMMU + 2
	if m.Peek(tte+TTEULimit, 4) != 0 {
		swin = swinMMU
	}

	m.Poke(tte+TTESwoutPt, 4, swout)
	m.Poke(tte+TTESwinPtr, 4, swin)
	// Quantum preemption and the voluntary switch trap enter at the
	// same place.
	m.Poke(tte+TTEVec+uint32(m68k.VecAutovector+m68k.IRQTimer)*4, 4, swout)
	m.Poke(tte+TTEVec+uint32(m68k.VecTrapBase+TrapSwitch)*4, 4, swout)
}

// resynthesizeFP upgrades the running thread's context switch to the
// floating-point variant: the line-F trap handler calls this (via
// KCALL) the first time the thread touches the FP co-processor. "This
// way, only users of the floating point co-processor will pay for the
// added overhead" (Section 4.2).
func (k *Kernel) resynthesizeFP(t *Thread) {
	if t == nil {
		return
	}
	flags := k.M.Peek(t.TTE+TTEFlags, 4)
	if flags&TTEFlagFP != 0 {
		return
	}
	// synthesizeSwitch re-emits in place, at the region TTESwoutPt
	// records, and re-points the quantum/switch vectors.
	k.synthesizeSwitch(t, k.M.Peek(t.TTE+TTESwoutPt, 4), true)
	k.M.Poke(t.TTE+TTEFlags, 4, flags|TTEFlagFP)
	// The machine must stop trapping FP for this thread right now.
	k.M.FPTrap = false
}

// finishCreate is the KCALL tail of the kcreate VM routine: the VM
// side has allocated (SvcAllocTTE), cleared the TTE and copied the
// prototype vector table; this completes registration and charges the
// synthesis of the new thread's procedures.
func (k *Kernel) finishCreate(tte, entry, userSP uint32) *Thread {
	name := fmt.Sprintf("t%08x", tte)
	parent := k.Cur()
	var ubase, ulimit uint32
	var sr uint16
	if parent != nil {
		// The child shares the creator's quaspace (threads execute
		// in a quaspace; creation does not make a new one).
		ubase = k.M.Peek(parent.TTE+TTEUBase, 4)
		ulimit = k.M.Peek(parent.TTE+TTEULimit, 4)
	}
	if ulimit == 0 {
		sr = m68k.FlagS
	}
	t := k.initThread(tte, name, ubase, ulimit, ulimit == 0)
	k.setEntry(t, entry, userSP, sr)
	return t
}

// linkFirst makes t the sole member of the ready ring (used for the
// idle thread at boot).
func (k *Kernel) linkFirst(t *Thread) {
	m := k.M
	swin := m.Peek(t.TTE+TTESwinPtr, 4)
	m.Poke(t.TTE+TTENext, 4, t.TTE)
	m.Poke(t.TTE+TTEPrev, 4, t.TTE)
	m.Poke(t.TTE+TTENextSw, 4, swin)
}

// Link inserts t into the ready ring after the thread at whose TTE
// `after` points (host-side mirror of the insert routine, for setup
// before the machine runs).
func (k *Kernel) Link(t *Thread, after *Thread) {
	m := k.M
	a, b := after.TTE, t.TTE
	next := m.Peek(a+TTENext, 4)
	m.Poke(b+TTENext, 4, next)
	m.Poke(b+TTEPrev, 4, a)
	m.Poke(a+TTENext, 4, b)
	m.Poke(next+TTEPrev, 4, b)
	m.Poke(a+TTENextSw, 4, m.Peek(b+TTESwinPtr, 4))
	m.Poke(b+TTENextSw, 4, m.Peek(next+TTESwinPtr, 4))
}

// CheckReadyRing checks the live chain and the ready ring in guest
// memory and returns the first breach of their invariants, or nil. The
// invariant holds at every instruction boundary below IPL 7, since
// every ring edit, and every self-removal through to its switch, runs
// at IPL 7:
//   - the chain from GThreads ends, visits no TTE twice and lists
//     exactly the handle table's TTEs;
//   - the ring, walked from GCurTTE, is closed, never empty and doubly
//     linked (next.prev == self), every member on the chain;
//   - every member's TTENextSw is its successor's TTESwinPtr, the
//     entry its sw_out jumps to;
//   - no member waits on a cell (TTEWaitsOn == 0);
//   - every live thread off the ring has TTENext == 0.
func (k *Kernel) CheckReadyRing() error {
	peek := func(tte, off uint32) uint32 { return k.M.Peek(tte+off, 4) }
	live := map[uint32]*Thread{}
	for tte := k.g(GThreads); tte != 0; tte = peek(tte, TTELive) {
		switch {
		case live[tte] != nil:
			return fmt.Errorf("the live chain returns to %s", live[tte].Name)
		case k.handles[tte] == nil:
			return fmt.Errorf("the live chain holds %#x, which has no handle", tte)
		}
		live[tte] = k.handles[tte]
	}
	if len(live) != len(k.handles) {
		return fmt.Errorf("the live chain holds %d threads, the handle table %d", len(live), len(k.handles))
	}
	cur := k.CurTTE()
	if live[cur] == nil {
		return fmt.Errorf("GCurTTE %#x is no live thread", cur)
	}
	on := map[uint32]bool{}
	for t := cur; !on[t]; {
		on[t] = true
		next := peek(t, TTENext)
		switch {
		case next == 0:
			return fmt.Errorf("ring member %s has TTENext 0: the ring is not closed", live[t].Name)
		case live[next] == nil:
			return fmt.Errorf("ring member %s links to %#x, no live thread", live[t].Name, next)
		case peek(next, TTEPrev) != t:
			return fmt.Errorf("ring member %s's successor %s links back to %#x", live[t].Name, live[next].Name, peek(next, TTEPrev))
		case peek(t, TTENextSw) != peek(next, TTESwinPtr):
			return fmt.Errorf("ring member %s switches to %d, not its successor %s's sw_in %d",
				live[t].Name, peek(t, TTENextSw), live[next].Name, peek(next, TTESwinPtr))
		case peek(t, TTEWaitsOn) != 0:
			return fmt.Errorf("ring member %s waits on cell %#x", live[t].Name, peek(t, TTEWaitsOn))
		}
		t = next
		if on[t] && t != cur {
			return fmt.Errorf("the ring from %s closes at %s, not at itself", live[cur].Name, live[t].Name)
		}
	}
	for th := range k.Threads() {
		if !on[th.TTE] && peek(th.TTE, TTENext) != 0 {
			return fmt.Errorf("thread %s is off the ring with TTENext %#x", th.Name, peek(th.TTE, TTENext))
		}
	}
	return nil
}
