package kernel

import (
	"errors"
	"fmt"
	"iter"

	"synthesis/internal/alloc"
	"synthesis/internal/fs"
	"synthesis/internal/m68k"
	"synthesis/internal/metrics"
	"synthesis/internal/prof"
	"synthesis/internal/synth"
)

// Kernel is one booted Synthesis kernel instance on a Quamachine.
type Kernel struct {
	M    *m68k.Machine
	C    *synth.Creator
	Heap *alloc.Heap
	FS   *fs.FS

	// Prof is the attached measurement plane (nil unless
	// Config.Profile was set).
	Prof *prof.Profiler

	// Metrics is the attached observability plane (nil unless
	// Config.Metrics was set). All kernel health counters — spurious
	// IRQs, thread faults/exits, live-thread gauge — are served
	// through it; a nil registry hands out nil handles, so the
	// disabled cost is one inlined nil check per event.
	Metrics *metrics.Registry

	Timer *m68k.Timer
	TTY   *m68k.TTY
	Disk  *m68k.Disk
	AD    *m68k.AD
	Cons  *m68k.Cons
	Net   *m68k.Net

	// Shared kernel routines (code addresses), synthesized at boot.
	rtUnlink     uint32 // a0 = TTE: remove from ready ring (measurement only)
	rtInsert     uint32 // a0 = TTE: insert after current (measurement only)
	rtBlockOn    uint32 // a0 = wait cell: park current thread on it
	rtWakeCell   uint32 // a0 = wait cell: unblock the waiter, if any
	rtWakeLoaded uint32 // a0 = wait cell, d0 = its nonzero waiter: unblock it
	rtChain      uint32 // d1 = proc: procedure chaining (plain)
	rtChainCAS   uint32 // d1 = proc: procedure chaining with CAS retry
	rtTraceStop  uint32 // trace-bit handler implementing step
	rtAlarm      uint32 // shared alarm interrupt handler
	rtSigRet     uint32 // trap #3: return from signal
	rtErrTrap    uint32 // error trap: reflect into a user-mode error signal
	rtBusTrap    uint32 // bus/address error: reflect, or reap the thread
	rtSpurious   uint32 // unclaimed interrupt level: count and return
	rtPanicVec   uint32 // catch-all for unexpected exceptions
	rtLookup     uint32 // d1 = name ptr: strlen, hash the last long, compare backwards by longs
	rtCreate     uint32 // kcreate: TTE fill + registration
	rtLineF      uint32 // first-FP-use trap: resynthesize the switch
	protoVec     uint32 // prototype vector table, then prototype TTEUnixRW cells, copied into new TTEs

	// handles holds each live TTE's Go handle, for its name and
	// quaject: metadata only. Which threads are live is the TTE chain's
	// to say (Threads); CheckReadyRing holds the keys equal to it.
	handles map[uint32]*Thread
	Idle    *Thread

	alarmOwned bool // a host policy owns the alarm channel (OnAlarm)

	// PanicMsg is set when the panic service fires.
	PanicMsg string

	// Faults logs threads reaped by the bus-error trap: the kernel
	// degrades instead of dying, and this is the post-mortem trail.
	Faults []FaultRecord

	// Metric handles (nil when Metrics is nil; all nil-safe).
	mFaults  *metrics.Counter
	mExits   *metrics.Counter
	mCreates *metrics.Counter
	mPanics  *metrics.Counter
}

// Thread is the Go-side handle on a TTE (bookkeeping only; all thread
// state that the machine touches, descriptors and liveness included,
// lives in the TTE itself).
type Thread struct {
	TTE  uint32
	Name string
	Q    *synth.Quaject // per-thread synthesized routines
}

// FaultRecord is one thread reaped after an unhandled bus or address
// error.
type FaultRecord struct {
	TTE   uint32
	Name  string
	PC    uint32 // faulting PC, from the exception frame
	Cycle uint64
}

// kstackSize is the per-thread kernel stack, allocated contiguously
// after the TTE.
const kstackSize = 512

// diskBlocks sizes the disk.
const diskBlocks = 512

// Config bundles boot options.
type Config struct {
	Machine m68k.Config
	// ChargeSynthesis makes post-boot code synthesis consume machine
	// time per the cost model (on for measurements; boot-time
	// synthesis is never charged).
	ChargeSynthesis bool
	// Profile attaches the measurement plane before any code is
	// synthesized, so every routine from boot onward is attributed.
	Profile bool
	// Metrics attaches an observability registry: kernel, I/O and
	// synthesis counters register into it, and routines built with
	// Counted() get per-quaject invocation cells. Nil (the default)
	// disables the plane at zero cost.
	Metrics *metrics.Registry
}

// Boot creates a machine, devices, heap and file system, synthesizes
// the shared kernel routines, creates the idle thread and leaves the
// machine ready to Run.
func Boot(cfg Config) *Kernel {
	if cfg.Machine.MemSize == 0 {
		cfg.Machine.MemSize = 4 << 20
	}
	m := m68k.New(cfg.Machine)
	k := &Kernel{
		M:       m,
		C:       synth.NewCreator(m),
		handles: make(map[uint32]*Thread),
	}
	if cfg.Profile {
		k.Prof = prof.Enable(m, 0)
		k.C.Regions = k.Prof
	}
	k.Heap = alloc.New(HeapBase, cfg.Machine.MemSize-HeapBase)
	if cfg.Metrics != nil {
		k.wireMetrics(cfg.Metrics)
		if k.Prof != nil {
			// Both planes on: the profiler publishes its IRQ-latency
			// histograms through the registry as well.
			k.Prof.PublishTo(cfg.Metrics)
		}
	}
	k.Timer = m68k.NewTimer(m)
	k.TTY = m68k.NewTTY(m)
	k.Disk = m68k.NewDisk(m, diskBlocks)
	k.AD = m68k.NewAD(m)
	k.Cons = m68k.NewCons()
	k.Net = m68k.NewNet(m)
	m.Attach(k.Timer)
	m.Attach(k.TTY)
	m.Attach(k.Disk)
	m.Attach(k.AD)
	m.Attach(k.Cons)
	m.Attach(k.Net)

	k.FS = fs.New(m, k.Heap)

	k.registerServices()
	k.synthesizeShared()
	k.buildBootVectors()

	// The idle thread parks the CPU waiting for interrupts. It joins
	// the ready ring only when the ring would otherwise empty (a
	// thread leaving a ring of one leaves it there), and it removes
	// itself as soon as any other thread becomes runnable, so runnable
	// threads never donate quanta to it.
	k.Idle = k.newThread("idle", 0, 0, true)
	m.Poke(GIdleTTE, 4, k.Idle.TTE)
	idleEntry := k.C.Synthesize(nil, "idle", nil, func(e *synth.Emitter) {
		// Masked from the ring check through the switch trap; only STOP
		// reopens the mask, as it waits. An interrupt in between poisons
		// the ready ring: a quantum runs the thread the check saw, which
		// may block and leave this one to unlink itself from a ring of
		// one; a wake splices against this TTE once it is unlinked.
		e.Label("loop")
		e.OrSR(SRIPLMask)
		// Alone in the ring? (next == self)
		e.MoveL(m68k.Abs(GIdleTTE), m68k.A(0))
		e.Cmp(4, m68k.Disp(TTENext, 0), m68k.A(0))
		e.Bne("leave")
		e.Stop(m68k.FlagS) // unmask and wait for any interrupt, then re-check
		e.Bra("loop")
		e.Label("leave")
		// Someone else is runnable: step out of their way.
		emitUnlink(e)
		e.Trap(TrapSwitch) // re-entered here when re-inserted
		e.Bra("loop")
	})
	k.setEntry(k.Idle, idleEntry, 0, m68k.FlagS)
	k.linkFirst(k.Idle)

	// Post-boot synthesis is charged to the machine clock if asked.
	k.C.ChargeTime = cfg.ChargeSynthesis
	return k
}

// alloc grabs kernel heap memory or panics: boot-time exhaustion is a
// configuration error, not a runtime condition.
func (k *Kernel) alloc(n uint32) uint32 {
	a, err := k.Heap.Alloc(n)
	if err != nil {
		panic(fmt.Sprintf("kernel: heap exhausted allocating %d bytes", n))
	}
	return a
}

// Poke/Peek helpers for globals.
func (k *Kernel) g(addr uint32) uint32 { return k.M.Peek(addr, 4) }
func (k *Kernel) setg(addr, v uint32)  { k.M.Poke(addr, 4, v) }

// Routine addresses exposed for the I/O layer and tests.

// UnlinkRoutine returns the ready-ring unlink routine (A0 = TTE): the
// surgery every block, stop and destroy inlines, under its own mask.
// Nothing in the kernel calls it; it is there to be timed.
func (k *Kernel) UnlinkRoutine() uint32 { return k.rtUnlink }

// InsertRoutine returns the ready-ring insert routine (A0 = TTE), the
// surgery every wake and start inlines, as UnlinkRoutine is unlink's.
func (k *Kernel) InsertRoutine() uint32 { return k.rtInsert }

// BlockOnRoutine returns the wait-cell park routine (A0 = cell).
func (k *Kernel) BlockOnRoutine() uint32 { return k.rtBlockOn }

// WakeCellRoutine returns the wait-cell wake routine (A0 = cell).
func (k *Kernel) WakeCellRoutine() uint32 { return k.rtWakeCell }

// WakeLoadedRoutine returns wake_cell's entry past its test (A0 = cell, D0 = its waiter).
func (k *Kernel) WakeLoadedRoutine() uint32 { return k.rtWakeLoaded }

// ChainRoutine returns the procedure-chaining routine (D1 = proc).
func (k *Kernel) ChainRoutine() uint32 { return k.rtChain }

// ChainCASRoutine returns the optimistic chaining routine.
func (k *Kernel) ChainCASRoutine() uint32 { return k.rtChainCAS }

// LookupRoutine returns the name lookup (D1 = name): hashed by the
// name's last long, compared backwards by longs.
func (k *Kernel) LookupRoutine() uint32 { return k.rtLookup }

// SysEntry returns the body of native function code fn, read from
// trap #1's jump table (the UNIX emulator's own table jumps straight
// into these bodies).
func (k *Kernel) SysEntry(fn int32) uint32 { return k.g(GSysTable + uint32(fn)*4) }

// AlarmRoutine returns the shared alarm interrupt handler.
func (k *Kernel) AlarmRoutine() uint32 { return k.rtAlarm }

// ProtoVectors returns the prototype vector table address: kcreate
// copies it into every new TTE.
func (k *Kernel) ProtoVectors() uint32 { return k.protoVec }

// SetVector points vector vec at addr in the prototype table and in
// every live thread's own table, so threads created before and after
// the call agree.
func (k *Kernel) SetVector(vec int, addr uint32) {
	off := uint32(vec) * 4
	k.M.Poke(k.protoVec+off, 4, addr)
	for t := range k.Threads() {
		k.M.Poke(t.TTE+TTEVec+off, 4, addr)
	}
}

// SetUnixRW points trap's UNIX cell (UnixRWOff) at addr in the
// prototype and every live thread, as SetVector does a vector.
func (k *Kernel) SetUnixRW(trap int, addr uint32) {
	off := UnixRWOff(trap)
	k.M.Poke(k.protoVec+m68k.VectorTableBytes+off-TTEUnixRW, 4, addr)
	for t := range k.Threads() {
		k.M.Poke(t.TTE+off, 4, addr)
	}
}

// SpuriousIRQs reports how many spurious interrupts the kernel has
// absorbed.
func (k *Kernel) SpuriousIRQs() uint32 { return k.g(GSpuriousIRQ) }

// SpawnKernel creates a kernel-mode thread running the given code
// address, links it into the ready ring and counts it live.
func (k *Kernel) SpawnKernel(name string, entry uint32) *Thread {
	t := k.newThread(name, 0, 0, true)
	k.setEntry(t, entry, 0, m68k.FlagS)
	k.Link(t, k.ringMember())
	k.setg(GLiveThreads, k.g(GLiveThreads)+1)
	return t
}

// ringMember returns a thread on the ready ring for a host spawn to
// link after: the idle thread while it is on the ring (before the first
// run, every spawn lands there), else the running thread, since idle
// leaves the ring once another thread is runnable.
func (k *Kernel) ringMember() *Thread {
	if k.M.Peek(k.Idle.TTE+TTENext, 4) != 0 {
		return k.Idle
	}
	return k.Cur()
}

// SpawnKernelStopped creates a kernel-mode thread that is not linked
// into the ready ring: it runs only when started (or stepped). It
// does not count toward the live-thread total (the simulation may
// halt while it is parked).
func (k *Kernel) SpawnKernelStopped(name string, entry uint32) *Thread {
	t := k.newThread(name, 0, 0, true)
	k.setEntry(t, entry, 0, m68k.FlagS)
	return t
}

// SpawnUser creates a user-mode thread confined to the quaspace
// [ubase, ulimit), with its user stack at the top of that region,
// links it and counts it live.
func (k *Kernel) SpawnUser(name string, entry, ubase, ulimit uint32) *Thread {
	t := k.newThread(name, ubase, ulimit, false)
	k.setEntry(t, entry, ulimit-16, 0)
	k.Link(t, k.ringMember())
	k.setg(GLiveThreads, k.g(GLiveThreads)+1)
	return t
}

// AllocUserSpace carves a fresh quaspace out of the kernel heap and
// returns its bounds.
func (k *Kernel) AllocUserSpace(size uint32) (ubase, ulimit uint32) {
	a := k.alloc(size)
	return a, a + size
}

// CurTTE returns the running thread's TTE address.
func (k *Kernel) CurTTE() uint32 { return k.g(GCurTTE) }

// Cur returns the running thread's handle.
func (k *Kernel) Cur() *Thread { return k.handles[k.CurTTE()] }

// Threads walks the live threads in creation order: the chain GThreads
// heads, through each TTE's TTELive cell.
func (k *Kernel) Threads() iter.Seq[*Thread] {
	return func(yield func(*Thread) bool) {
		for tte := k.g(GThreads); tte != 0; tte = k.g(tte + TTELive) {
			if !yield(k.handles[tte]) {
				return
			}
		}
	}
}

// liveCell returns the chain cell holding tte: GThreads or a live TTE's
// TTELive. For a TTE not on the chain, 0 included, it is the last cell,
// which holds 0.
func (k *Kernel) liveCell(tte uint32) uint32 {
	cell := uint32(GThreads)
	for v := k.g(cell); v != tte && v != 0; v = k.g(cell) {
		cell = v + TTELive
	}
	return cell
}

// buildBootVectors points every boot vector at the panic stub.
func (k *Kernel) buildBootVectors() {
	k.M.VBR = BootVBR
	for v := 0; v < m68k.NumVectors; v++ {
		k.M.Poke(BootVBR+uint32(v)*4, 4, k.rtPanicVec)
	}
}

// ErrPanic is returned by Run when the kernel hit the panic service.
var ErrPanic = errors.New("kernel: panic")

// Run executes the machine until it halts (all user threads exited),
// the cycle budget runs out, or the kernel panics.
func (k *Kernel) Run(maxCycles uint64) error {
	err := k.M.Run(maxCycles)
	if k.PanicMsg != "" {
		return fmt.Errorf("%w: %s", ErrPanic, k.PanicMsg)
	}
	if errors.Is(err, m68k.ErrHalted) {
		return nil
	}
	return err
}

// Start makes the first real thread current and begins execution at
// its entry: the boot handoff. The thread must already be linked.
func (k *Kernel) Start(t *Thread) {
	m := k.M
	m.Poke(GCurTTE, 4, t.TTE)
	// Adopt the thread's context directly: vector base, stacks,
	// quantum, then jump to a tiny trampoline that RTEs into it.
	fpTrap := int32(1)
	if k.M.Peek(t.TTE+TTEFlags, 4)&TTEFlagFP != 0 {
		fpTrap = 0
	}
	tramp := k.C.Synthesize(nil, "boot-handoff", nil, func(e *synth.Emitter) {
		e.MoveL(m68k.Imm(int32(t.TTE+TTEVec)), m68k.D(0))
		e.MovecTo(m68k.CtrlVBR, m68k.D(0))
		e.MovecTo(m68k.CtrlFPTrap, m68k.Imm(fpTrap))
		e.MovecTo(m68k.CtrlUBase, m68k.Abs(t.TTE+TTEUBase))
		e.MovecTo(m68k.CtrlULimit, m68k.Abs(t.TTE+TTEULimit))
		e.MoveL(m68k.Abs(t.TTE+TTEUSP), m68k.D(0))
		e.MovecTo(m68k.CtrlUSP, m68k.D(0))
		e.MoveL(m68k.Abs(t.TTE+TTEQuantum), m68k.Abs(m68k.TimerBase+m68k.TimerRegQuantum))
		e.MoveL(m68k.Abs(t.TTE+TTESSP), m68k.A(7))
		e.Rte()
	})
	m.PC = tramp
	// The handoff runs fully masked — the machine has no valid stack
	// until the trampoline loads the thread's SSP; the RTE into the
	// thread restores its own interrupt level.
	m.SR = m68k.FlagS | 7<<8
}

// registerServices installs the KCALL host services.
func (k *Kernel) registerServices() {
	m := k.M
	m.RegisterService(SvcPanic, func(mm *m68k.Machine) uint64 {
		k.PanicMsg = fmt.Sprintf("unhandled exception, D0=%#x PC=%d cur=%#x",
			mm.D[0], mm.PC, k.CurTTE())
		k.mPanics.Inc()
		mm.PatchCode(mm.PC, m68k.Instr{Op: m68k.HALT}) // stop right here
		return 0
	})
	m.RegisterService(SvcExit, func(mm *m68k.Machine) uint64 {
		k.exitCur()
		k.mExits.Inc()
		return 0
	})
	m.RegisterService(SvcThreadFault, func(mm *m68k.Machine) uint64 {
		// The bus trap's kill path: log the fault and do the exit
		// bookkeeping; the VM side then leaves the ring and frees the
		// TTE exactly like a voluntary exit. Frame above the service
		// call: [D0][A0][SR][PC], faulting PC at +12.
		rec := FaultRecord{
			TTE:   k.CurTTE(),
			PC:    mm.Peek(mm.A[7]+12, 4),
			Cycle: mm.Cycles,
		}
		if t := k.exitCur(); t != nil {
			rec.Name = t.Name
		}
		k.Faults = append(k.Faults, rec)
		k.mFaults.Inc()
		return 0
	})
	m.RegisterService(SvcAllocTTE, func(mm *m68k.Machine) uint64 {
		// Allocate TTE + kernel stack and return the TTE in D0, or -1
		// when the heap is exhausted; the caller's VM code does the
		// filling.
		addr, err := k.Heap.Alloc(TTESize + kstackSize)
		if err != nil {
			addr = ^uint32(0)
		}
		mm.D[0] = addr
		return 40 // modeled allocator path cost
	})
	m.RegisterService(SvcRegister, func(mm *m68k.Machine) uint64 {
		// D0 = TTE address, D1 = entry PC, D2 = user stack top.
		k.finishCreate(mm.D[0], mm.D[1], mm.D[2])
		return 0
	})
	m.RegisterService(SvcFreeTTE, func(mm *m68k.Machine) uint64 {
		k.FreeThread(mm.D[1])
		return 30
	})
	m.RegisterService(SvcFPResynth, func(mm *m68k.Machine) uint64 {
		k.resynthesizeFP(k.Cur())
		return 0
	})
}

// exitCur is the thread-exit bookkeeping of both exit services: the
// running thread leaves the live count (it stays on the chain until its
// TTE is freed). It returns the thread's handle, nil if it has none.
func (k *Kernel) exitCur() *Thread {
	if live := k.g(GLiveThreads); live > 0 {
		k.setg(GLiveThreads, live-1)
	}
	return k.Cur()
}

// FreeThread unlinks a live thread from the chain, drops its handle and
// frees its TTE; a TTE not on the chain is left alone. Its code region
// is not reused (code space is plentiful and the paper's kernel also
// leaks synthesized code on destroy).
func (k *Kernel) FreeThread(tte uint32) {
	cell := k.liveCell(tte)
	if k.g(cell) == 0 {
		return
	}
	k.setg(cell, k.g(tte+TTELive))
	delete(k.handles, tte)
	k.Heap.Free(tte)
}
