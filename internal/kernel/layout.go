// Package kernel implements the Synthesis kernel on the Quamachine:
// threads described entirely by their Thread Table Entries (TTEs),
// per-thread synthesized context-switch and system-call routines, the
// executable ready queue of Figure 3, signals and procedure chaining,
// error traps, and the fine-grain round-robin scheduler with
// I/O-rate-adaptive quanta.
//
// Division of labour (DESIGN.md Section 4): every path the paper
// times — context switches, thread operations, traps, interrupt
// handlers, synthesized I/O — executes as Quamachine code and is
// measured on the machine's cycle clock. Kernel bookkeeping that the
// paper does not time (allocator metadata, quaject records) runs in
// Go behind KCALL services; the code synthesizer's own run time is
// charged by the model in synth/cost.go.
package kernel

import "synthesis/internal/m68k"

// Kernel memory map. The boot vector table and kernel globals sit at
// the bottom of memory; everything else (TTEs, stacks, queue buffers,
// file data, quaspaces) comes from the fast-fit heap.
const (
	// BootVBR is the boot vector table used until the first thread
	// runs (threads then carry their own tables).
	BootVBR uint32 = 0x0000_0100

	// Kernel global cells.
	GlobalsBase uint32 = 0x0000_0600

	// GCurTTE holds the TTE address of the running thread, stored by
	// each thread's sw_in with a folded constant (Code Isolation:
	// only the running thread writes it).
	GCurTTE = GlobalsBase + 0

	// GAlarmProc is the procedure the shared alarm interrupt handler
	// dispatches to (set by the set-alarm call).
	GAlarmProc = GlobalsBase + 4

	// GLiveThreads counts runnable user threads; the exit path
	// decrements it and halts the machine at zero (simulation
	// control, not a paper mechanism).
	GLiveThreads = GlobalsBase + 8

	// GIdleTTE holds the idle thread's TTE address.
	GIdleTTE = GlobalsBase + 12

	// GChainPC holds the displaced resume address during procedure
	// chaining; the chained procedure's epilogue jumps through it.
	GChainPC = GlobalsBase + 16

	// GSpuriousIRQ counts interrupts taken at a level no handler has
	// claimed. Real buses glitch; a spurious interrupt is survivable
	// noise, not a kernel bug, so the shared handler counts it and
	// returns instead of panicking.
	GSpuriousIRQ = GlobalsBase + 20

	// GSysTable is trap #1's jump table: the body of each of the NumSys
	// native function codes, filled when sys_dispatch is installed.
	GSysTable = GlobalsBase + 24

	// GThreads heads the chain of live TTEs, linked through each one's
	// TTELive cell in creation order (0 = none): the one record of which
	// threads exist.
	GThreads = GSysTable + NumSys*4

	// HeapBase is where the kernel heap begins.
	HeapBase uint32 = 0x0001_0000
)

// TTE layout (Figure 3). The thread state is completely described by
// its TTE: the register save area, the vector table pointing at the
// thread's own interrupt handlers / error traps / system calls, the
// address-map (quaspace bounds), and the context-switch-in/out
// procedures (which live in code space; the TTE holds their
// addresses). One TTE occupies TTESize bytes — the "approximately
// 1 KBytes" Section 6.3 says thread creation fills.
const (
	TTEReg     = 0   // D0-D7, A0-A6: 15 longs (A7 is saved separately)
	TTESSP     = 60  // saved supervisor stack pointer (the exception frame lives there)
	TTEUSP     = 64  // saved user stack pointer
	TTERate    = 68  // fine-grain scheduler's smoothed I/O rate: a float64, 8 bytes; creation zeroes it
	TTELive    = 76  // next live TTE in creation order, 0 for the last: the chain GThreads heads
	TTEVec     = 128 // the thread's vector table (NumVectors * 4 = 256 bytes)
	TTENext    = 384 // ready-queue link: next TTE address
	TTEPrev    = 388 // ready-queue link: previous TTE address
	TTENextSw  = 392 // code address of the NEXT thread's sw_in: the cell sw_out jumps through
	TTEQuantum = 396 // CPU quantum in cycles (fine-grain scheduling adjusts it)
	TTEUBase   = 400 // quaspace lower bound
	TTEULimit  = 404 // quaspace upper bound
	TTEFP      = 408 // FP register save area: 8 slots x 12 bytes
	TTEFlags   = 504 // bit0: thread uses the FP co-processor
	TTEIOGauge = 508 // I/O event count for the fine-grain scheduler
	TTESigPC   = 512 // pending signal handler entry (0 = none)
	TTESigOld  = 516 // interrupted PC stashed for the signal or error handler; sig_return clears it
	TTESwinPtr = 520 // code address that switches this thread in: sw_in.mmu with a quaspace, plain sw_in without (fixed at creation, like TTEULimit)
	TTESwoutPt = 524 // code address of this thread's own sw_out, the base of its code region
	TTEWaitsOn = 528 // wait-queue cell address this thread is blocked on (0 = runnable)
	TTEErrPC   = 536 // user-mode error signal handler (0 = none: panic)
	TTEFDBase  = 544 // per-descriptor state: MaxFD slots x FDSlotSize bytes
	TTEUnixRW  = 928 // UNIX entries of the descriptor routines: 2*MaxFD code addresses (UnixRWOff)
	TTESize    = 1024
)

// TTEFlagFP marks a thread as using the floating-point co-processor;
// set by the line-F trap, it makes the resynthesized switch code save
// and restore FP state.
const TTEFlagFP = 1 << 0

// File descriptor table shape inside the TTE.
const (
	MaxFD      = 12
	FDSlotSize = 32
	// Offsets within one fd slot.
	FDPos   = 0  // current file position / queue cursor
	FDAux   = 4  // type-specific cell (pipe or socket queue, snapshot buffer, cached flag)
	FDGauge = 8  // per-stream I/O gauge
	FDKind  = 12 // kio's kind code for what the slot is open on; 0 means free
)

// FDCell returns the address of field off in fd's slot of the TTE at
// tte.
func FDCell(tte uint32, fd, off int) uint32 {
	return tte + TTEFDBase + uint32(fd*FDSlotSize+off)
}

// UnixRWOff returns the TTE offset of the cell the UNIX gate jumps
// through for trap TrapRead+fd or TrapWrite+fd: the UNIX entry of the
// routine whose native entry that trap's vector holds.
func UnixRWOff(trap int) uint32 { return TTEUnixRW + uint32(trap-TrapRead)*4 }

// Trap assignments (vector = 32 + trap number; each thread's vector
// table routes them independently).
const (
	TrapUnix   = 0 // UNIX emulator gate (unixemu package)
	TrapSys    = 1 // native Synthesis kernel calls, function in D0
	TrapSwitch = 2 // voluntary context switch: vectors to the thread's sw_out
	TrapSig    = 3 // return-from-signal trampoline
	// Per-descriptor synthesized I/O: read fd = trap 8+fd, write fd =
	// trap 20+fd ("I/O operations such as read and write are
	// synthesized by the open operation" and installed in the
	// thread's system call vectors).
	TrapRead  = 8
	TrapWrite = 20
)

// Native TrapSys function codes (D0).
const (
	SysOpen     = 0  // D1 = name pointer -> D0 = fd or ^0
	SysClose    = 1  // D1 = fd
	SysCreate   = 2  // D1 = entry point, D2 = user stack top -> D0 = TTE address or ^0
	SysDestroy  = 3  // D1 = TTE address
	SysStop     = 4  // D1 = TTE address
	SysStart    = 5  // D1 = TTE address
	SysStep     = 6  // D1 = TTE address
	SysSignal   = 7  // D1 = TTE address, D2 = handler PC
	SysSetAlarm = 8  // D1 = microseconds, D2 = procedure
	SysExit     = 9  // terminate calling thread
	SysPipe     = 10 // -> D0 = read fd, D1 = write fd
	SysYield    = 11 // give up the CPU voluntarily
	SysSeek     = 12 // D1 = fd, D2 = absolute position
	SysSock     = 13 // D1 = local port, D2 = remote port -> D0 = fd or ^0
	NumSys      = 14 // codes at or above (unsigned) panic
)

// KCALL service ids. The I/O system (kio) registers SvcOpen, SvcClose,
// SvcPipe and SvcSock, and SvcFreeTTE over the kernel's own (it closes
// the thread's descriptors first); the machine serves SvcMark and the
// kernel the rest.
const (
	SvcPanic       = 1  // unhandled exception: stop simulation loudly
	SvcExit        = 2  // thread exit bookkeeping
	SvcOpen        = 3  // D0 = directory entry: open bookkeeping + read/write synthesis
	SvcClose       = 4  // close bookkeeping
	SvcAllocTTE    = 5  // allocate TTE memory + code region -> D0
	SvcFreeTTE     = 6  // release a destroyed thread's resources
	SvcPipe        = 7  // create pipe queue + fds
	SvcFPResynth   = 8  // line-F trap: resynthesize switch code with FP
	SvcRegister    = 9  // post-create registration of a thread
	SvcSock        = 11 // open a network socket: table entry + send/recv synthesis
	SvcThreadFault = 12 // bus-error reap: log the fault, thread-exit bookkeeping
	SvcMark        = m68k.SvcMark
)
