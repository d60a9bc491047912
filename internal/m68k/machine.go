package m68k

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
)

// Status register bits.
const (
	FlagC uint16 = 1 << 0 // carry
	FlagV uint16 = 1 << 1 // overflow
	FlagZ uint16 = 1 << 2 // zero
	FlagN uint16 = 1 << 3 // negative
	FlagX uint16 = 1 << 4 // extend

	iplShift        = 8
	iplMask  uint16 = 7 << iplShift
	FlagS    uint16 = 1 << 13 // supervisor state
	FlagT    uint16 = 1 << 15 // trace
)

// Exception vector numbers (68k conventions).
const (
	VecBusError     = 2
	VecAddressError = 3
	VecIllegal      = 4
	VecZeroDivide   = 5
	VecPrivilege    = 8
	VecTrace        = 9
	VecLineF        = 11 // co-processor protocol violation: first FP use
	VecAutovector   = 24 // +level 1..7 for interrupt autovectors
	VecTrapBase     = 32 // +n for TRAP #n
	NumVectors      = 64
)

// VectorTableBytes is the size of one vector table in memory. Each
// Synthesis thread carries its own table (the TTE's vector table).
const VectorTableBytes = NumVectors * 4

// Errors returned by execution. ErrHalted is the normal "machine
// executed HALT" condition; the others indicate simulation bugs or
// deliberately provoked faults in tests.
var (
	ErrHalted     = errors.New("m68k: machine halted")
	ErrCycleLimit = errors.New("m68k: cycle limit reached")
)

// BusFault describes an access outside mapped memory. It doubles as
// the Go-visible form of a double fault: the interpreter converts a
// fault into a VM exception when a handler is installed, and returns
// the fault to the caller when vectoring itself faults.
type BusFault struct {
	Addr  uint32
	Write bool
	PC    uint32
}

func (b *BusFault) Error() string {
	k := "read"
	if b.Write {
		k = "write"
	}
	return fmt.Sprintf("m68k: bus fault: %s at $%08x (pc %d)", k, b.Addr, b.PC)
}

// Service is a host escape invoked by KCALL. It may inspect and
// modify the machine, and returns the number of additional cycles to
// charge (a modeled cost for work not expressed as VM code).
type Service func(m *Machine) uint64

// Probe receives execution events for a measurement plane (the
// Quamachine's Section 6.1 instrumentation: cycle attribution,
// interrupt-latency tracing). A nil Probe — the default — disables
// all event delivery; the only cost the feature adds to an unprobed
// machine is one nil check per Step.
type Probe interface {
	// StepDone reports one completed Step: the PC the step started
	// at, the cycles and instructions it consumed, and whether the
	// CPU was stopped when the step began (stopped steps advance
	// time to the next device event rather than executing code).
	StepDone(pc uint32, cycles, instrs uint64, idle bool)
	// ExceptionTaken reports entry into an exception handler: the
	// vector, the interrupted PC, and the cycle of handler entry.
	ExceptionTaken(vec int, pc uint32, at uint64)
	// InterruptTaken reports a dispatched interrupt with the cycle
	// the level was first asserted and the cycle the handler was
	// entered (raise-to-entry latency is takenAt - raisedAt).
	InterruptTaken(level, vec int, raisedAt, takenAt uint64)
	// Charged reports modeled host-side cost added to the clock
	// outside instruction execution (see Machine.Charge).
	Charged(cycles uint64, what string)
}

// Device models a memory-mapped peripheral. Loads and stores in the
// device's address window are routed to it; Tick lets the device act
// on the advance of simulated time and request interrupts.
type Device interface {
	// Name identifies the device in diagnostics.
	Name() string
	// Base and Size define the register window in physical memory.
	Base() uint32
	Size() uint32
	// Load reads a device register (offset relative to Base).
	Load(off uint32, sz uint8) uint32
	// Store writes a device register.
	Store(off uint32, sz uint8, val uint32)
	// Tick advances the device to absolute cycle time t. It returns
	// the interrupt priority level (1-7) it wants to assert, or 0,
	// plus the cycle time of its next event (0 = no scheduled event).
	Tick(t uint64) (irq int, next uint64)
}

// Config sets the machine's hardware parameters. The zero value is
// adjusted to the Quamachine's native configuration; SUN 3/160
// emulation mode is 16 MHz with one wait state (Section 6.1).
type Config struct {
	MemSize    uint32  // bytes of RAM (default 4 MiB)
	ClockMHz   float64 // CPU clock (default 50)
	WaitStates int     // extra cycles per memory reference (default 0)
	TraceDepth int     // execution trace ring size (0 = tracing off)
}

// Sun3Config returns the configuration that emulates a SUN 3/160 as
// in the paper: 16 MHz and one memory wait state.
func Sun3Config() Config {
	return Config{ClockMHz: 16, WaitStates: 1}
}

// NativeConfig returns the Quamachine's native 50 MHz no-wait-state
// configuration.
func NativeConfig() Config {
	return Config{ClockMHz: 50, WaitStates: 0}
}

// Machine is one Quamachine CPU with its memory, code space and
// devices.
type Machine struct {
	// CPU state.
	D   [8]uint32 // data registers
	A   [8]uint32 // address registers; A[7] is the active stack pointer
	FP  [8]float64
	PC  uint32
	SR  uint16
	VBR uint32
	USP uint32 // saved user stack pointer while in supervisor state
	SSP uint32 // saved supervisor stack pointer while in user state

	// Quaspace protection: in user state, accesses outside
	// [UBase, ULimit) take a bus-error exception (the kernel "blanks
	// out the part of the address space that each quaspace is not
	// supposed to see", Section 2.1). ULimit == 0 disables the check.
	UBase  uint32
	ULimit uint32

	// FPTrap makes the first FP instruction raise a line-F exception,
	// implementing the lazy floating-point context switch of
	// Section 4.2: the kernel's handler resynthesizes the context
	// switch code to include FP state and clears the flag.
	FPTrap bool

	// Memory and code.
	Mem     []byte
	Code    []Instr
	CodeTop uint32 // next free code-space slot (bump allocated)

	// Timing model.
	ClockMHz   float64
	WaitStates int

	// Measurement facilities (Section 6.1: the Quamachine is
	// instrumented with an instruction counter, a memory reference
	// counter and a microsecond-resolution interval timer).
	Cycles  uint64
	Instrs  uint64
	MemRefs uint64
	Trace   *Trace

	// Probe is the attached measurement plane, nil when profiling is
	// off (see the Probe interface).
	Probe Probe

	// Inj is the attached fault-injection plane, nil when fault
	// injection is off (see the Injector interface).
	Inj Injector

	// Interrupts and devices.
	devices     []Device
	devWin      []devWindow // per-device register window, read once at Attach
	devNext     []uint64    // per-device next event time (0 = none)
	devFloor    uint32      // lowest device window base (max uint32 = none)
	nextPoll    uint64      // cached earliest devNext (0 = none); see tickDevice
	pendIRQ     uint8       // bitmask of pending interrupt levels
	irqRaisedAt [8]uint64   // cycle each pending level was first asserted
	stopped     bool        // STOP executed; waiting for interrupt
	halted      bool
	inStep      bool // executing inside Step (probe bookkeeping)
	services    [256]Service

	// horizon is the cycle up to which Run's fast loop may execute
	// without testing anything else: runHorizon folds every condition
	// step() acts on (probe, trace ring, halted, stopped, deliverable
	// interrupt, T bit, next device event, cycle limit) into it. One rule
	// keeps it sound: whatever can make one of those conditions true
	// while the loop runs zeroes the horizon, which ends the loop at the
	// next instruction boundary, so every boundary stays an interrupt
	// point. The sites are PostInterrupt, tickDevice where it lowers
	// nextPoll, applySR when the new SR has T or an interrupt is pending
	// (the new mask may let it through), STOP, and the return of a KCALL
	// service, which may have written SR, Probe or Trace directly.
	// HALT and a double fault end Run with an error, and Run recomputes
	// on entry, which covers whatever the host did between two calls.
	// Step zeroes it before it runs a handler, so the one handler that
	// reads it, a collapsed loop's head (dispatch.go), runs whole
	// iterations only inside Run's fast loop.
	horizon uint64

	// xcache is the threaded-code translation cache, one entry per
	// code-space slot (see dispatch.go). An entry with a nil run
	// function is cold; the step loop translates it on first fetch.
	// Every write into code space MUST invalidate the covered slots
	// (SetCode, PatchCode), or a stale translation would keep
	// executing the old instruction — self-modifying synthesized code
	// is the kernel's normal mode of operation, not a corner case.
	xcache []xent

	// The dispatcher's own tallies, bumped off the fast path only:
	// slots translated (first fetches plus refetches after a patch),
	// instructions that had no closure and ran through the reference
	// switch, and Step calls made by Run. SlowInstrs/Instrs is the share
	// of traffic the specializations do not cover, SlowSteps/Instrs the
	// share of instruction boundaries that left the fast loop. They sit
	// after every field the step loop reads so that adding them moved
	// none of those.
	Translations uint64
	SlowInstrs   uint64
	SlowSteps    uint64

	// Calls of a collapsed loop's head that ran whole iterations as one
	// host copy or search, and calls whose head ran its own body instead
	// (dispatch.go's loopAt): one count a call, never one an instruction.
	CollapsedPasses   uint64
	CollapseFallbacks uint64

	Marks []Mark // the counters' readings at each SvcMark, in order
}

// SvcMark is the KCALL id of the mark, which New serves: a program
// brackets what it measures with a pair of marks, and MarkMicros and
// MarkInstrs read the intervals.
const SvcMark = 100

// Mark is one reading of the cycle and instruction counters, taken by
// the SvcMark KCALL once its own cycles and instruction are counted.
type Mark struct{ Cycles, Instrs uint64 }

// New creates a machine with the given configuration.
func New(cfg Config) *Machine {
	if cfg.MemSize == 0 {
		cfg.MemSize = 4 << 20
	}
	if cfg.ClockMHz == 0 {
		cfg.ClockMHz = 50
	}
	m := &Machine{
		Mem:        make([]byte, cfg.MemSize),
		Code:       make([]Instr, 0, 4096),
		ClockMHz:   cfg.ClockMHz,
		WaitStates: cfg.WaitStates,
		SR:         FlagS | iplMask, // boot in supervisor state, interrupts masked
		devFloor:   ^uint32(0),
	}
	if cfg.TraceDepth > 0 {
		m.Trace = NewTrace(cfg.TraceDepth)
	}
	m.services[SvcMark] = (*Machine).mark
	return m
}

// mark is the SvcMark service.
func (m *Machine) mark() uint64 {
	m.Marks = append(m.Marks, Mark{m.Cycles, m.Instrs})
	return 0
}

// MarkMicros returns the interval of each consecutive mark pair in
// microseconds: the cycles after the first mark, up to and including
// the second mark's KCALL.
func (m *Machine) MarkMicros() []float64 {
	var out []float64
	for i := 1; i < len(m.Marks); i += 2 {
		out = append(out, m.Micros(m.Marks[i].Cycles-m.Marks[i-1].Cycles))
	}
	return out
}

// MarkInstrs returns the number of instructions strictly between the
// marks of each consecutive pair.
func (m *Machine) MarkInstrs() []uint64 {
	var out []uint64
	for i := 1; i < len(m.Marks); i += 2 {
		out = append(out, m.Marks[i].Instrs-m.Marks[i-1].Instrs-1)
	}
	return out
}

// Micros converts a cycle count to microseconds at the machine's
// clock rate.
func (m *Machine) Micros(cycles uint64) float64 {
	return float64(cycles) / m.ClockMHz
}

// Now returns the current simulated time in microseconds.
func (m *Machine) Now() float64 { return m.Micros(m.Cycles) }

// Clock returns the current cycle count. Devices timestamp through
// this single accessor rather than reading Cycles directly, so a
// measurement or fault-injection layer has one place to interpose on
// the device view of simulated time.
func (m *Machine) Clock() uint64 { return m.Cycles }

// Charge adds modeled host-side cost to the cycle clock. Host code
// that consumes simulated time without executing VM instructions
// (e.g. the synthesis cost model) must charge through here: when the
// charge lands outside instruction execution an attached probe is
// told what the cycles were for, so a profiler can attribute them
// instead of losing them. Charges made from within a Service (inside
// Step) are folded into that step's delta and need no separate event.
func (m *Machine) Charge(cycles uint64, what string) {
	m.Cycles += cycles
	if m.Probe != nil && !m.inStep {
		m.Probe.Charged(cycles, what)
	}
}

// IPL returns the current interrupt priority mask level.
func (m *Machine) IPL() int { return int(m.SR&iplMask) >> iplShift }

// SetIPL sets the interrupt priority mask level.
func (m *Machine) SetIPL(l int) {
	m.SR = m.SR&^iplMask | uint16(l)<<iplShift&iplMask
}

// Halted reports whether HALT has been executed.
func (m *Machine) Halted() bool { return m.halted }

// Stopped reports whether the CPU sits in STOP waiting for an
// interrupt: the guest's idle thread, i.e. every other thread is
// blocked.
func (m *Machine) Stopped() bool { return m.stopped }

// ClearHalt lets a halted machine run again (simulation control: the
// harness reuses one machine for several measured programs).
func (m *Machine) ClearHalt() { m.halted = false }

// RegisterService installs a KCALL host service under the given id.
func (m *Machine) RegisterService(id uint8, s Service) {
	m.services[id] = s
}

// devWindow is a device's register window, [base, end).
type devWindow struct{ base, end uint32 }

// Attach adds a memory-mapped device.
func (m *Machine) Attach(d Device) {
	m.devices = append(m.devices, d)
	m.devWin = append(m.devWin, devWindow{d.Base(), d.Base() + d.Size()})
	m.devNext = append(m.devNext, 0)
	if d.Base() < m.devFloor {
		m.devFloor = d.Base()
	}
	m.tickDevice(len(m.devices)-1, m.Cycles)
}

// FindDevice returns the attached device with the given name, or nil.
func (m *Machine) FindDevice(name string) Device {
	for _, d := range m.devices {
		if d.Name() == name {
			return d
		}
	}
	return nil
}

// PostInterrupt asserts an interrupt at the given priority level
// (1-7). Used by devices and by tests. The cycle of the first
// assertion is kept per level (re-raising an already-pending level
// does not move it) so interrupt latency is measured from the raise
// the handler actually answers.
func (m *Machine) PostInterrupt(level int) {
	if level >= 1 && level <= 7 {
		bit := uint8(1) << uint(level)
		if m.pendIRQ&bit == 0 {
			m.irqRaisedAt[level] = m.Cycles
		}
		m.pendIRQ |= bit
		m.horizon = 0
	}
}

// WithdrawInterrupt deasserts a pending level the CPU has not taken
// yet: the timer withdraws a quantum expiry its re-arming overtook.
// Withdrawing makes no step() condition true, so the horizon stands.
func (m *Machine) WithdrawInterrupt(level int) {
	if level >= 1 && level <= 7 {
		m.pendIRQ &^= 1 << uint(level)
	}
}

// deviceAt returns the index of the device mapping addr, or -1.
func (m *Machine) deviceAt(addr uint32) int {
	for i, w := range m.devWin {
		if addr >= w.base && addr < w.end {
			return i
		}
	}
	return -1
}

// memCost is the cycle cost of one memory reference.
func (m *Machine) memCost() uint64 {
	return uint64(cycMemRef + m.WaitStates)
}

// chargeMem accounts for n memory references.
func (m *Machine) chargeMem(n int) {
	m.MemRefs += uint64(n)
	m.Cycles += uint64(n) * m.memCost()
}

// Kick re-polls a device immediately. Devices and host code call it
// (the machine does the same after every register access) so that
// freshly armed events are scheduled even between Tick calls.
func (m *Machine) Kick(d Device) {
	for i, dd := range m.devices {
		if dd == d {
			m.tickDevice(i, m.Cycles)
			return
		}
	}
}

// Load reads sz bytes big-endian from addr, routing device windows to
// the owning device and charging the access. It makes no use of
// devFloor, so exec, which reaches memory only through Load and Store,
// is an oracle for the RAM helpers below, which the dispatcher tries first.
func (m *Machine) Load(addr uint32, sz uint8) (uint32, error) {
	m.chargeMem(1)
	if i := m.deviceAt(addr); i >= 0 {
		d, off := m.devices[i], addr-m.devWin[i].base
		if m.Inj != nil && m.Inj.AccessFault(d, off, false) {
			return 0, &BusFault{Addr: addr, PC: m.PC}
		}
		v := d.Load(off, sz)
		m.tickDevice(i, m.Cycles)
		return v, nil
	}
	if int(addr)+int(sz) > len(m.Mem) {
		return 0, &BusFault{Addr: addr, PC: m.PC}
	}
	return m.loadRaw(addr, sz), nil
}

// loadRaw reads memory without charge or device routing.
func (m *Machine) loadRaw(addr uint32, sz uint8) uint32 {
	switch sz {
	case 1:
		return uint32(m.Mem[addr])
	case 2:
		return uint32(binary.BigEndian.Uint16(m.Mem[addr:]))
	default:
		return binary.BigEndian.Uint32(m.Mem[addr:])
	}
}

// Store writes sz bytes big-endian to addr, with device routing and
// cycle charging, as Load reads.
func (m *Machine) Store(addr uint32, sz uint8, val uint32) error {
	m.chargeMem(1)
	if i := m.deviceAt(addr); i >= 0 {
		d, off := m.devices[i], addr-m.devWin[i].base
		if m.Inj != nil && m.Inj.AccessFault(d, off, true) {
			return &BusFault{Addr: addr, Write: true, PC: m.PC}
		}
		d.Store(off, sz, val)
		m.tickDevice(i, m.Cycles)
		return nil
	}
	if int(addr)+int(sz) > len(m.Mem) {
		return &BusFault{Addr: addr, Write: true, PC: m.PC}
	}
	m.storeRaw(addr, sz, val)
	return nil
}

// storeRaw writes memory without charge or device routing.
func (m *Machine) storeRaw(addr uint32, sz uint8, val uint32) {
	switch sz {
	case 1:
		m.Mem[addr] = byte(val)
	case 2:
		binary.BigEndian.PutUint16(m.Mem[addr:], uint16(val))
	default:
		binary.BigEndian.PutUint32(m.Mem[addr:], val)
	}
}

// ram reports whether [addr, addr+sz) is plain RAM: below every device
// window (see Load) and inside Mem.
func (m *Machine) ram(addr uint32, sz int) bool {
	return addr < m.devFloor && int(addr)+sz <= len(m.Mem)
}

// ramBlock reports whether the size-byte block at addr is plain RAM the
// current state may touch: below devFloor, inside Mem and, in user
// state, inside the quaspace (supervisor code pays one SR test).
func (m *Machine) ramBlock(addr, size uint32) bool {
	end := uint64(addr) + uint64(size)
	if end > uint64(m.devFloor) || end > uint64(len(m.Mem)) {
		return false
	}
	return m.SR&FlagS != 0 || m.ULimit == 0 || addr >= m.UBase && end <= uint64(m.ULimit)
}

// ramRoom is the plain RAM the current state may touch, by ramBlock's
// rules, on either side of addr: the bytes below it and from it up, or
// none either way when addr lies outside that RAM. ramBlock written over
// it cost thread_ops 8 % (the context MOVEMs).
func (m *Machine) ramRoom(addr uint32) (below, above uint32) {
	lo, hi := uint32(0), uint32(min(uint64(m.devFloor), uint64(len(m.Mem))))
	if m.SR&FlagS == 0 && m.ULimit != 0 {
		lo, hi = m.UBase, min(hi, m.ULimit)
	}
	if addr < lo || addr > hi {
		return 0, 0
	}
	return addr - lo, hi - addr
}

// loadRAM32, storeRAM32, loadRAM and storeRAM are Load and Store's
// plain-RAM case alone: the same charge, one bounds check and one
// byte-swapped access, or false, with nothing charged, for any other
// address, on which the caller calls Load or Store itself. With that
// call inside them they cost 113–181 against the inliner's budget of
// 80; without it they inline (`make inline` holds them to it), and
// chargeMem(1) written out keeps the sized forms under it. The quaspace
// check is the caller's, made first, as exec's readOp and writeOp make it.
func (m *Machine) loadRAM32(addr uint32) (uint32, bool) {
	if !m.ram(addr, 4) {
		return 0, false
	}
	m.MemRefs++
	m.Cycles += m.memCost()
	return binary.BigEndian.Uint32(m.Mem[addr:]), true
}

func (m *Machine) storeRAM32(addr, val uint32) bool {
	if !m.ram(addr, 4) {
		return false
	}
	m.MemRefs++
	m.Cycles += m.memCost()
	binary.BigEndian.PutUint32(m.Mem[addr:], val)
	return true
}

func (m *Machine) loadRAM(addr uint32, sz uint8) (uint32, bool) {
	if !m.ram(addr, int(sz)) {
		return 0, false
	}
	m.MemRefs++
	m.Cycles += m.memCost()
	return m.loadRaw(addr, sz), true
}

func (m *Machine) storeRAM(addr uint32, sz uint8, val uint32) bool {
	if !m.ram(addr, int(sz)) {
		return false
	}
	m.MemRefs++
	m.Cycles += m.memCost()
	m.storeRaw(addr, sz, val)
	return true
}

// Peek reads memory for the benefit of the host (no cycle charge, no
// device routing). Out-of-range reads return 0.
func (m *Machine) Peek(addr uint32, sz uint8) uint32 {
	if int(addr)+int(sz) > len(m.Mem) {
		return 0
	}
	return m.loadRaw(addr, sz)
}

// Poke writes memory for the benefit of the host (no cycle charge).
func (m *Machine) Poke(addr uint32, sz uint8, val uint32) {
	if int(addr)+int(sz) <= len(m.Mem) {
		m.storeRaw(addr, sz, val)
	}
}

// PeekBytes copies n bytes out of memory for the host.
func (m *Machine) PeekBytes(addr uint32, n int) []byte {
	out := make([]byte, n)
	copy(out, m.Mem[addr:])
	return out
}

// PokeBytes copies bytes into memory for the host.
func (m *Machine) PokeBytes(addr uint32, b []byte) {
	copy(m.Mem[addr:], b)
}

// AllocCode reserves n instruction slots in code space and returns
// the address of the first. Synthesized routines are emitted here at
// run time; the kernel allocates regions per quaject. The translation
// cache grows in lockstep: xcache and Code are always the same
// length, so the step loop's single bounds check covers both. Both
// only ever grow, so the slots a reslice uncovers are still zero and
// the call allocates only when a backing array is full.
func (m *Machine) AllocCode(n int) uint32 {
	addr := len(m.Code)
	m.Code = slices.Grow(m.Code, n)[:addr+n]
	m.xcache = slices.Grow(m.xcache, n)[:addr+n]
	m.CodeTop = uint32(addr + n)
	return uint32(addr)
}

// SetCode installs instructions at a previously allocated code
// address. Patching already-installed code is legal: executable data
// structures (Section 2.2) depend on it. The covered translation
// cache lines are invalidated so the next fetch decodes the new code.
func (m *Machine) SetCode(addr uint32, code []Instr) {
	copy(m.Code[addr:], code)
	m.invalidateCode(addr, len(code))
}

// PatchCode rewrites a single instruction slot and invalidates its
// translation cache line. All run-time patching of installed code
// (executable data structures, the synthesizer's in-place rebuilds,
// kernel panic stamping) must go through here or SetCode — a direct
// Code[i] store would leave a stale translation executing the old
// instruction.
func (m *Machine) PatchCode(addr uint32, in Instr) {
	m.Code[addr] = in
	m.invalidateCode(addr, 1)
}

// invalidateCode clears the translation cache lines covering
// [addr, addr+n), and those of the loop heads whose span reaches into
// them, or could once they collapse, so that whether a head collapses
// always follows the code after it now (dispatch.go's loopAt).
func (m *Machine) invalidateCode(addr uint32, n int) {
	clear(m.xcache[addr : addr+uint32(n)])
	for h := addr - min(addr, 2*maxCopyGroups+1); h < addr; h++ {
		reach := loopReach(&m.Code[h])
		if span := m.xcache[h].span; span != 0 {
			reach = uint32(span)
		}
		if addr-h < reach {
			m.xcache[h] = xent{}
		}
	}
}

// Emit appends code at the end of code space and returns its address.
func (m *Machine) Emit(code []Instr) uint32 {
	addr := m.AllocCode(len(code))
	m.SetCode(addr, code)
	return addr
}

// push stores a long word on the active stack, as MOVE.L to -(A7)
// would: in user state the quaspace bounds apply.
func (m *Machine) push(val uint32) error {
	a := m.A[7] - 4
	m.A[7] = a
	if err := m.checkUserAccess(a); err != nil {
		return err
	}
	if m.storeRAM32(a, val) {
		return nil
	}
	return m.Store(a, 4, val)
}

// pop loads a long word from the active stack, as MOVE.L from (A7)+
// would.
func (m *Machine) pop() (uint32, error) {
	addr := m.A[7]
	m.A[7] += 4
	if err := m.checkUserAccess(addr); err != nil {
		return 0, err
	}
	if v, ok := m.loadRAM32(addr); ok {
		return v, nil
	}
	return m.Load(addr, 4)
}

// enterSupervisor switches the active stack to the supervisor stack
// if the CPU was in user state.
func (m *Machine) enterSupervisor() {
	if m.SR&FlagS == 0 {
		m.USP = m.A[7]
		m.A[7] = m.SSP
		m.SR |= FlagS
	}
}

// leaveSupervisor restores user state if the new SR has S clear.
func (m *Machine) applySR(newSR uint16) {
	wasS := m.SR&FlagS != 0
	m.SR = newSR
	if newSR&FlagT != 0 || m.pendIRQ != 0 {
		m.horizon = 0
	}
	isS := m.SR&FlagS != 0
	if wasS && !isS {
		m.SSP = m.A[7]
		m.A[7] = m.USP
	} else if !wasS && isS {
		m.USP = m.A[7]
		m.A[7] = m.SSP
	}
}

// Exception vectors the CPU through vector v: pushes SR and PC on the
// supervisor stack and loads the handler address from the vector
// table at VBR. The vector-table slot holds a code-space address.
func (m *Machine) Exception(v int) error {
	oldSR := m.SR
	m.enterSupervisor()
	// Exception entry clears the trace bit (as on the 68k): handlers
	// run untraced; the stacked SR preserves the flag for RTE.
	m.SR &^= FlagT
	m.stopped = false
	m.Cycles += uint64(cycException)
	// The frame is two pushes, PC then SR: stored here when both longs are
	// plain RAM, so a frame across devFloor or RAM's end faults as pushes do.
	if sp := m.A[7] - 8; m.ram(sp, 4) && m.ram(sp+4, 4) {
		m.A[7] = sp
		m.chargeMem(2)
		binary.BigEndian.PutUint32(m.Mem[sp+4:], m.PC)
		binary.BigEndian.PutUint32(m.Mem[sp:], uint32(oldSR))
	} else if err := m.push(m.PC); err != nil {
		return err
	} else if err := m.push(uint32(oldSR)); err != nil {
		return err
	}
	vec := m.VBR + uint32(v)*4
	handler, ok := m.loadRAM32(vec)
	if !ok {
		var err error
		if handler, err = m.Load(vec, 4); err != nil {
			return err
		}
	}
	if m.Trace != nil {
		m.Trace.RecordException(v, m.PC)
	}
	if m.Probe != nil {
		m.Probe.ExceptionTaken(v, m.PC, m.Cycles)
	}
	m.PC = handler
	return nil
}

// tickDevice advances one device and records its next event. The
// nextPoll cache is lowered conservatively (never raised here): it
// may go stale-early when a device moves its event later, which costs
// one wasted scan, but it is never later than a pending event, so the
// step loop's single-compare fast path cannot miss a tick. Lowering it
// ends Run's fast loop, whose horizon was computed from the old value.
func (m *Machine) tickDevice(i int, t uint64) {
	irq, next := m.devices[i].Tick(t)
	if irq > 0 {
		m.PostInterrupt(irq)
	}
	m.devNext[i] = next
	if next != 0 && (m.nextPoll == 0 || next < m.nextPoll) {
		m.nextPoll = next
		m.horizon = 0
	}
}

// pollDevices advances all devices whose next event time has come,
// then recomputes the exact earliest pending event.
func (m *Machine) pollDevices() {
	for i := range m.devices {
		if n := m.devNext[i]; n != 0 && n <= m.Cycles {
			m.tickDevice(i, m.Cycles)
		}
	}
	m.nextPoll = m.nextDeviceEvent()
}

// pendingLevel returns the highest pending interrupt level above the
// current mask, or 0.
func (m *Machine) pendingLevel() int {
	if m.pendIRQ == 0 {
		return 0
	}
	for l := 7; l >= 1; l-- {
		if m.pendIRQ&(1<<uint(l)) != 0 {
			// Level 7 is non-maskable on the 68k.
			if l > m.IPL() || l == 7 {
				return l
			}
			return 0
		}
	}
	return 0
}

// takeInterrupt dispatches the highest pending interrupt if the mask
// allows. Reports whether an interrupt was taken.
func (m *Machine) takeInterrupt() (bool, error) {
	l := m.pendingLevel()
	if l == 0 {
		return false, nil
	}
	m.pendIRQ &^= 1 << uint(l)
	raisedAt := m.irqRaisedAt[l]
	if err := m.Exception(VecAutovector + l); err != nil {
		return false, err
	}
	m.SetIPL(l)
	if m.Probe != nil {
		m.Probe.InterruptTaken(l, VecAutovector+l, raisedAt, m.Cycles)
	}
	return true, nil
}
