package m68k

// The Quamachine's unusual I/O complement (Section 6.1): a console
// tty, a hard disk, a two-channel analog input sampler (the A/D that
// interrupts 44,100 times per second in Section 5.4), and an interval
// timer with microsecond resolution used both for scheduling quanta
// and alarms. All devices are memory mapped in the window starting at
// IOBase.

// Device window bases. Each device gets a 256-byte register window.
const (
	IOBase    uint32 = 0x00f0_0000
	TimerBase        = IOBase + 0x000
	TTYBase          = IOBase + 0x100
	DiskBase         = IOBase + 0x200
	ADBase           = IOBase + 0x300
	ConsBase         = IOBase + 0x400
)

// Interrupt priority levels, ascending urgency per the 68k scheme. The
// quantum is the lowest: entry to any handler raises the mask to that
// handler's level, so a quantum that expires inside one stays pending
// until its RTE returns to IPL 0 and is taken from thread context.
// That is why the quantum can vector straight to the thread's sw_out.
const (
	IRQTimer = 1 // quantum expiry
	IRQNet   = 2 // NIC receive: bulk frame DMA tolerates latency the byte devices do not
	IRQAlarm = 3 // alarm channel of the interval timer
	IRQDisk  = 4
	IRQAD    = 5
	IRQTTY   = 6
)

// ---------------------------------------------------------------- timer

// Timer register offsets.
const (
	TimerRegQuantum uint32 = 0x00 // write: cycles until quantum interrupt (0 disables); withdraws one still pending
	TimerRegAlarm   uint32 = 0x04 // write: cycles until alarm interrupt (0 disables)
	TimerRegNowLo   uint32 = 0x08 // read: low 32 bits of cycle counter
	TimerRegNowHi   uint32 = 0x0c // read: high 32 bits of cycle counter
	TimerRegAck     uint32 = 0x10 // read: pending cause bits, cleared on read
)

// Timer cause bits delivered through TimerRegAck.
const (
	TimerCauseQuantum = 1 << 0
	TimerCauseAlarm   = 1 << 1
)

// Timer is the interval timer: one channel drives the scheduler
// quantum (IRQTimer, one-shot, re-armed by each thread's sw_in), a
// second channel drives alarms (IRQAlarm; Table 5: set alarm, alarm
// interrupt).
type Timer struct {
	m        *Machine
	quantumA uint64 // absolute cycle of next quantum interrupt (0 = off)
	alarmA   uint64
	qPend    bool
	aPend    bool
	cause    uint32
}

// NewTimer creates the interval timer for machine m.
func NewTimer(m *Machine) *Timer { return &Timer{m: m} }

// Name implements Device.
func (t *Timer) Name() string { return "timer" }

// Base implements Device.
func (t *Timer) Base() uint32 { return TimerBase }

// Size implements Device.
func (t *Timer) Size() uint32 { return 0x100 }

// Load implements Device.
func (t *Timer) Load(off uint32, sz uint8) uint32 {
	switch off {
	case TimerRegNowLo:
		return uint32(t.m.Clock())
	case TimerRegNowHi:
		return uint32(t.m.Clock() >> 32)
	case TimerRegAck:
		c := t.cause
		t.cause = 0
		return c
	}
	return 0
}

// Store implements Device.
func (t *Timer) Store(off uint32, sz uint8, val uint32) {
	switch off {
	case TimerRegQuantum:
		// A new quantum replaces the old one's expiry even when the
		// mask still holds it back: sw_in writes this register
		// masked, mid-switch, and the thread it switches in must run
		// a full quantum, not be preempted at its first instruction.
		t.m.WithdrawInterrupt(IRQTimer)
		t.cause &^= TimerCauseQuantum
		t.quantumA = t.deadline(val)
	case TimerRegAlarm:
		t.alarmA = t.deadline(val)
	}
}

// deadline is the cycle at which a channel armed with val fires, or 0
// (off) for val 0. The interval runs through the fault injector's
// clock jitter and stays at least one cycle, so an armed channel fires.
func (t *Timer) deadline(val uint32) uint64 {
	if val == 0 {
		return 0
	}
	cycles := uint64(val)
	if t.m.Inj != nil {
		cycles = t.m.Inj.TimerArm(cycles)
		if cycles == 0 {
			cycles = 1
		}
	}
	return t.m.Clock() + cycles
}

// Tick implements Device. The two channels assert distinct interrupt
// levels; when both fire in the same instant the quantum is posted
// first and the alarm on an immediate re-tick, and the alarm, the
// higher level, is taken first.
func (t *Timer) Tick(now uint64) (int, uint64) {
	if t.quantumA != 0 && now >= t.quantumA {
		t.quantumA = 0
		t.qPend = true
		t.cause |= TimerCauseQuantum
	}
	if t.alarmA != 0 && now >= t.alarmA {
		t.alarmA = 0
		t.aPend = true
		t.cause |= TimerCauseAlarm
	}
	if t.qPend {
		t.qPend = false
		if t.aPend {
			return IRQTimer, now // re-tick immediately for the alarm
		}
		return IRQTimer, t.nextEvent()
	}
	if t.aPend {
		t.aPend = false
		return IRQAlarm, t.nextEvent()
	}
	return 0, t.nextEvent()
}

func (t *Timer) nextEvent() uint64 {
	next := t.quantumA
	if next == 0 || (t.alarmA != 0 && t.alarmA < next) {
		next = t.alarmA
	}
	return next
}

// ----------------------------------------------------------------- tty

// TTY register offsets.
const (
	TTYRegData   uint32 = 0x00 // read: next input char; write: output char
	TTYRegStatus uint32 = 0x04 // read: bit0 = input ready
)

// TTY is the console serial device. Input characters are queued by
// the host (or by a scripted arrival schedule) and raise IRQTTY as
// they become available, like a real UART.
type TTY struct {
	m       *Machine
	in      []byte
	inAt    []uint64 // absolute cycle each queued char arrives
	out     []byte
	pending bool
}

// NewTTY creates the console device.
func NewTTY(m *Machine) *TTY { return &TTY{m: m} }

// Name implements Device.
func (t *TTY) Name() string { return "tty" }

// Base implements Device.
func (t *TTY) Base() uint32 { return TTYBase }

// Size implements Device.
func (t *TTY) Size() uint32 { return 0x100 }

// InputNow queues an input character arriving immediately.
func (t *TTY) InputNow(c byte) { t.InputAt(c, t.m.Clock()) }

// InputAt schedules an input character to arrive at the given
// absolute cycle time.
func (t *TTY) InputAt(c byte, at uint64) {
	t.in = append(t.in, c)
	t.inAt = append(t.inAt, at)
	t.m.Kick(t)
}

// InputString schedules a whole string with the given cycle gap
// between characters, starting at cycle start.
func (t *TTY) InputString(s string, start, gap uint64) {
	at := start
	for i := 0; i < len(s); i++ {
		t.InputAt(s[i], at)
		at += gap
	}
}

// Output returns everything written to the tty so far.
func (t *TTY) Output() []byte { return t.out }

// Load implements Device.
func (t *TTY) Load(off uint32, sz uint8) uint32 {
	switch off {
	case TTYRegData:
		if len(t.in) > 0 && t.inAt[0] <= t.m.Clock() {
			c := t.in[0]
			t.in = t.in[1:]
			t.inAt = t.inAt[1:]
			t.pending = false
			return uint32(c)
		}
		return 0
	case TTYRegStatus:
		if len(t.in) > 0 && t.inAt[0] <= t.m.Clock() {
			return 1
		}
		return 0
	}
	return 0
}

// Store implements Device.
func (t *TTY) Store(off uint32, sz uint8, val uint32) {
	if off == TTYRegData {
		t.out = append(t.out, byte(val))
	}
}

// Tick implements Device.
func (t *TTY) Tick(now uint64) (int, uint64) {
	if len(t.in) == 0 {
		t.pending = false
		return 0, 0
	}
	if t.inAt[0] <= now {
		if !t.pending {
			t.pending = true
			return IRQTTY, now + 1
		}
		// Interrupt already raised for the head character; re-check
		// shortly in case it is never consumed before the next one.
		return 0, t.inAt[0] + 1<<16
	}
	return 0, t.inAt[0]
}

// ---------------------------------------------------------------- disk

// Disk register offsets.
const (
	DiskRegBlock  uint32 = 0x00 // write: block number
	DiskRegAddr   uint32 = 0x04 // write: memory address for DMA
	DiskRegCmd    uint32 = 0x08 // write: 1 = read, 2 = write
	DiskRegStatus uint32 = 0x0c // read: bit0 = busy, bit1 = done (clears on read)
)

// DiskBlockSize is the transfer unit.
const DiskBlockSize = 1024

// DiskLatencyCycles is every transfer's access latency: a fast
// controller with the data already under the head (the paper's file
// benchmarks run from the in-memory cache, so disk latency only matters
// for cache misses).
const DiskLatencyCycles = 20000

// Disk is a DMA block device with a fixed access latency, standing in
// for the Quamachine's 390 MB hard disk. Transfers complete after
// DiskLatencyCycles and raise IRQDisk. A block is created by its first
// write: a nil entry in Blocks is a block never written, and reads as
// zeros. A transfer whose DMA address is not wholly in RAM moves no
// bytes, still completes, and counts in Faults.
type Disk struct {
	m         *Machine
	Blocks    [][]byte
	Faults    uint64
	block     uint32
	addr      uint32
	busyUntil uint64
	cmd       uint32
	done      bool
}

// noBlock is what a block never written reads as.
var noBlock [DiskBlockSize]byte

// NewDisk creates a disk with the given number of blocks.
func NewDisk(m *Machine, blocks int) *Disk {
	return &Disk{m: m, Blocks: make([][]byte, blocks)}
}

// Name implements Device.
func (d *Disk) Name() string { return "disk" }

// Base implements Device.
func (d *Disk) Base() uint32 { return DiskBase }

// Size implements Device.
func (d *Disk) Size() uint32 { return 0x100 }

// Load implements Device.
func (d *Disk) Load(off uint32, sz uint8) uint32 {
	if off == DiskRegStatus {
		var s uint32
		if d.busyUntil != 0 {
			s |= 1
		}
		if d.done {
			s |= 2
			d.done = false
		}
		return s
	}
	return 0
}

// Store implements Device.
func (d *Disk) Store(off uint32, sz uint8, val uint32) {
	switch off {
	case DiskRegBlock:
		d.block = val
	case DiskRegAddr:
		d.addr = val
	case DiskRegCmd:
		d.cmd = val
		d.busyUntil = d.m.Clock() + DiskLatencyCycles
	}
}

// Tick implements Device.
func (d *Disk) Tick(now uint64) (int, uint64) {
	if d.busyUntil == 0 {
		return 0, 0
	}
	if now < d.busyUntil {
		return 0, d.busyUntil
	}
	// Complete the transfer by DMA.
	if int(d.block) < len(d.Blocks) && (d.cmd == 1 || d.cmd == 2) {
		switch {
		case uint64(d.addr)+DiskBlockSize > uint64(d.m.MemSize()):
			d.Faults++
		case d.cmd == 2:
			d.Blocks[d.block] = d.m.PeekBytes(d.addr, DiskBlockSize)
		case d.Blocks[d.block] == nil:
			d.m.PokeBytes(d.addr, noBlock[:])
		default:
			d.m.PokeBytes(d.addr, d.Blocks[d.block])
		}
	}
	d.busyUntil = 0
	d.done = true
	return IRQDisk, 0
}

// ----------------------------------------------------------------- A/D

// AD register offsets.
const (
	ADRegData   uint32 = 0x00 // read: latest sample (two 16-bit channels packed)
	ADRegCtl    uint32 = 0x04 // write: 1 = start sampling, 0 = stop
	ADRegStatus uint32 = 0x08 // read: samples dropped because not consumed in time
)

// ADRate is the sampler's rate in samples per second, the paper's
// 44,100 interrupts per second (Section 5.4).
const ADRate = 44100

// AD is the two-channel 16-bit analog input sampler. While running it
// raises IRQAD once per sample period, ADRate times a second.
type AD struct {
	m       *Machine
	running bool
	nextAt  uint64
	seq     uint32
	sample  uint32
	fresh   bool
	Dropped uint64
}

// NewAD creates the sampler.
func NewAD(m *Machine) *AD { return &AD{m: m} }

// Name implements Device.
func (a *AD) Name() string { return "ad" }

// Base implements Device.
func (a *AD) Base() uint32 { return ADBase }

// Size implements Device.
func (a *AD) Size() uint32 { return 0x100 }

// periodCycles converts the sample rate to cycles.
func (a *AD) periodCycles() uint64 {
	return uint64(a.m.ClockMHz * 1e6 / ADRate)
}

// Load implements Device.
func (a *AD) Load(off uint32, sz uint8) uint32 {
	switch off {
	case ADRegData:
		a.fresh = false
		return a.sample
	case ADRegStatus:
		return uint32(a.Dropped)
	}
	return 0
}

// Store implements Device.
func (a *AD) Store(off uint32, sz uint8, val uint32) {
	if off == ADRegCtl {
		if val != 0 && !a.running {
			a.running = true
			a.nextAt = a.m.Clock() + a.periodCycles()
		} else if val == 0 {
			a.running = false
		}
	}
}

// Tick implements Device.
func (a *AD) Tick(now uint64) (int, uint64) {
	if !a.running {
		return 0, 0
	}
	if now < a.nextAt {
		return 0, a.nextAt
	}
	if a.fresh {
		a.Dropped++
	}
	// Two 16-bit channels packed in one 32-bit word: a deterministic
	// synthetic waveform (sawtooth on channel 0, its complement on
	// channel 1) standing in for the analog inputs we do not have.
	a.seq++
	ch0 := a.seq & 0xffff
	ch1 := 0xffff - ch0
	a.sample = ch0<<16 | ch1
	a.fresh = true
	a.nextAt = now + a.periodCycles()
	return IRQAD, a.nextAt
}

// ------------------------------------------------------------- console

// Cons is a write-only debug console, separate from the tty so kernel
// diagnostics do not disturb tty experiments.
type Cons struct {
	out []byte
}

// NewCons creates the debug console.
func NewCons() *Cons { return &Cons{} }

// Name implements Device.
func (c *Cons) Name() string { return "cons" }

// Base implements Device.
func (c *Cons) Base() uint32 { return ConsBase }

// Size implements Device.
func (c *Cons) Size() uint32 { return 0x100 }

// Load implements Device.
func (c *Cons) Load(off uint32, sz uint8) uint32 { return 0 }

// Store implements Device.
func (c *Cons) Store(off uint32, sz uint8, val uint32) {
	if off == 0 {
		c.out = append(c.out, byte(val))
	}
}

// Tick implements Device.
func (c *Cons) Tick(now uint64) (int, uint64) { return 0, 0 }

// Output returns everything written to the console.
func (c *Cons) Output() string { return string(c.out) }
