package main

import (
	"errors"
	"time"
)

// Host-speed calibration.
//
// The reference box is a 2-vCPU virtual machine on a shared host, and
// its speed is not constant: measured with the bare step loop it
// moves between roughly 9.5 and 17.5 ns per guest instruction as the
// neighbours come and go, in stretches from a fraction of a second to
// a minute. No statistic of raw wall time over a ten-second run is
// steady to better than about +-30 % there, which is wider than any
// regression worth catching.
//
// So every wall-clock number the benchmark bounds is quoted at a
// reference host speed: a fixed yardstick program is timed in short
// slices interleaved with the measured work, and the measured wall
// time is divided by (yardstick time now / yardstick time on a quiet
// reference host). The same ten runs of compute that spread 20 % raw
// spread 3 % so quoted. The yardstick is a frozen miniature of a threaded-
// code interpreter — a per-slot table of closures over a register
// file and a byte memory, nested operand closures, cycle and
// instruction counters — because what has to match is how the code
// under test reacts to a busy sibling (indirect branches, dependent
// loads), and an arithmetic loop reacts much less. It shares no code
// with internal/m68k, so a faster dispatcher still shows as a faster
// benchmark. It must not be edited: it is the unit.

// refYardstickNS is the yardstick's time per instruction on the
// reference host when its neighbours are quiet (measured: 6.8 to 7.2);
// slowdown factors are relative to it.
const refYardstickNS = 7.0

type ycpu struct {
	d       [8]uint32
	a       [8]uint32
	pc      uint32
	sr      uint16
	cycles  uint64
	instrs  uint64
	memrefs uint64
	mem     []byte
	code    []yent
	halted  bool
}

type yent struct {
	run  func(*ycpu) error
	cost uint64
}

var errYHalt = errors.New("halt")

func (c *ycpu) load(addr uint32) (uint32, error) {
	c.memrefs++
	c.cycles += 4
	if int(addr)+4 > len(c.mem) {
		return 0, errors.New("bus")
	}
	m := c.mem[addr:]
	return uint32(m[0])<<24 | uint32(m[1])<<16 | uint32(m[2])<<8 | uint32(m[3]), nil
}

func (c *ycpu) store(addr, v uint32) error {
	c.memrefs++
	c.cycles += 4
	if int(addr)+4 > len(c.mem) {
		return errors.New("bus")
	}
	m := c.mem[addr:]
	m[0], m[1], m[2], m[3] = byte(v>>24), byte(v>>16), byte(v>>8), byte(v)
	return nil
}

func (c *ycpu) setNZ(v uint32) {
	c.sr &^= 0xC
	if v == 0 {
		c.sr |= 4
	} else if v&0x80000000 != 0 {
		c.sr |= 8
	}
}

type (
	yread  func(*ycpu) (uint32, error)
	ywrite func(*ycpu, uint32) error
)

func yImm(v uint32) yread { return func(*ycpu) (uint32, error) { return v, nil } }
func yReg(n int) yread    { return func(c *ycpu) (uint32, error) { return c.d[n], nil } }
func yInd(n int) yread    { return func(c *ycpu) (uint32, error) { return c.load(c.a[n]) } }
func yRegW(n int) ywrite  { return func(c *ycpu, v uint32) error { c.d[n] = v; return nil } }
func yIndW(n int) ywrite  { return func(c *ycpu, v uint32) error { return c.store(c.a[n], v) } }
func yIdx(an, dn int) yread {
	return func(c *ycpu) (uint32, error) { return c.load(c.a[an] + c.d[dn]&0xFFC) }
}

func yMove(src yread, dst ywrite) func(*ycpu) error {
	return func(c *ycpu) error {
		v, err := src(c)
		if err != nil {
			return err
		}
		c.setNZ(v)
		return dst(c, v)
	}
}

func yAdd(src, cur yread, dst ywrite) func(*ycpu) error {
	return func(c *ycpu) error {
		a, err := src(c)
		if err != nil {
			return err
		}
		b, err := cur(c)
		if err != nil {
			return err
		}
		r := a + b
		c.setNZ(r)
		return dst(c, r)
	}
}

// newYardstick builds the machine and its fixed program: a loop mixing
// register ALU, a memory read-modify-write, an indexed load at a
// pseudo-random offset, a compare and two branches. Its data stays
// within a few kilobytes on purpose: measured against the seven
// workloads, a yardstick that also walked a megabyte followed the
// host's cache weather, which most of the workloads do not feel.
func newYardstick() *ycpu {
	c := &ycpu{mem: make([]byte, 64<<10)}
	c.code = []yent{
		{yMove(yImm(2000), yRegW(0)), 4},                                              // 0: loop counter
		{func(c *ycpu) error { c.a[0] = 0x9000; c.a[1] = 0; return nil }, 4},          // 1
		{yAdd(yImm(1), yInd(0), yIndW(0)), 8},                                         // 2: memory RMW
		{yMove(yInd(0), yRegW(1)), 4},                                                 // 3: load
		{yAdd(yReg(1), yReg(2), yRegW(2)), 4},                                         // 4: reg ALU
		{func(c *ycpu) error { c.d[3] = c.d[3]*1664525 + 1013904223; return nil }, 4}, // 5
		{yMove(yIdx(1, 3), yRegW(4)), 6},                                              // 6: indexed load
		{yAdd(yReg(4), yReg(5), yRegW(5)), 4},                                         // 7
		{func(c *ycpu) error { c.setNZ(c.d[2]); return nil }, 4},                      // 8: compare
		{func(c *ycpu) error { // 9: beq, never taken
			if c.sr&4 != 0 {
				c.pc = 2
			}
			return nil
		}, 6},
		{func(c *ycpu) error { // 10: dbra
			c.d[0]--
			if c.d[0] != 0xFFFFFFFF {
				c.pc = 2
			}
			return nil
		}, 6},
		{func(c *ycpu) error { c.halted = true; return errYHalt }, 4}, // 11
	}
	return c
}

// runOnce executes the program to its halt: the step loop of a
// threaded-code interpreter, one indirect call per instruction.
func (c *ycpu) runOnce() {
	c.halted = false
	c.pc = 0
	for !c.halted && int(c.pc) < len(c.code) {
		e := &c.code[c.pc]
		c.pc++
		c.instrs++
		c.cycles += e.cost
		if err := e.run(c); err != nil {
			return
		}
	}
}

// hostSpeed accumulates yardstick slices taken around and between
// pieces of measured work.
type hostSpeed struct {
	y       *ycpu
	ns      int64
	instrs  uint64
	totalNS int64 // all yardstick time ever, so intervals can leave it out
}

func newHostSpeed() *hostSpeed { return &hostSpeed{y: newYardstick()} }

// yardstickRuns is one slice: about four milliseconds on the quiet
// reference host.
const yardstickRuns = 25

// slice times one yardstick slice and adds it to the account. A nil
// hostSpeed (the probes' rigs, which bound nothing) takes no slices.
func (h *hostSpeed) slice() {
	if h == nil {
		return
	}
	i0 := h.y.instrs
	t0 := time.Now()
	for i := 0; i < yardstickRuns; i++ {
		h.y.runOnce()
	}
	ns := time.Since(t0).Nanoseconds()
	h.ns += ns
	h.totalNS += ns
	h.instrs += h.y.instrs - i0
}

// take returns the slowdown factor of the host over the slices since
// the last take (1 = the quiet reference host, 1.6 = a busy one) and
// starts a new account.
func (h *hostSpeed) take() float64 {
	if h.instrs == 0 {
		return 1
	}
	f := float64(h.ns) / float64(h.instrs) / refYardstickNS
	h.ns, h.instrs = 0, 0
	return f
}
