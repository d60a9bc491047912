package kio_test

import (
	"bytes"
	"fmt"
	"maps"
	"strings"
	"testing"

	"synthesis/internal/fs"
	"synthesis/internal/kernel"
	"synthesis/internal/kio"
	"synthesis/internal/m68k"
	"synthesis/internal/metrics"
	"synthesis/internal/synth"
	"synthesis/internal/unixemu"
)

// regionLog records the name and code-space extent of every routine
// the creator installs, so a test can tell which routine an address
// lies in. It passes each registration on to the sink it replaced (the
// profiler, when one is on).
type regionLog struct {
	next  synth.RegionSink
	names []string
	spans [][2]uint32
}

// logRegions starts a regionLog on k's creator; routines installed
// before it are not in it.
func logRegions(k *kernel.Kernel) *regionLog {
	l := &regionLog{next: k.C.Regions}
	k.C.Regions = l
	return l
}

func (l *regionLog) RegisterRegion(name string, base uint32, instrs int) {
	l.names = append(l.names, name)
	l.spans = append(l.spans, [2]uint32{base, base + uint32(instrs)})
	if l.next != nil {
		l.next.RegisterRegion(name, base, instrs)
	}
}

// of returns the base of the last routine installed over addr.
func (l *regionLog) of(addr uint32) (uint32, bool) {
	for i := len(l.spans) - 1; i >= 0; i-- {
		if s := l.spans[i]; addr >= s[0] && addr < s[1] {
			return s[0], true
		}
	}
	return 0, false
}

// checkUnixCells walks every live thread's descriptor traps: the
// native vector and the UNIX cell (kernel.UnixRWOff) of each read and
// write must both be bad_fd, as they must for a slot that is not open,
// or both lie in one routine the creator installed.
func checkUnixCells(t *testing.T, k *kernel.Kernel, io *kio.IO, l *regionLog) {
	t.Helper()
	bad := io.BadFD()
	for th := range k.Threads() {
		for fd := range kernel.MaxFD {
			open := k.M.Peek(kernel.FDCell(th.TTE, fd, kernel.FDKind), 4) != kio.FDFree
			for _, trap := range []int{kernel.TrapRead + fd, kernel.TrapWrite + fd} {
				native := k.M.Peek(th.TTE+kernel.TTEVec+uint32(m68k.VecTrapBase+trap)*4, 4)
				unix := k.M.Peek(th.TTE+kernel.UnixRWOff(trap), 4)
				if !open || native == bad || unix == bad {
					if native != bad || unix != bad {
						t.Errorf("%s trap %d (open %v): native %d, UNIX %d, want both bad_fd %d", th.Name, trap, open, native, unix, bad)
					}
					continue
				}
				nb, nok := l.of(native)
				ub, uok := l.of(unix)
				if !nok || !uok || nb != ub {
					t.Errorf("%s trap %d: native %d (routine at %d, %v) and UNIX %d (at %d, %v) are not one routine",
						th.Name, trap, native, nb, nok, unix, ub, uok)
				}
			}
		}
	}
}

// A descriptor kind for TestUnixEntryMatchesNative: setup prepares the
// host side, open emits the native calls that make the descriptor fd
// (and anything the call needs in its queue first), and trap says
// whether the call reads or writes it.
type entryCase struct {
	name  string
	setup func(k *kernel.Kernel, io *kio.IO)
	open  func(e *synth.Emitter)
	trap  int // kernel.TrapRead or kernel.TrapWrite
	fd    int32
}

// entryState is everything a read or write may change that the two
// conventions must agree on.
type entryState struct {
	d0       uint32
	mem      []byte // the caller's buffers, the files, the TTE's descriptor slots and gauge, every queue
	out      string // what the tty printed
	counters map[string]uint64
}

const (
	entName, entWBuf, entRBuf, entBufLen = 0x9100, 0x9300, 0x9500, 64
	entRes                               = 0x9000
)

// entryRun boots a rig, opens c's descriptor and makes one call of n
// bytes on it through trap #0 (unix) or its own trap, and returns what
// the call left.
func entryRun(t *testing.T, c entryCase, n int32, unix bool) entryState {
	t.Helper()
	reg := metrics.New()
	k := kernel.Boot(kernel.Config{Machine: m68k.Config{MemSize: 1 << 20}, Metrics: reg})
	io := kio.Install(k)
	unixemu.Install(k)
	k.M.PokeBytes(entWBuf, []byte("hello, world, and the rest of it"))
	k.M.PokeBytes(entRBuf, bytes.Repeat([]byte{0xa5}, entBufLen))
	if c.setup != nil {
		c.setup(k, io)
	}
	buf := int32(entRBuf)
	no := int32(unixemu.SysRead)
	if c.trap == kernel.TrapWrite {
		buf, no = entWBuf, unixemu.SysWrite
	}
	prog := k.C.Synthesize(nil, "main", nil, func(e *synth.Emitter) {
		c.open(e)
		if unix {
			e.MoveL(m68k.Imm(c.fd), m68k.D(1))
			e.MoveL(m68k.Imm(buf), m68k.D(2))
			e.MoveL(m68k.Imm(n), m68k.D(3))
			e.MoveL(m68k.Imm(no), m68k.D(0))
			e.Trap(kernel.TrapUnix)
		} else {
			e.MoveL(m68k.Imm(buf), m68k.D(1))
			e.MoveL(m68k.Imm(n), m68k.D(2))
			e.Trap(uint8(c.trap + int(c.fd)))
		}
		e.MoveL(m68k.D(0), m68k.Abs(entRes))
		e.Halt()
	})
	th := k.SpawnKernel("main", prog)
	run(t, k, th, 50_000_000)

	s := entryState{d0: k.M.Peek(entRes, 4), out: string(k.TTY.Output()), counters: map[string]uint64{}}
	s.mem = append(s.mem, k.M.PeekBytes(entWBuf, entBufLen)...)
	s.mem = append(s.mem, k.M.PeekBytes(entRBuf, entBufLen)...)
	slots := k.M.PeekBytes(th.TTE+kernel.TTEFDBase, kernel.MaxFD*kernel.FDSlotSize)
	for fd := range kernel.MaxFD {
		// Where the slot's code region lies, which the two rigs'
		// programs of different lengths move.
		clear(slots[fd*kernel.FDSlotSize+kio.FDCode:][:4])
	}
	s.mem = append(s.mem, slots...)
	s.mem = append(s.mem, k.M.PeekBytes(th.TTE+kernel.TTEIOGauge, 4)...)
	s.mem = append(s.mem, k.M.PeekBytes(io.TTYQueue(), kio.KQBuf+8)...)
	for _, name := range []string{"/f", "/disk/f"} {
		if f := k.FS.Lookup(name); f != nil {
			s.mem = append(s.mem, k.M.PeekBytes(f.Data, int(f.Cap))...)
			s.mem = append(s.mem, k.M.PeekBytes(f.Entry+fs.EntSize, 4)...)
		}
	}
	for fd := range kernel.MaxFD {
		switch k.M.Peek(kernel.FDCell(th.TTE, fd, kernel.FDKind), 4) {
		case kio.FDPipeR, kio.FDPipeW:
			s.mem = append(s.mem, k.M.PeekBytes(k.M.Peek(kernel.FDCell(th.TTE, fd, kernel.FDAux), 4), kio.KQBuf+entBufLen)...)
		case kio.FDSock:
			s.mem = append(s.mem, k.M.PeekBytes(k.M.Peek(kernel.FDCell(th.TTE, fd, kernel.FDAux), 4), kio.NQSlots+kio.NQSlotCount*kio.NQSlotBytes)...)
		}
	}
	// The I/O layer's counters and the synthesized routines' call
	// counts: a Counted routine counts a call through either entry.
	for name, v := range reg.Snapshot().Counters {
		if strings.HasPrefix(name, "kio.") || strings.HasPrefix(name, "synth.") {
			s.counters[name] = v
		}
	}
	return s
}

// TestUnixEntryMatchesNative is the per-routine translation check of
// the UNIX entries: for every kind of descriptor open synthesizes, the
// same read or write made through the UNIX gate (trap #0, fd D1,
// buffer D2, length D3) and through the descriptor's own trap (buffer
// D1, length D2), each on a fresh rig, must return the same D0 and
// leave the same buffers, files, descriptor slots and gauges, queues,
// tty output and I/O counters, at lengths 0, 1 and more. Checked in a
// scratch copy to fail when the default UNIX entry's two moves are
// swapped, and when the pipe write's UNIX one-byte path does not add
// to the descriptor's gauge.
func TestUnixEntryMatchesNative(t *testing.T) {
	// Named kinds are opened by the name their setup pokes.
	openName := func(e *synth.Emitter) { emitOpen(e, entName) }
	named := func(name string) func(k *kernel.Kernel, io *kio.IO) {
		return func(k *kernel.Kernel, io *kio.IO) { pokeName(k, entName, name) }
	}
	typed := func(name, input string) func(k *kernel.Kernel, io *kio.IO) {
		return func(k *kernel.Kernel, io *kio.IO) {
			pokeName(k, entName, name)
			k.TTY.InputString(input, 0, 0)
		}
	}
	file := func(k *kernel.Kernel, io *kio.IO) {
		pokeName(k, entName, "/f")
		if _, err := k.FS.CreateSized("/f", []byte("0123456789"), 32); err != nil {
			t.Fatal(err)
		}
	}
	disk := func(k *kernel.Kernel, io *kio.IO) {
		pokeName(k, entName, "/disk/f")
		if _, err := io.StoreDiskFile("/disk/f", []byte("on the disk")); err != nil {
			t.Fatal(err)
		}
	}
	pipe := func(e *synth.Emitter) {
		e.MoveL(m68k.Imm(kernel.SysPipe), m68k.D(0))
		e.Trap(kernel.TrapSys) // fd 0 reads, fd 1 writes
	}
	// fill writes what the read end will find: five bytes, natively.
	fill := func(trap int) func(e *synth.Emitter) {
		return func(e *synth.Emitter) {
			e.MoveL(m68k.Imm(entWBuf), m68k.D(1))
			e.MoveL(m68k.Imm(5), m68k.D(2))
			e.Trap(uint8(trap))
		}
	}
	socks := func(e *synth.Emitter) {
		emitSock(e, 5, 9) // fd 0
		emitSock(e, 9, 5) // fd 1
	}
	cases := []entryCase{
		{"null read", named("/dev/null"), openName, kernel.TrapRead, 0},
		{"null write", named("/dev/null"), openName, kernel.TrapWrite, 0},
		{"tty read", typed("/dev/tty", "hi\n"), openName, kernel.TrapRead, 0},
		{"tty write", named("/dev/tty"), openName, kernel.TrapWrite, 0},
		{"raw tty read", typed("/dev/rawtty", "abc"), openName, kernel.TrapRead, 0},
		{"raw tty write", named("/dev/rawtty"), openName, kernel.TrapWrite, 0},
		{"file read", file, openName, kernel.TrapRead, 0},
		{"file write", file, openName, kernel.TrapWrite, 0},
		{"disk file read", disk, openName, kernel.TrapRead, 0},
		{"disk file write", disk, openName, kernel.TrapWrite, 0},
		{"proc read", named(kio.ProcMetricsPath), openName, kernel.TrapRead, 0},
		{"pipe read", nil, func(e *synth.Emitter) { pipe(e); fill(kernel.TrapWrite + 1)(e) }, kernel.TrapRead, 0},
		{"pipe write", nil, pipe, kernel.TrapWrite, 1},
		{"socket read", nil, func(e *synth.Emitter) { socks(e); fill(kernel.TrapWrite + 0)(e) }, kernel.TrapRead, 1},
		{"socket write", nil, socks, kernel.TrapWrite, 0},
	}
	for _, c := range cases {
		for _, n := range []int32{0, 1, 5} {
			t.Run(fmt.Sprintf("%s %d", c.name, n), func(t *testing.T) {
				native, unix := entryRun(t, c, n, false), entryRun(t, c, n, true)
				if int32(native.d0) < 0 {
					t.Errorf("the native call failed: %d", int32(native.d0))
				}
				if native.d0 != unix.d0 {
					t.Errorf("D0: native %d, UNIX %d", int32(native.d0), int32(unix.d0))
				}
				if !bytes.Equal(native.mem, unix.mem) {
					for i := range native.mem {
						if native.mem[i] != unix.mem[i] {
							t.Errorf("memory differs first at byte %d of the compared ranges: native %#x, UNIX %#x", i, native.mem[i], unix.mem[i])
							break
						}
					}
				}
				if native.out != unix.out {
					t.Errorf("tty output: native %q, UNIX %q", native.out, unix.out)
				}
				if !maps.Equal(native.counters, unix.counters) {
					for name, v := range native.counters {
						if unix.counters[name] != v {
							t.Errorf("%s: native %d, UNIX %d", name, v, unix.counters[name])
						}
					}
				}
			})
		}
	}
}

// TestBadDescriptorsThroughUnixGate: read and write through trap #0
// fail with -1 on every descriptor that is not open — every fd of a
// thread created by the create call after kio and the emulator were
// installed (its UNIX cells come from the prototype), a closed fd,
// fd = MaxFD and fd = -1 — and the walk of every live TTE finds each
// UNIX cell beside its native vector.
func TestBadDescriptorsThroughUnixGate(t *testing.T) {
	k := kernel.Boot(kernel.Config{Machine: m68k.Config{MemSize: 1 << 20}})
	l := logRegions(k)
	io := kio.Install(k)
	unixemu.Install(k)
	pokeName(k, entName, "/dev/null")
	const res, stack = 0x9000, 0x9f00
	// call emits read or write of 4 bytes on fd through trap #0 and
	// stores D0 at the next result long, counted in *at.
	call := func(e *synth.Emitter, at *uint32, no, fd int32) {
		e.MoveL(m68k.Imm(fd), m68k.D(1))
		e.MoveL(m68k.Imm(entRBuf), m68k.D(2))
		e.MoveL(m68k.Imm(4), m68k.D(3))
		e.MoveL(m68k.Imm(no), m68k.D(0))
		e.Trap(kernel.TrapUnix)
		e.MoveL(m68k.D(0), m68k.Abs(res+*at*4))
		*at++
	}
	var calls uint32
	child := k.C.Synthesize(nil, "child", nil, func(e *synth.Emitter) {
		for fd := int32(0); fd < kernel.MaxFD; fd++ {
			call(e, &calls, unixemu.SysRead, fd)
			call(e, &calls, unixemu.SysWrite, fd)
		}
		exitSeq(e)
	})
	prog := k.C.Synthesize(nil, "main", nil, func(e *synth.Emitter) {
		e.MoveL(m68k.Imm(kernel.SysCreate), m68k.D(0))
		e.MoveL(m68k.Imm(int32(child)), m68k.D(1))
		e.MoveL(m68k.Imm(stack), m68k.D(2))
		e.Trap(kernel.TrapSys)
		e.MoveL(m68k.D(0), m68k.D(1))
		e.MoveL(m68k.Imm(kernel.SysStart), m68k.D(0))
		e.Trap(kernel.TrapSys)
		emitOpen(e, entName) // fd 0
		emitClose(e, 0)
		for _, fd := range []int32{0, kernel.MaxFD, -1} {
			call(e, &calls, unixemu.SysRead, fd)
			call(e, &calls, unixemu.SysWrite, fd)
		}
		exitSeq(e)
	})
	main := k.SpawnKernel("main", prog)
	// The child's exit decrements the live count the main thread's
	// create never incremented: pre-add one.
	k.M.Poke(kernel.GLiveThreads, 4, k.M.Peek(kernel.GLiveThreads, 4)+1)
	for i := range calls {
		k.M.Poke(res+i*4, 4, 0x5a5a)
	}
	run(t, k, main, 20_000_000)
	for i := range calls {
		if got := int32(k.M.Peek(res+i*4, 4)); got != -1 {
			t.Errorf("call %d returned %d, want -1", i, got)
		}
	}
	checkUnixCells(t, k, io, l)
}
