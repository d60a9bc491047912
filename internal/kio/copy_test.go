package kio_test

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"synthesis/internal/kernel"
	"synthesis/internal/kio"
	"synthesis/internal/m68k"
	"synthesis/internal/metrics"
	"synthesis/internal/net"
	"synthesis/internal/synth"
)

// The registers a caller may expect back across a read or write trap
// (D2 too on a file, whose routines leave the length alone; the queue
// paths use it as their remaining count, the system-call scratch set).
var keptRegs = []m68k.Operand{
	m68k.D(3), m68k.D(4), m68k.D(5), m68k.D(6), m68k.D(7),
	m68k.A(2), m68k.A(3), m68k.A(4), m68k.A(5), m68k.A(6),
}

func sentinel(set, i int) int32 { return int32(0x5e000000 | set<<8 | i) }

// loadSentinels puts set's values into keptRegs.
func loadSentinels(e *synth.Emitter, set int) {
	for i, r := range keptRegs {
		e.MoveL(m68k.Imm(sentinel(set, i)), r)
	}
}

// checkSentinels bumps the cell at fail once per register of keptRegs
// that no longer holds set's value.
func checkSentinels(e *synth.Emitter, set int, fail uint32) {
	for i, r := range keptRegs {
		ok := fmt.Sprintf("kept%d_%d_%d", set, i, e.Len())
		e.CmpL(m68k.Imm(sentinel(set, i)), r)
		e.Beq(ok)
		e.AddL(m68k.Imm(1), m68k.Abs(fail))
		e.Label(ok)
	}
}

func heapBuf(t *testing.T, k *kernel.Kernel, n uint32, fill byte) uint32 {
	t.Helper()
	a, err := k.Heap.Alloc(n)
	if err != nil {
		t.Fatal(err)
	}
	k.M.PokeBytes(a, bytes.Repeat([]byte{fill}, int(n)))
	return a
}

// TestBulkCopyPreservesRegisters holds the block form of the
// synthesized copy (emitCopy with blockCopy: a JSR to kio.block_copy,
// which moves its groups by MOVEM through D3-D7/A3-A5, saved around its
// loop) to its promises on the file and pipe paths that use it. Every
// length from 0 through a byte past 4 KB that puts the copy on a
// different branch — no 32-byte group, one, one and a tail, a pass of
// eight and a leftover, many — is written and read back between
// misaligned buffers: the bytes must arrive, nothing past either end
// may be touched, and the caller's registers must be as they were. Then
// two threads stream through a small pipe on a short quantum, so copies
// are preempted between a group's two MOVEMs, inside a pass too, and
// both check their registers after every call.
func TestBulkCopyPreservesRegisters(t *testing.T) {
	k, io := boot(t)
	lengths := []uint32{0, 1, 3, 4, 31, 32, 33, 63, 64, 100, 288, 1024, 1025, 2047, 4096}
	const (
		pipeRFD, pipeWFD, fileFD = 0, 1, 2
		guard                    = 0xee
	)
	if _, err := k.FS.CreateSized("/tmp/bulk", nil, 8192); err != nil {
		t.Fatal(err)
	}
	name := heapBuf(t, k, 16, 0)
	pokeName(k, name, "/tmp/bulk")
	src := heapBuf(t, k, 4096+8, 0) + 1
	for i := uint32(0); i < 4096; i++ {
		k.M.Poke(src+i, 1, i*7+3)
	}
	fail := heapBuf(t, k, 4, 0)
	type call struct {
		dst, n uint32
		file   bool
		regs   uint32 // D0-D7/A0-A6 right after the trap
	}
	var calls []call
	prog := k.C.Synthesize(nil, "bulk", nil, func(e *synth.Emitter) {
		emitOpen(e, name)
		for _, file := range []bool{true, false} {
			for _, n := range lengths {
				dst := heapBuf(t, k, n+8, guard) + 3
				rw := func(trap uint8, buf uint32) {
					if file {
						e.MoveL(m68k.Imm(kernel.SysSeek), m68k.D(0))
						e.MoveL(m68k.Imm(fileFD), m68k.D(1))
						e.Clr(4, m68k.D(2))
						e.Trap(kernel.TrapSys)
					}
					set := len(calls)
					loadSentinels(e, set)
					e.MoveL(m68k.Imm(int32(buf)), m68k.D(1))
					e.MoveL(m68k.Imm(int32(n)), m68k.D(2))
					e.Trap(trap)
					c := call{dst: dst, n: n, file: file, regs: heapBuf(t, k, 60, 0)}
					e.MovemSave(0x7fff, m68k.Abs(c.regs))
					calls = append(calls, c)
					checkSentinels(e, set, fail)
				}
				if file {
					rw(kernel.TrapWrite+fileFD, src)
					rw(kernel.TrapRead+fileFD, dst)
				} else {
					rw(kernel.TrapWrite+pipeWFD, src)
					rw(kernel.TrapRead+pipeRFD, dst)
				}
			}
		}
		exitSeq(e)
	})
	th := k.SpawnKernel("bulk", prog)
	p := io.NewPipe(kio.DefaultPipeBytes)
	if r, w := io.OpenPipeEnd(th, p, false), io.OpenPipeEnd(th, p, true); r != pipeRFD || w != pipeWFD {
		t.Fatalf("pipe ends on descriptors %d and %d, want %d and %d", r, w, pipeRFD, pipeWFD)
	}
	run(t, k, th, 50_000_000)

	if n := k.M.Peek(fail, 4); n != 0 {
		t.Errorf("%d registers changed across a trap", n)
	}
	want := k.M.PeekBytes(src, 4096)
	for i, c := range calls {
		r := func(n int) uint32 { return k.M.Peek(c.regs+4*uint32(n), 4) }
		what := fmt.Sprintf("file=%v %d bytes, call %d", c.file, c.n, i)
		if r(0) != c.n {
			t.Errorf("%s: returned %d", what, int32(r(0)))
		}
		if c.file && r(2) != c.n {
			t.Errorf("%s: D2 came back %d", what, r(2))
		}
		if i%2 == 0 {
			continue
		}
		got := k.M.PeekBytes(c.dst-1, int(c.n)+2)
		if !bytes.Equal(got[1:1+c.n], want[:c.n]) {
			t.Errorf("%s: read back the wrong bytes", what)
		}
		if got[0] != guard || got[len(got)-1] != guard {
			t.Errorf("%s: wrote outside the buffer: %#x before, %#x after", what, got[0], got[len(got)-1])
		}
	}
	if t.Failed() {
		return
	}

	t.Run("preempted stream", testPreemptedPipeStream)
}

// preemptProbe counts quantum interrupts taken with the PC on a MOVEM
// that stores a block-copy group, to (An) or to d(An): a copy preempted
// between a group's two MOVEMs. inPass counts those on a d(An) store,
// the second to eighth group of a kio.block_copy pass.
type preemptProbe struct {
	m               *m68k.Machine
	between, inPass int
}

func (p *preemptProbe) StepDone(uint32, uint64, uint64, bool)   {}
func (p *preemptProbe) InterruptTaken(int, int, uint64, uint64) {}
func (p *preemptProbe) Charged(uint64, string)                  {}
func (p *preemptProbe) ExceptionTaken(vec int, pc uint32, _ uint64) {
	if vec != m68k.VecAutovector+m68k.IRQTimer || int(pc) >= len(p.m.Code) {
		return
	}
	in := p.m.Code[pc]
	if in.Op != m68k.MOVEM || in.Dir != 0 || in.Mask != m68k.MovemCopyRegs {
		return
	}
	switch in.Dst.Mode {
	case m68k.ModeDisp:
		p.inPass++
		fallthrough
	case m68k.ModeInd:
		p.between++
	}
}

func testPreemptedPipeStream(t *testing.T) {
	k, io := boot(t)
	const (
		total          = 32_000
		wchunk, rchunk = 1000, 1500
		quantum        = 997 // cycles: a few 32-byte groups
	)
	src := heapBuf(t, k, total+8, 0) + 1
	for i := uint32(0); i < total; i++ {
		k.M.Poke(src+i, 1, i*13+5)
	}
	dst := heapBuf(t, k, total+8, 0) + 3
	cells := heapBuf(t, k, 20, 0) // fail count, then each side's cursor and bytes left
	fail, wcur, wleft, rcur, rleft := cells, cells+4, cells+8, cells+12, cells+16
	for _, c := range [][2]uint32{{wcur, src}, {wleft, total}, {rcur, dst}, {rleft, total}} {
		k.M.Poke(c[0], 4, c[1])
	}

	side := func(name string, set int, trap uint8, cur uint32, chunk int32, left uint32) uint32 {
		return k.C.Synthesize(nil, name, nil, func(e *synth.Emitter) {
			loadSentinels(e, set)
			e.Label("loop")
			e.MoveL(m68k.Abs(cur), m68k.D(1))
			e.MoveL(m68k.Imm(chunk), m68k.D(2))
			e.Trap(trap)
			checkSentinels(e, set, fail)
			e.AddL(m68k.D(0), m68k.Abs(cur))
			e.SubL(m68k.D(0), m68k.Abs(left))
			e.Bne("loop")
			exitSeq(e)
		})
	}
	writer := k.SpawnKernel("writer", side("writer", 1, kernel.TrapWrite, wcur, wchunk, wleft))
	reader := k.SpawnKernel("reader", side("reader", 2, kernel.TrapRead, rcur, rchunk, rleft))
	p := io.NewPipe(512)
	if io.OpenPipeEnd(writer, p, true) != 0 || io.OpenPipeEnd(reader, p, false) != 0 {
		t.Fatal("pipe ends not on descriptor 0")
	}
	for _, th := range []*kernel.Thread{writer, reader} {
		k.M.Poke(th.TTE+kernel.TTEQuantum, 4, quantum)
	}
	probe := &preemptProbe{m: k.M}
	k.M.Probe = probe
	run(t, k, writer, 200_000_000)

	if n := k.M.Peek(fail, 4); n != 0 {
		t.Errorf("%d registers changed across a trap", n)
	}
	if !bytes.Equal(k.M.PeekBytes(dst, total), k.M.PeekBytes(src, total)) {
		t.Error("the stream arrived different from what was written")
	}
	if probe.between == 0 {
		t.Error("no copy was preempted between a group's two MOVEMs")
	}
	if probe.inPass == 0 {
		t.Error("no copy was preempted between a pass's displacement stores")
	}
}

// TestCopyFormsAgree holds emitCopy's three forms to each other and to
// their contract on the same inputs, the block form through the shared
// kio.block_copy routine: every length from 0 to three 32-byte groups
// and seven leftover longs' worth of bytes past them, and k*32+t bytes
// for k up to 19 groups and a tail t of 0, 4, 7 or 31 bytes (no pass of
// eight groups, one and two, every leftover group count 0-7, a
// long-word tail and a byte tail), from and to every alignment mod 4.
// Each form must leave the same bytes at the destination, touch nothing
// before it or after it (the summing form zeroes the rest of the tail's
// long, and nothing more), advance A0 past the source and A1 past the
// destination (the summing form leaves A1 at the tail's long), and
// leave every other register as it found it but D0 and D1, and D2 in
// the summing form, which holds the bytes' wire checksum. Each of these
// mutations of emitBlockGroups fails it: one store's displacement off
// by 32, the pass's LEA stride 224, the leftover mask 3 instead of 7,
// the registers' restore dropped.
func TestCopyFormsAgree(t *testing.T) {
	const (
		maxLen   = 19*32 + 31
		src, dst = 0x4000, 0x6000 // each copy starts 0-3 bytes in
		stack    = 0x3000
		guard    = 0xee
		span     = maxLen + 16 // the destination's view: 8 bytes each side
	)
	var lengths []uint32
	for n := uint32(0); n <= 3*32+7; n++ {
		lengths = append(lengths, n)
	}
	for k := uint32(0); k < 20; k++ {
		for _, tail := range []uint32{0, 4, 7, 31} {
			if n := k*32 + tail; n > 3*32+7 {
				lengths = append(lengths, n)
			}
		}
	}
	m := m68k.New(m68k.Config{MemSize: 1 << 16})
	c := synth.NewCreator(m)
	groups := c.Synthesize(nil, "block_copy", nil, kio.EmitBlockGroups)
	forms := []int{kio.LongCopy, kio.BlockCopy, kio.SumCopy}
	entry := make([]uint32, len(forms))
	for i, form := range forms {
		entry[i] = c.Synthesize(nil, fmt.Sprint("copy", form), nil, func(e *synth.Emitter) {
			kio.EmitCopy(e, form, groups)
			e.Halt()
		})
	}
	rng := rand.New(rand.NewSource(1))
	payload := make([]byte, maxLen)
	guards := bytes.Repeat([]byte{guard}, span)
	for _, n := range lengths {
		for align := uint32(0); align < 16; align++ {
			sa, da := align%4, align/4
			rng.Read(payload[:n])
			var d, a [8]uint32
			for r := range d {
				d[r], a[r] = rng.Uint32(), rng.Uint32()
			}
			a[0], a[1], a[7], d[1] = src+sa, dst+da, stack, n
			var first []byte
			for i, form := range forms {
				what := fmt.Sprintf("form %d, %d bytes from %d mod 4 to %d mod 4", form, n, sa, da)
				m.PokeBytes(dst-8, guards)
				m.PokeBytes(src+sa, payload[:n])
				m.D, m.A = d, a
				m.PC = entry[i]
				m.ClearHalt()
				if err := m.Run(1 << 20); !errors.Is(err, m68k.ErrHalted) {
					t.Fatalf("%s: %v", what, err)
				}
				view := m.PeekBytes(dst-8, span)
				if first == nil {
					first = view
				}
				at := 8 + da
				if !bytes.Equal(view[at:at+n], payload[:n]) {
					t.Errorf("%s: the wrong bytes arrived", what)
				}
				if !bytes.Equal(view[at:at+n], first[at:at+n]) {
					t.Errorf("%s: other bytes than form %d's arrived", what, forms[0])
				}
				end, a1 := at+n, dst+da+n
				if form == kio.SumCopy && n%4 != 0 {
					end, a1 = at+n+4-n%4, dst+da+n&^3
					if !bytes.Equal(view[at+n:end], make([]byte, end-at-n)) {
						t.Errorf("%s: the tail's long is not zero-padded: % x", what, view[at+n:end])
					}
				}
				if !bytes.Equal(view[:at], guards[:at]) || !bytes.Equal(view[end:], guards[end:]) {
					t.Errorf("%s: wrote outside the destination", what)
				}
				wantD, wantA := d, a
				wantA[0], wantA[1] = src+sa+n, a1
				wantD[0], wantD[1] = m.D[0], m.D[1]
				if form == kio.SumCopy {
					wantD[2] = net.Checksum(payload[:n])
				}
				if m.D != wantD || m.A != wantA {
					t.Errorf("%s: registers D %x A %x, want D %x A %x", what, m.D, m.A, wantD, wantA)
				}
			}
			if t.Failed() {
				return
			}
		}
	}
}

// TestEmittedMovemsHaveBodies boots a kernel, opens a descriptor of
// every kind and a socket, and scans code space: every MOVEM the
// synthesizer emitted must have a body of its own in the dispatcher
// (m68k.MovemHasBody), so a template that changes its register set
// fails here instead of running through exec.
func TestEmittedMovemsHaveBodies(t *testing.T) {
	k := kernel.Boot(kernel.Config{Machine: m68k.Config{MemSize: 1 << 20}, Metrics: metrics.New()})
	io := kio.Install(k)
	if _, err := k.FS.CreateSized("/f", []byte("0123456789"), 64); err != nil {
		t.Fatal(err)
	}
	if _, err := io.StoreDiskFile("/disk/f", []byte("on the disk")); err != nil {
		t.Fatal(err)
	}
	th := k.SpawnKernel("main", k.C.Synthesize(nil, "main", nil, exitSeq))
	var procFD int32 // the last open's: the generic /proc read reads it
	for _, name := range []string{"/dev/null", "/dev/tty", "/dev/rawtty", "/dev/ad", "/f", "/disk/f", kio.ProcMetricsPath} {
		if procFD = io.Open(th, name); procFD < 0 {
			t.Fatalf("open %s failed", name)
		}
	}
	p := io.NewPipe(kio.DefaultPipeBytes)
	if io.SynthGenericProcRead(th, procFD) < 0 || io.OpenPipeEnd(th, p, false) < 0 ||
		io.OpenPipeEnd(th, p, true) < 0 || io.OpenSocket(th, 5, 9) < 0 {
		t.Fatal("an open failed")
	}
	open := map[uint32]bool{}
	for fd := range kernel.MaxFD {
		open[k.M.Peek(kernel.FDCell(th.TTE, fd, kernel.FDKind), 4)] = true
	}
	for kind := kio.FDNull; kind <= kio.FDSock; kind++ {
		if !open[kind] {
			t.Errorf("no descriptor of kind %d is open", kind)
		}
	}

	// How many MOVEMs of each mask code space holds, and the masks of
	// those without a body.
	found := map[uint16]int{}
	var slow []uint16
	for _, in := range k.M.Code[:k.M.CodeTop] {
		if in.Op == m68k.MOVEM {
			found[in.Mask]++
			if !m68k.MovemHasBody(in) {
				slow = append(slow, in.Mask)
			}
		}
	}
	if len(slow) != 0 {
		t.Errorf("MOVEMs without a body, masks %#04x", slow)
	}
	for _, set := range []uint16{m68k.MovemCopyRegs, m68k.MovemIntrRegs, m68k.MovemContextRegs} {
		if found[set] == 0 {
			t.Errorf("no MOVEM of %#04x in code space: %v", set, found)
		}
	}
}

// TestBlockCopyLoopsCollapse: every copy loop kio emits is a shape the
// dispatcher runs a pass of as one host copy (m68k's copyLoop):
// kio.block_copy's pass of eight groups and leftover loop of one, the
// summing form's group loop in a socket's send and in the receive
// handler's deposit, and the long form's in a socket's receive and a
// /proc read. An edit to a template that breaks a shape fails here
// rather than silently costing file_rw or sock_echo its copy speed.
func TestBlockCopyLoopsCollapse(t *testing.T) {
	k := kernel.Boot(kernel.Config{Machine: m68k.Config{MemSize: 1 << 20}})
	log := logRegions(k)
	io := kio.Install(k)
	th := k.SpawnKernel("main", k.C.Synthesize(nil, "main", nil, exitSeq))
	if io.OpenSocket(th, 5, 9) < 0 || io.Open(th, kio.ProcMetricsPath) < 0 {
		t.Fatal("an open failed")
	}
	// Each routine's collapsed heads, named by the head's opcode and the
	// bytes a pass moves.
	got := map[string][]string{}
	for i, name := range log.names {
		if strings.HasPrefix(name, "kio.sock") {
			name = "kio.sockN" + name[strings.LastIndexByte(name, '.'):]
		}
		got[name] = nil // the last routine registered under the name
		for pc := log.spans[i][0]; pc < log.spans[i][1]; pc++ {
			if _, n := k.M.LoopAt(pc); n > 0 {
				got[name] = append(got[name], fmt.Sprintf("%s %d", k.M.Code[pc].Op, n))
			}
		}
	}
	for name, want := range map[string][]string{
		"kio.block_copy": {"movem 256", "movem 32"},
		"kio.sockN.send": {"movem 32"},
		"kio.net_intr":   {"movem 32"},
		"kio.sockN.recv": {"move 32"},
		"kio.proc.read":  {"move 32"},
	} {
		if !slices.Equal(got[name], want) {
			t.Errorf("%s's collapsed loop heads are %q, want %q", name, got[name], want)
		}
	}
}

// TestBlockCopySharedOnce holds the block form's group loop to one
// routine per kernel: with the creator reporting every region it
// installs, a file and a pipe are opened twice each, and kio.block_copy
// must have been registered once, at the address kio calls, while each
// file and pipe read and write routine the opens synthesized calls it
// by JSR and holds no MOVEM, so no group loop, of its own. The name
// puts its cycles under the kio layer in a profile.
func TestBlockCopySharedOnce(t *testing.T) {
	k := kernel.Boot(kernel.Config{Machine: m68k.Config{MemSize: 1 << 20}})
	log := logRegions(k)
	io := kio.Install(k)
	if _, err := k.FS.CreateSized("/f", []byte("0123456789"), 64); err != nil {
		t.Fatal(err)
	}
	th := k.SpawnKernel("main", k.C.Synthesize(nil, "main", nil, exitSeq))
	for range 2 {
		p := io.NewPipe(kio.DefaultPipeBytes)
		if io.Open(th, "/f") < 0 || io.OpenPipeEnd(th, p, false) < 0 || io.OpenPipeEnd(th, p, true) < 0 {
			t.Fatal("an open failed")
		}
	}

	blk := io.BlockCopyRoutine()
	shared, perOpen := 0, 0
	for i, name := range log.names {
		span := log.spans[i]
		if name == "kio.block_copy" {
			shared++
			if span[0] != blk {
				t.Errorf("kio.block_copy registered at %d, kio calls %d", span[0], blk)
			}
			continue
		}
		entry := name[strings.LastIndex(name, ".")+1:]
		if !slices.Contains([]string{"file_read", "file_write", "pipe_read", "pipe_write"}, entry) {
			continue
		}
		perOpen++
		calls := 0
		for _, in := range k.M.Code[span[0]:span[1]] {
			if in.Op == m68k.MOVEM {
				t.Errorf("%s holds a MOVEM of its own, mask %#04x", name, in.Mask)
			}
			if in.Op == m68k.JSR && in.Dst == m68k.Abs(blk) {
				calls++
			}
		}
		if calls != 1 {
			t.Errorf("%s calls kio.block_copy %d times, want once", name, calls)
		}
	}
	if shared != 1 {
		t.Errorf("kio.block_copy registered %d times, want once", shared)
	}
	if perOpen != 8 {
		t.Errorf("%d file and pipe routines synthesized, want 8", perOpen)
	}
}

// TestEchoCopiesCollapse bounces a 64-byte datagram between two
// loopback sockets 300 times under Run, with no Probe and no trace ring,
// and wants at most 5 % of the copy passes to run their instructions one
// at a time: an echo's two sends, two deposits and two receives each
// copy two 32-byte groups through a loop the dispatcher collapses, and
// a horizon or quantum change that made those passes fall back would
// cost sock_echo its copy speed and fail no other test.
func TestEchoCopiesCollapse(t *testing.T) {
	k := kernel.Boot(kernel.Config{Machine: m68k.Config{MemSize: 1 << 20}})
	kio.Install(k)
	const echoes, n = 300, 64
	const res, abuf, bbuf = 0x9000, 0x9300, 0x9700
	prog := k.C.Synthesize(nil, "main", nil, func(e *synth.Emitter) {
		emitSock(e, 5, 9) // fd 0
		emitSock(e, 9, 5) // fd 1
		e.MoveL(m68k.Imm(echoes), m68k.D(5))
		e.Label("echo")
		for _, leg := range []struct {
			trap uint8
			buf  int32
		}{{kernel.TrapWrite + 0, abuf}, {kernel.TrapRead + 1, bbuf}, {kernel.TrapWrite + 1, bbuf}, {kernel.TrapRead + 0, abuf}} {
			e.MoveL(m68k.Imm(leg.buf), m68k.D(1))
			e.MoveL(m68k.Imm(n), m68k.D(2))
			e.Trap(leg.trap)
			e.AddL(m68k.D(0), m68k.Abs(res))
		}
		e.SubL(m68k.Imm(1), m68k.D(5))
		e.Bne("echo")
		exitSeq(e)
	})
	run(t, k, k.SpawnKernel("main", prog), 200_000_000)
	if got := k.M.Peek(res, 4); got != 4*echoes*n {
		t.Fatalf("the echoes moved %d bytes, want %d", got, 4*echoes*n)
	}
	passes, fell := k.M.CollapsedPasses, k.M.CollapseFallbacks
	if passes+fell != 12*echoes || 20*fell > passes {
		t.Errorf("%d copy passes collapsed and %d fell back, want %d in all and at most 5 %% falling back",
			passes, fell, 12*echoes)
	}
}

// TestLookupLoopsCollapse opens and closes /dev/tty 300 times under Run,
// with no Probe and no trace ring, and wants fs_lookup's scan and long
// compare to collapse on every open, at most 5 % of calls falling back; and its three loops, the scan and the long and
// byte compares, to be shapes the dispatcher collapses. A template edit
// or a horizon change that lost them would cost open_close its lookup
// speed and fail no other test.
func TestLookupLoopsCollapse(t *testing.T) {
	k := kernel.Boot(kernel.Config{Machine: m68k.Config{MemSize: 1 << 20}})
	kio.Install(k)
	var loops []string
	for pc := k.LookupRoutine(); k.M.Code[pc].Op != m68k.RTS; pc++ {
		if form, n := k.M.LoopAt(pc); n > 0 {
			loops = append(loops, fmt.Sprintf("%s %d", form, n))
		}
	}
	if want := []string{"scan 1", "compare 4", "compare 1"}; !slices.Equal(loops, want) {
		t.Errorf("fs_lookup's collapsed loop heads are %q, want %q", loops, want)
	}
	const opens, nameAddr = 300, 0x9100
	pokeName(k, nameAddr, "/dev/tty")
	prog := k.C.Synthesize(nil, "main", nil, func(e *synth.Emitter) {
		e.MoveL(m68k.Imm(opens), m68k.D(5))
		e.Label("open")
		emitOpen(e, nameAddr)
		e.MoveL(m68k.D(0), m68k.D(1))
		e.MoveL(m68k.Imm(kernel.SysClose), m68k.D(0))
		e.Trap(kernel.TrapSys)
		e.SubL(m68k.Imm(1), m68k.D(5))
		e.Bne("open")
		exitSeq(e)
	})
	run(t, k, k.SpawnKernel("main", prog), 200_000_000)
	// A call cut short by the horizon, or one that fell back, leaves the
	// rest of its loop to another call.
	passes, fell := k.M.CollapsedPasses, k.M.CollapseFallbacks
	if passes < 2*opens || 20*fell > passes {
		t.Errorf("%d lookup loop calls collapsed and %d fell back, want at least %d and at most 5 %% falling back",
			passes, fell, 2*opens)
	}
}
