package main

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"synthesis/internal/alloc"
	"synthesis/internal/asmkit"
	"synthesis/internal/kernel"
	"synthesis/internal/kio"
	"synthesis/internal/m68k"
	"synthesis/internal/unixemu"
)

// sizes are the fixed operation counts of one repeat. They are frozen:
// every number the benchmark reports is "this much work took this
// long", so changing one is a change to the benchmark, not a tuning
// knob. fullSizes gives roughly one second per repeat on the
// reference 2-core box; quickSizes is the smoke test's.
type sizes struct {
	compute, pipeRW, fileRW, threadOps, openClose, sockEcho, fleetEcho int32
	// sunos is the iteration count of the baseline-kernel reference
	// run (per-iteration cost is flat in the count, and the baseline's
	// byte-at-a-time paths are slow to interpret).
	sunos int32
	// probeDiv scales down the fixed counts of the layer probes.
	probeDiv int
	// setups is how many set-ups a run times for its median set-up
	// time (bench.go: timedSetups).
	setups int
}

var fullSizes = sizes{
	compute: 3_000_000, pipeRW: 600_000, fileRW: 60_000, threadOps: 125_000,
	openClose: 30_000, sockEcho: 75_000, fleetEcho: 60_000,
	sunos: 500, probeDiv: 1, setups: 30,
}

var quickSizes = sizes{
	compute: 20_000, pipeRW: 5_000, fileRW: 500, threadOps: 1_000,
	openClose: 200, sockEcho: 400, fleetEcho: 1_500,
	sunos: 20, probeDiv: 100, setups: 2,
}

// workload is one named set of inputs. A single-machine workload is
// either a UNIX-convention program (one thread, the identical binary
// on both kernels) or built on native Synthesis calls; the fleet
// workload has neither and is driven by fleet.go.
type workload struct {
	name string
	why  string
	ops  func(sz sizes) int32
	// unix emits the program into b, for a machine whose kernel heap
	// is h, and returns the output check to run after the machine
	// halts. The check returns how many operations failed.
	unix func(b *asmkit.Builder, h *alloc.Heap, n int32) func(m *m68k.Machine) (failed int, err error)
	// native emits the guest program(s) on a booted rig and returns
	// the thread to start and the output check.
	native func(r *rig, tr *tracer, n int32) (*kernel.Thread, func() (failed int, err error))
	// paperRatio is the paper's Table 1 speedup (SUNOS seconds over
	// Synthesis seconds) for this program, 0 when it has none.
	paperRatio float64
}

var workloads = []workload{
	{
		name: "compute",
		why:  "Table 1 row 1: m68k dispatch does all the work, synth/kio/cluster none; a pure simulator change must show here with identical cycles",
		ops:  func(sz sizes) int32 { return sz.compute },
		unix: func(b *asmkit.Builder, h *alloc.Heap, n int32) func(*m68k.Machine) (int, error) {
			q, err := h.Alloc(4 * (qElems + 1))
			if err != nil {
				panic(err) // a freshly booted kernel of either kind has megabytes of heap
			}
			progCompute(b, q, n)
			return func(m *m68k.Machine) (int, error) { return checkQ(m, q, n) }
		},
		paperRatio: 20.0 / 21.1,
	},
	{
		name:       "pipe_rw",
		why:        "the paper's headline row: trap, unixemu gate and kio's synthesized pipe code on the control path; no synthesis, no bulk copy, never blocks",
		ops:        func(sz sizes) int32 { return sz.pipeRW },
		unix:       unixProg(progPipeRW, nil),
		paperRatio: 10.0 / 0.18,
	},
	{
		name:       "file_rw",
		why:        "the same kio read/write layer moving bulk data: the synthesized 1 KB copy loop and m68k loads/stores dominate, so a control-path win that taxes copies shows",
		ops:        func(sz sizes) int32 { return sz.fileRW },
		unix:       unixProg(progFileRW, checkFileRW),
		paperRatio: 21.0 / 2.4,
	},
	{
		name:   "thread_ops",
		why:    "the paper's title: stop/start, block/unblock and context switch under fine-grain I/O; kernel does most of the work and the pipe layer's blocking path is used",
		ops:    func(sz sizes) int32 { return sz.threadOps },
		native: buildThreadOps,
	},
	{
		name:       "open_close",
		why:        "synth + kio open + fs lookup + m68k code-space writes: host time is Go-side services and code space grows per open; the code-reclaim and synth-cache workload",
		ops:        func(sz sizes) int32 { return sz.openClose },
		unix:       unixProg(progOpenClose, nil),
		paperRatio: 43.0 / 1.4,
	},
	{
		name: "sock_echo",
		why:  "the guest network path alone (kio send/recv/demux, NIC DMA and IRQ, interrupt entry) on one machine in loopback: deterministic, no goroutines, no cluster",
		ops:  func(sz sizes) int32 { return sz.sockEcho },
		unix: unixProg(progSockEcho, checkSockEcho),
	},
	{
		name: "fleet_echo",
		why:  "adds fabric, VM driver and load generator to sock_echo's guest path on the wall clock; closed loop, 32 connections, one message in flight each",
		ops:  func(sz sizes) int32 { return sz.fleetEcho },
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// fleet reports whether the workload is the cluster one.
func (w *workload) fleet() bool { return w.unix == nil && w.native == nil }

// build emits the workload's guest program(s) on a booted Synthesis
// rig and returns the thread to start and the output check.
func (w *workload) build(r *rig, tr *tracer, n int32) (*kernel.Thread, func() (int, error)) {
	if w.native != nil {
		return w.native(r, tr, n)
	}
	b := asmkit.New()
	check := w.unix(b, r.k.Heap, n)
	t := r.k.SpawnKernel("bench", r.link(tr, "program", b))
	return t, func() (int, error) { return check(r.k.M) }
}

// unixProg adapts a program that needs no heap: its check is the
// guest-side mismatch counter plus, when extra is set, a look at guest
// memory.
func unixProg(prog func(*asmkit.Builder, int32), extra func(*m68k.Machine) error) func(*asmkit.Builder, *alloc.Heap, int32) func(*m68k.Machine) (int, error) {
	return func(b *asmkit.Builder, _ *alloc.Heap, n int32) func(*m68k.Machine) (int, error) {
		prog(b, n)
		return func(m *m68k.Machine) (int, error) {
			failed := int(m.Peek(addrFail, 4))
			if extra != nil {
				if err := extra(m); err != nil {
					return failed, err
				}
			}
			return failed, nil
		}
	}
}

// ---------------------------------------------------------------------
// Guest programs. The UNIX ones are the paper's Appendix A programs
// against the trap #0 convention (number in D0, arguments in D1-D3,
// reloaded before every call because the baseline clobbers them),
// each extended with a per-operation output check that bumps the
// mismatch counter at addrFail.

func unixCall(b *asmkit.Builder, no int32) {
	b.MoveL(m68k.Imm(no), m68k.D(0))
	b.Trap(kernel.TrapUnix)
}

func progMark(b *asmkit.Builder) { b.Kcall(kernel.SvcMark) }

func progExit(b *asmkit.Builder) {
	b.MoveL(m68k.Imm(0), m68k.D(1))
	unixCall(b, unixemu.SysExit)
}

// expect counts a mismatch unless D0 equals want.
func expect(b *asmkit.Builder, want int32) {
	ok := fmt.Sprintf("ok%d", b.Len())
	b.CmpL(m68k.Imm(want), m68k.D(0))
	b.Beq(ok)
	b.AddL(m68k.Imm(1), m68k.Abs(addrFail))
	b.Label(ok)
}

// expectEqual counts a mismatch unless the two operands are equal.
func expectEqual(b *asmkit.Builder, sz uint8, src, dst m68k.Operand) {
	ok := fmt.Sprintf("ok%d", b.Len())
	b.Cmp(sz, src, dst)
	b.Beq(ok)
	b.AddL(m68k.Imm(1), m68k.Abs(addrFail))
	b.Label(ok)
}

// stampByte stores (seeded byte + loop counter D5) at addrOut, the
// one-byte payload of the byte-at-a-time workloads.
func stampByte(b *asmkit.Builder) {
	b.MoveB(m68k.Abs(addrBufA), m68k.D(4))
	b.AddL(m68k.D(5), m68k.D(4))
	b.MoveB(m68k.D(4), m68k.Abs(addrOut))
}

func rw(b *asmkit.Builder, call int32, fd m68k.Operand, buf uint32, n int32) {
	b.MoveL(fd, m68k.D(1))
	b.MoveL(m68k.Imm(int32(buf)), m68k.D(2))
	b.MoveL(m68k.Imm(n), m68k.D(3))
	unixCall(b, call)
	expect(b, n)
}

// qElems is the length of the Hofstadter array: half a million longs,
// two megabytes, is "a large array" to a 68020 and still sits in the
// host's own cache — a longer one makes the workload's speed depend
// on how hard the host's neighbours are hitting the shared cache.
const qElems = 500_000

// progCompute is program 1: the Hofstadter Q sequence
// Q(i) = Q(i-Q(i-1)) + Q(i-Q(i-2)), which "touches a large array at
// non-contiguous points". One operation is one element; n elements
// are computed as passes over the qElems-long array.
func progCompute(b *asmkit.Builder, q uint32, n int32) {
	elems := min(n, qElems)
	progMark(b)
	b.MoveL(m68k.Imm(n/elems), m68k.D(2)) // passes
	b.Label("pass")
	b.MoveL(m68k.Imm(1), m68k.Abs(q+4))
	b.MoveL(m68k.Imm(1), m68k.Abs(q+8))
	b.Lea(m68k.Abs(q), 0)
	b.MoveL(m68k.Imm(3), m68k.D(3))
	b.Label("loop")
	b.MoveL(m68k.D(3), m68k.D(4))
	b.SubL(m68k.Imm(1), m68k.D(4))
	b.MoveL(m68k.Idx(0, 0, 4, 4), m68k.D(5)) // Q[i-1]
	b.MoveL(m68k.D(3), m68k.D(6))
	b.SubL(m68k.D(5), m68k.D(6))
	b.MoveL(m68k.Idx(0, 0, 6, 4), m68k.D(5)) // Q[i-Q[i-1]]
	b.MoveL(m68k.D(3), m68k.D(4))
	b.SubL(m68k.Imm(2), m68k.D(4))
	b.MoveL(m68k.Idx(0, 0, 4, 4), m68k.D(6)) // Q[i-2]
	b.MoveL(m68k.D(3), m68k.D(7))
	b.SubL(m68k.D(6), m68k.D(7))
	b.MoveL(m68k.Idx(0, 0, 7, 4), m68k.D(6)) // Q[i-Q[i-2]]
	b.AddL(m68k.D(6), m68k.D(5))
	b.MoveL(m68k.D(3), m68k.D(4))
	b.MoveL(m68k.D(5), m68k.Idx(0, 0, 4, 4)) // Q[i] = sum
	b.AddL(m68k.Imm(1), m68k.D(3))
	b.CmpL(m68k.Imm(elems+1), m68k.D(3))
	b.Bne("loop")
	b.SubL(m68k.Imm(1), m68k.D(2))
	b.Bne("pass")
	progMark(b)
	progExit(b)
}

// checkQ compares the guest's array against a Go reference and
// counts the wrong elements of the last pass; every pass computes the
// same values, so each one stands for n/elems operations.
func checkQ(m *m68k.Machine, q uint32, n int32) (int, error) {
	elems := min(n, qElems)
	if n%elems != 0 {
		return 0, fmt.Errorf("%d elements is not a whole number of %d-element passes", n, elems)
	}
	ref := make([]uint32, elems+1)
	ref[1], ref[2] = 1, 1
	for i := int32(3); i <= elems; i++ {
		ref[i] = ref[uint32(i)-ref[i-1]] + ref[uint32(i)-ref[i-2]]
	}
	got := m.PeekBytes(q, 4*int(elems+1))
	failed := 0
	for i := int32(1); i <= elems; i++ {
		if binary.BigEndian.Uint32(got[4*i:]) != ref[i] {
			failed += int(n / elems)
		}
	}
	return failed, nil
}

// progPipeRW is program 2: write one byte into a pipe and read it
// back. The byte is the seeded pattern's first byte plus the loop
// counter, so a stale or lost byte is caught on the iteration it
// happens.
func progPipeRW(b *asmkit.Builder, n int32) {
	unixCall(b, unixemu.SysPipe) // D0 = read fd, D1 = write fd
	b.MoveL(m68k.D(0), m68k.D(6))
	b.MoveL(m68k.D(1), m68k.D(7))
	progMark(b)
	b.MoveL(m68k.Imm(n), m68k.D(5))
	b.Label("loop")
	stampByte(b)
	rw(b, unixemu.SysWrite, m68k.D(7), addrOut, 1)
	rw(b, unixemu.SysRead, m68k.D(6), addrBufB, 1)
	b.MoveB(m68k.Abs(addrOut), m68k.D(4))
	expectEqual(b, 1, m68k.Abs(addrBufB), m68k.D(4))
	b.SubL(m68k.Imm(1), m68k.D(5))
	b.Bne("loop")
	progMark(b)
	progExit(b)
}

// progFileRW is program 5: rewind, write 1 KB, rewind, read 1 KB on a
// memory-resident file. The first long of the source is stamped with
// the loop counter so every read must return that iteration's data.
func progFileRW(b *asmkit.Builder, n int32) {
	b.MoveL(m68k.Imm(addrNameFile), m68k.D(1))
	unixCall(b, unixemu.SysOpen)
	b.MoveL(m68k.D(0), m68k.D(6))
	progMark(b)
	b.MoveL(m68k.Imm(n), m68k.D(5))
	b.Label("loop")
	b.MoveL(m68k.D(5), m68k.Abs(addrBufA))
	seek := func() {
		b.MoveL(m68k.D(6), m68k.D(1))
		b.MoveL(m68k.Imm(0), m68k.D(2))
		unixCall(b, unixemu.SysLseek)
	}
	seek()
	rw(b, unixemu.SysWrite, m68k.D(6), addrBufA, 1024)
	seek()
	rw(b, unixemu.SysRead, m68k.D(6), addrBufB, 1024)
	expectEqual(b, 4, m68k.Abs(addrBufB), m68k.D(5))
	b.MoveL(m68k.Abs(addrBufA+1020), m68k.D(4))
	expectEqual(b, 4, m68k.Abs(addrBufB+1020), m68k.D(4))
	b.SubL(m68k.Imm(1), m68k.D(5))
	b.Bne("loop")
	progMark(b)
	b.MoveL(m68k.D(6), m68k.D(1))
	unixCall(b, unixemu.SysClose)
	progExit(b)
}

// checkFileRW: after the last iteration the whole kilobyte read back
// must equal the kilobyte written.
func checkFileRW(m *m68k.Machine) error {
	if !bytes.Equal(m.PeekBytes(addrBufA, 1024), m.PeekBytes(addrBufB, 1024)) {
		return fmt.Errorf("the last 1 KB read back differs from the 1 KB written")
	}
	return nil
}

// progOpenClose is program 7: open /dev/tty (which synthesizes the
// descriptor's read and write routines) and close it.
func progOpenClose(b *asmkit.Builder, n int32) {
	progMark(b)
	b.MoveL(m68k.Imm(n), m68k.D(5))
	b.Label("loop")
	b.MoveL(m68k.Imm(addrNameTTY), m68k.D(1))
	unixCall(b, unixemu.SysOpen)
	b.TstL(m68k.D(0))
	b.Bpl("opened")
	b.AddL(m68k.Imm(1), m68k.Abs(addrFail))
	b.Label("opened")
	b.MoveL(m68k.D(0), m68k.D(1))
	unixCall(b, unixemu.SysClose)
	expect(b, 0)
	b.SubL(m68k.Imm(1), m68k.D(5))
	b.Bne("loop")
	progMark(b)
	progExit(b)
}

const sockPayload = 64

// progSockEcho bounces one 64-byte datagram 5 -> 9 -> 5 between two
// loopback sockets of one machine. The first long carries the loop
// counter round the whole trip.
func progSockEcho(b *asmkit.Builder, n int32) {
	sock := func(local, remote int32, keep uint8) {
		b.MoveL(m68k.Imm(local), m68k.D(1))
		b.MoveL(m68k.Imm(remote), m68k.D(2))
		unixCall(b, unixemu.SysSocket)
		b.MoveL(m68k.D(0), m68k.D(keep))
	}
	sock(5, 9, 6)
	sock(9, 5, 7)
	progMark(b)
	b.MoveL(m68k.Imm(n), m68k.D(5))
	b.Label("loop")
	b.MoveL(m68k.D(5), m68k.Abs(addrBufA))
	rw(b, unixemu.SysWrite, m68k.D(6), addrBufA, sockPayload)
	rw(b, unixemu.SysRead, m68k.D(7), addrBufB, sockPayload)
	rw(b, unixemu.SysWrite, m68k.D(7), addrBufB, sockPayload)
	rw(b, unixemu.SysRead, m68k.D(6), addrBufC, sockPayload)
	expectEqual(b, 4, m68k.Abs(addrBufC), m68k.D(5))
	b.SubL(m68k.Imm(1), m68k.D(5))
	b.Bne("loop")
	progMark(b)
	progExit(b)
}

func checkSockEcho(m *m68k.Machine) error {
	if !bytes.Equal(m.PeekBytes(addrBufA, sockPayload), m.PeekBytes(addrBufC, sockPayload)) {
		return fmt.Errorf("the last datagram came back different from the one sent")
	}
	return nil
}

// buildThreadOps sets up three kernel threads on native Synthesis
// calls: a driver, a parked victim it starts and stops, and a peer it
// pings over pipe A and whose reply it blocks for on pipe B. Every
// operation therefore costs a stop, a start, two blocks, two unblocks
// and two context switches.
func buildThreadOps(r *rig, tr *tracer, n int32) (*kernel.Thread, func() (int, error)) {
	k := r.k
	sys := func(b *asmkit.Builder, fn int32, d1 int32) {
		b.MoveL(m68k.Imm(fn), m68k.D(0))
		b.MoveL(m68k.Imm(d1), m68k.D(1))
		b.Trap(kernel.TrapSys)
	}
	// Native descriptor I/O: buffer in D1, length in D2, trap
	// TrapRead/TrapWrite + fd.
	io := func(b *asmkit.Builder, trap int, fd int, buf uint32) {
		b.MoveL(m68k.Imm(int32(buf)), m68k.D(1))
		b.MoveL(m68k.Imm(1), m68k.D(2))
		b.Trap(uint8(trap + fd))
		expect(b, 1)
	}

	vb := asmkit.New()
	vb.Label("spin").Nop().Bra("spin")
	victim := k.SpawnKernelStopped("victim", r.link(tr, "victim", vb))

	db := asmkit.New()
	progMark(db)
	db.MoveL(m68k.Imm(n), m68k.D(5))
	db.Label("loop")
	sys(db, kernel.SysStart, int32(victim.TTE))
	sys(db, kernel.SysStop, int32(victim.TTE))
	stampByte(db)
	io(db, kernel.TrapWrite, 0, addrOut)
	io(db, kernel.TrapRead, 1, addrBufB)
	db.MoveB(m68k.Abs(addrOut), m68k.D(4))
	db.AddL(m68k.Imm(1), m68k.D(4))
	expectEqual(db, 1, m68k.Abs(addrBufB), m68k.D(4)) // the peer answers byte+1
	db.SubL(m68k.Imm(1), m68k.D(5))
	db.Bne("loop")
	progMark(db)
	sys(db, kernel.SysExit, 0)

	pb := asmkit.New()
	pb.MoveL(m68k.Imm(n), m68k.D(5))
	pb.Label("loop")
	io(pb, kernel.TrapRead, 0, addrBufC)
	pb.AddL(m68k.Imm(1), m68k.Abs(addrPeerCnt))
	pb.MoveB(m68k.Abs(addrBufC), m68k.D(4))
	pb.AddL(m68k.Imm(1), m68k.D(4))
	pb.MoveB(m68k.D(4), m68k.Abs(addrBufC))
	io(pb, kernel.TrapWrite, 1, addrBufC)
	pb.SubL(m68k.Imm(1), m68k.D(5))
	pb.Bne("loop")
	sys(pb, kernel.SysExit, 0)

	driver := k.SpawnKernel("driver", r.link(tr, "driver", db))
	peer := k.SpawnKernel("peer", r.link(tr, "peer", pb))
	pa, pbk := r.io.NewPipe(kio.DefaultPipeBytes), r.io.NewPipe(kio.DefaultPipeBytes)
	fds := []int32{
		r.io.OpenPipeEnd(driver, pa, true), r.io.OpenPipeEnd(driver, pbk, false),
		r.io.OpenPipeEnd(peer, pa, false), r.io.OpenPipeEnd(peer, pbk, true),
	}
	return driver, func() (int, error) {
		if fds[0] != 0 || fds[1] != 1 || fds[2] != 0 || fds[3] != 1 {
			return 0, fmt.Errorf("pipe ends landed on descriptors %v, want [0 1 0 1]", fds)
		}
		failed := int(k.M.Peek(addrFail, 4))
		if pings := int32(k.M.Peek(addrPeerCnt, 4)); pings != n {
			return failed, fmt.Errorf("peer answered %d pings, want %d", pings, n)
		}
		return failed, nil
	}
}
