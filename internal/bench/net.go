package bench

import (
	"fmt"

	"synthesis/internal/asmkit"
	"synthesis/internal/fault"
	"synthesis/internal/kernel"
	"synthesis/internal/kio"
	"synthesis/internal/m68k"
	"synthesis/internal/metrics"
	"synthesis/internal/unixemu"
)

// Table 6: network loopback sockets, the synthesized Synthesis path
// against the generic layered baseline. The paper stops its published
// tables at the interrupt handlers; this table extends the same
// discipline to the network subsystem the text describes — per-socket
// send/receive synthesized at open time (port numbers, buffer bases
// and ring geometry folded in, the frame-header layer collapsed into
// the copy setup) versus the traditional stack that re-validates the
// descriptor, demultiplexes by table scan and locks the ring on every
// call.
//
// The same benchmark binary runs on both kernels through the UNIX
// trap convention (socket is call 97). Path lengths are exact
// instruction counts from the Quamachine's counter; on Synthesis the
// send count INCLUDES the loopback receive interrupt and its deposit
// into the destination socket's optimistic queue (the NIC delivers
// cut-through, so the handler runs inside the send call), while the
// NIC-less baseline deposits directly into the peer's ring and pays
// no interrupt at all — the comparison flatters the baseline.

// netPayload is the datagram size for the Table 6 measurements.
const netPayload = 128

// sockOpen emits socket(local, remote) through the UNIX trap.
func sockOpen(b *asmkit.Builder, local, remote int32) {
	b.MoveL(m68k.Imm(local), m68k.D(1))
	b.MoveL(m68k.Imm(remote), m68k.D(2))
	unixCall(b, unixemu.SysSocket)
}

// sockWrite emits write(D6, addrBufA, netPayload). Arguments are
// reloaded every call: UNIX syscalls do not preserve D1-D3.
func sockWrite(b *asmkit.Builder) {
	b.MoveL(m68k.D(6), m68k.D(1))
	b.MoveL(m68k.Imm(addrBufA), m68k.D(2))
	b.MoveL(m68k.Imm(netPayload), m68k.D(3))
	unixCall(b, unixemu.SysWrite)
}

// sockRead emits read(D7, addrBufB, netPayload).
func sockRead(b *asmkit.Builder) {
	b.MoveL(m68k.D(7), m68k.D(1))
	b.MoveL(m68k.Imm(addrBufB), m68k.D(2))
	b.MoveL(m68k.Imm(netPayload), m68k.D(3))
	unixCall(b, unixemu.SysRead)
}

// sockPair opens the loopback pair 5<->9 and parks the descriptors in
// D6 (sender) and D7 (receiver).
func sockPair(b *asmkit.Builder) {
	sockOpen(b, 5, 9)
	b.MoveL(m68k.D(0), m68k.D(6))
	sockOpen(b, 9, 5)
	b.MoveL(m68k.D(0), m68k.D(7))
}

// pathRounds is how many bracketed send/recv pairs the path-length
// program performs; the minimum filters out any quantum interrupt
// that happens to land inside a bracket.
const pathRounds = 3

// buildSockPath emits the path-length program: open the pair, one
// unmeasured warm-up exchange, then pathRounds rounds of a marked
// write and a marked read.
func buildSockPath(b *asmkit.Builder) {
	sockPair(b)
	sockWrite(b)
	sockRead(b)
	for i := 0; i < pathRounds; i++ {
		mark(b)
		sockWrite(b)
		mark(b)
		mark(b)
		sockRead(b)
		mark(b)
	}
	progExit(b)
}

// buildSockBounce emits the throughput program: iters interleaved
// send/recv exchanges between the marks.
func buildSockBounce(b *asmkit.Builder, iters int32) {
	sockPair(b)
	sockWrite(b) // warm-up
	sockRead(b)
	mark(b)
	b.MoveL(m68k.Imm(iters), m68k.D(5))
	b.Label("loop")
	sockWrite(b)
	sockRead(b)
	b.SubL(m68k.Imm(1), m68k.D(5))
	b.Bne("loop")
	mark(b)
	progExit(b)
}

func table6(mt *meter) []Row {
	// Path lengths: exact instruction counts on both kernels.
	sSend, sRecv := mt.fewest(synthRig(), buildSockPath)
	uSend, uRecv := mt.fewest(NewSunRig(), buildSockPath)
	// Socket open: the synthesized side pays for code generation here.
	open := bracket(0, func(b *asmkit.Builder) { sockOpen(b, 5, 9) })
	sOpen, uOpen := mt.one(synthRig(), open), mt.one(NewSunRig(), open)
	// Loopback throughput: interleaved send/recv exchanges.
	const iters = 200
	bounce := func(b *asmkit.Builder) { buildSockBounce(b, iters) }
	sUS, uUS := mt.one(synthRig(), bounce), mt.one(NewSunRig(), bounce)
	sFPS := float64(iters) * 1e6 / sUS
	uFPS := float64(iters) * 1e6 / uUS
	return []Row{
		{"send 128 B, synthesized path", 0, sSend, "instr", "folded ports + collapsed header; includes rx interrupt + deposit"},
		{"send 128 B, generic sunos path", 0, uSend, "instr", "getf + table-scan demux + sleep lock + header layer + bcopy + wakeup"},
		{"recv 128 B, synthesized path", 0, sRecv, "instr", "optimistic flag check, no lock"},
		{"recv 128 B, generic sunos path", 0, uRecv, "instr", "sleep lock + header validation layer + bcopy + wakeup"},
		{"send path ratio (generic/synthesized)", 0, uSend / sSend, "x", ""},
		{"recv path ratio (generic/synthesized)", 0, uRecv / sRecv, "x", ""},
		{"socket open, synthesized", 0, sOpen, "usec",
			"charged synthesis of send/recv; the demux cell patch is charged 8 cycles, the per-instruction part"},
		{"socket open, generic sunos", 0, uOpen, "usec", "table scans + falloc only"},
		{"loopback throughput, synthesized", 0, sFPS, "fr/s",
			fmt.Sprintf("%.1f usec per exchange incl. NIC DMA + interrupt", sUS/iters)},
		{"loopback throughput, generic sunos", 0, uFPS, "fr/s",
			fmt.Sprintf("%.1f usec per exchange, no NIC in the path", uUS/iters)},
		{"throughput ratio (synthesized/generic)", 0, sFPS / uFPS, "x", ""},
	}
}

// Table 7: the Synthesis network path under injected faults. The
// paper's tables stop at the fast path; this one measures the
// recovery plane — throughput and recovery latency against frame-loss
// rate on a lossy loopback wire, and the watchdog's reaction time to
// an IRQ storm. Every fault is drawn from a seeded schedule, so the
// whole table replays exactly.
//
// The loss runs drive a stop-and-wait ARQ in the benchmark binary
// itself: the NIC reports ring backpressure but silent wire loss is
// invisible to the transmitter, so the program detects a lost
// datagram by watching the destination socket's deposit gauge (the
// cut-through loopback delivers before the send call returns) and
// retransmits until the frame lands. Recovery latency is the extra
// time per lost frame relative to the loss-free run of the identical
// binary.

// Data cells for the ARQ program, after the name strings.
const (
	addrQBase = 0xA040 // receive socket's packet-queue base
	addrRetx  = 0xA044 // retransmission counter
)

// lossRates are the frame-loss probabilities the table sweeps.
var lossRates = []float64{0, 0.10, 0.20, 0.30}

// buildSockARQ emits the lossy-wire program: open the loopback pair,
// then iters datagrams under stop-and-wait ARQ between the marks.
func buildSockARQ(b *asmkit.Builder, iters int32) {
	sockPair(b)
	// A2 = the receive socket's packet queue, read from the
	// descriptor's Aux cell in the current TTE; parked in a memory
	// cell because system calls do not preserve address registers.
	b.MoveL(m68k.Abs(kernel.GCurTTE), m68k.A(0))
	b.MoveL(m68k.D(7), m68k.D(0))
	b.LslL(m68k.Imm(5), m68k.D(0)) // * FDSlotSize
	b.AddL(m68k.Imm(int32(kernel.TTEFDBase+kernel.FDAux)), m68k.D(0))
	b.MoveL(m68k.Idx(0, 0, 0, 1), m68k.A(2))
	b.MoveL(m68k.A(2), m68k.Abs(addrQBase))
	b.Clr(4, m68k.Abs(addrRetx))
	mark(b)
	b.MoveL(m68k.Imm(iters), m68k.D(5))
	b.Label("loop")
	// Remember the deposit gauge, send, and compare: an unchanged
	// gauge means the wire ate the frame — count and retransmit.
	b.MoveL(m68k.Abs(addrQBase), m68k.A(2))
	b.MoveL(m68k.Disp(kio.NQHead, 2), m68k.D(4))
	b.Label("try")
	sockWrite(b)
	b.MoveL(m68k.Abs(addrQBase), m68k.A(2))
	b.MoveL(m68k.Disp(kio.NQHead, 2), m68k.D(0))
	b.Cmp(4, m68k.D(4), m68k.D(0))
	b.Bne("arrived")
	b.AddL(m68k.Imm(1), m68k.Abs(addrRetx))
	b.Bra("try")
	b.Label("arrived")
	sockRead(b)
	b.SubL(m68k.Imm(1), m68k.D(5))
	b.Bne("loop")
	mark(b)
	progExit(b)
}

func table7(mt *meter) (rows []Row) {
	const iters, seed = 200, 1
	var baseUS float64
	for i, rate := range lossRates {
		r := synthRig()
		inj := fault.New(fault.Plan{Wire: fault.Wire{Drop: rate}}, seed+int64(i))
		inj.Attach(r.Machine())
		us := mt.one(r, func(b *asmkit.Builder) { buildSockARQ(b, iters) })
		retx, st := r.Machine().Peek(addrRetx, 4), inj.Stats
		if rate == 0 {
			baseUS = us
		}
		recovery := 0.0
		if retx > 0 {
			recovery = (us - baseUS) / float64(retx)
		}
		rows = append(rows,
			Row{fmt.Sprintf("throughput @ %2.0f%% frame loss", rate*100), 0, float64(iters) * 1e6 / us, "fr/s",
				fmt.Sprintf("%d frames, %d retransmits, wire dropped %d/%d", iters, retx, st.Dropped, st.Frames)},
			Row{fmt.Sprintf("recovery latency @ %2.0f%% frame loss", rate*100), 0, recovery, "usec",
				"per lost frame, detect + retransmit"})
	}
	engage, release := stormRecovery(mt, seed)
	return append(rows,
		Row{"IRQ-storm throttle engage", 0, engage, "usec", "first scream to coalescing handler installed"},
		Row{"IRQ-storm throttle release", 0, release, "usec", "last scream to plain handler restored"})
}

// StormThreshold is the watchdog's storm threshold, in handler
// entries per window, that Table 7 measures. Each entry costs ~150
// cycles, which caps a storm near 50 entries per 500us window
// regardless of its gap, so the threshold sits below that.
const StormThreshold = 32

// stormRecovery measures the watchdog's reaction to an IRQ storm on
// the NIC level: cycles from the first scream to the coalescing
// throttle engaging, and from the last scream to the throttle
// releasing.
func stormRecovery(mt *meter, seed int64) (engageUS, releaseUS float64) {
	r := synthRig()
	m := r.Machine()
	const (
		stormGap   = 80   // cycles between screams: ~100 entries per 500us window
		stormCount = 2000 // 160k cycles of scream
	)
	stormAt := m.Cycles + 20_000
	stormEnd := stormAt + stormCount*stormGap
	fault.New(fault.Plan{Storms: []fault.Storm{
		{Level: m68k.IRQNet, At: stormAt, Count: stormCount, Gap: stormGap},
	}}, seed).Attach(m)
	wd := r.IO.InstallWatchdog(StormThreshold)

	// The foreground program just burns cycles long enough for the
	// storm to run its course and the release window to pass.
	mt.run(r, 0, func(b *asmkit.Builder) {
		b.MoveL(m68k.Imm(200_000), m68k.D(5))
		b.Label("spin")
		b.SubL(m68k.Imm(1), m68k.D(5))
		b.Bne("spin")
		progExit(b)
	})
	var onAt, offAt uint64
	for _, ev := range wd.Events {
		switch {
		case ev.Kind == "throttle-on" && onAt == 0:
			onAt = ev.Cycle
		case ev.Kind == "throttle-off" && offAt == 0:
			offAt = ev.Cycle
		}
	}
	if onAt == 0 || offAt == 0 {
		mt.fail(fmt.Errorf("table7: watchdog events = %v, want throttle-on then throttle-off", wd.Events))
		return 0, 0
	}
	return float64(onAt-stormAt) / m.ClockMHz, float64(offAt-stormEnd) / m.ClockMHz
}

// Table "proc": the guest-visible metrics quaject. A guest program
// opens /proc/metrics through the UNIX emulator and reads the kernel's
// own observability snapshot; the table compares the per-open
// synthesized read (buffer address and length folded in as constants,
// unrolled copy spliced inline) against the generic layered
// instantiation of the SAME template (both holes bound to descriptor
// cells, the block transfer behind a jsr into a byte-loop bcopy).
// Both descriptors serve the identical snapshot buffer, so the path
// difference is purely Factoring Invariants + Collapsing Layers.
//
// Unlike the other tables this one boots only the Synthesis rig, with
// a metrics registry attached: the baseline here is not the SUNOS
// kernel (which has no /proc) but the generic shape of the same read.

// procChunk is the read size for the path-length rows: fixed so the
// copy cost is identical no matter how large the snapshot is.
const procChunk = 256

// svcProcGeneric is the KCALL id of the host hook that installs the
// generic twin descriptor (120 is pathlen's competing processor).
const svcProcGeneric = 122

// procRead emits read(fd in D<fdReg>, addrBufB, procChunk).
func procRead(b *asmkit.Builder, fdReg uint8) {
	b.MoveL(m68k.D(fdReg), m68k.D(1))
	b.MoveL(m68k.Imm(addrBufB), m68k.D(2))
	b.MoveL(m68k.Imm(procChunk), m68k.D(3))
	unixCall(b, unixemu.SysRead)
}

// procSeek emits lseek(fd in D<fdReg>, 0): rewind to the snapshot's
// start so every measured read copies the same procChunk bytes.
func procSeek(b *asmkit.Builder, fdReg uint8) {
	b.MoveL(m68k.D(fdReg), m68k.D(1))
	b.MoveL(m68k.Imm(0), m68k.D(2))
	unixCall(b, unixemu.SysLseek)
}

// buildProcPath emits the path-length program: open /proc/metrics
// (descriptor in D6), ask the host hook for the generic twin (D7),
// one unmeasured warm-up read on each, then pathRounds rounds of a
// rewind and a marked read on each path, synthesized first.
func buildProcPath(b *asmkit.Builder) {
	b.MoveL(m68k.Imm(addrNameProc), m68k.D(1))
	unixCall(b, unixemu.SysOpen)
	b.MoveL(m68k.D(0), m68k.D(6))
	b.Kcall(svcProcGeneric) // host installs the generic twin -> D7
	procRead(b, 6)
	procRead(b, 7)
	for i := 0; i < pathRounds; i++ {
		procSeek(b, 6)
		mark(b)
		procRead(b, 6)
		mark(b)
		procSeek(b, 7)
		mark(b)
		procRead(b, 7)
		mark(b)
	}
	progExit(b)
}

// hookProcGeneric registers the KCALL service that installs the
// generic twin of the snapshot descriptor the guest just opened (fd
// in D6); the new descriptor comes back in D7.
func hookProcGeneric(r *SynthRig) {
	r.K.M.RegisterService(svcProcGeneric, func(mm *m68k.Machine) uint64 {
		var bt *kernel.Thread
		for th := range r.K.Threads() {
			if th.Name == "bench" {
				bt = th
			}
		}
		if bt == nil {
			mm.D[7] = ^uint32(0)
			return 0
		}
		mm.D[7] = uint32(r.IO.SynthGenericProcRead(bt, int32(mm.D[6])))
		return 0
	})
}

func tableProc(mt *meter) []Row {
	r := NewSynthRig(kernel.Config{Metrics: metrics.New()})
	hookProcGeneric(r)
	spec, gen := mt.fewest(r, buildProcPath)
	if n := len(r.IO.ProcLast()); n < procChunk {
		mt.fail(fmt.Errorf("bench proc: snapshot only %d bytes, need >= %d", n, procChunk))
	}
	// The open cuts the snapshot, renders it, pokes the buffer and
	// synthesizes the read.
	open := mt.one(NewSynthRig(kernel.Config{Metrics: metrics.New()}), bracket(0, func(b *asmkit.Builder) {
		b.MoveL(m68k.Imm(addrNameProc), m68k.D(1))
		unixCall(b, unixemu.SysOpen)
	}))
	return []Row{
		{"read 256 B of /proc/metrics, synthesized", 0, spec, "instr", "buffer base+len folded to immediates, unrolled copy inline"},
		{"read 256 B of /proc/metrics, generic layered", 0, gen, "instr", "base+len via descriptor cells, byte-loop bcopy behind a jsr"},
		{"read path ratio (generic/synthesized)", 0, gen / spec, "x", ""},
		{"open /proc/metrics", 0, open, "usec", "snapshot cut + render + buffer poke + charged read synthesis"},
	}
}
