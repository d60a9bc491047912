package bench

import (
	"fmt"

	"synthesis/internal/asmkit"
	"synthesis/internal/m68k"
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

// svcCount is the KCALL id of the instruction-counter probe.
const svcCount = 121

// kcallProbeInstrs is the per-probe cost: a KCALL expands to two
// instructions, and consecutive samples straddle exactly one probe.
const kcallProbeInstrs = 2

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
// unmeasured warm-up exchange, then pathRounds rounds of
// probe-write-probe and probe-read-probe.
func buildSockPath(b *asmkit.Builder) {
	sockPair(b)
	sockWrite(b)
	sockRead(b)
	for i := 0; i < pathRounds; i++ {
		b.Kcall(svcCount)
		sockWrite(b)
		b.Kcall(svcCount)
		b.Kcall(svcCount)
		sockRead(b)
		b.Kcall(svcCount)
	}
	progExit(b)
}

// buildSockOpen emits the open-cost program: one marked socket call.
func buildSockOpen(b *asmkit.Builder) {
	mark(b)
	sockOpen(b, 5, 9)
	mark(b)
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

// runCounted builds and runs a program with the instruction-counter
// probe registered and returns the sampled instruction counts.
func runCounted(r Rig, budget uint64, build func(*asmkit.Builder)) ([]uint64, error) {
	m := r.Machine()
	var samples []uint64
	m.RegisterService(svcCount, func(mm *m68k.Machine) uint64 {
		samples = append(samples, mm.Instrs)
		return 0
	})
	b := asmkit.New()
	build(b)
	entry := b.Link(m)
	if err := r.Run(entry, budget); err != nil {
		return nil, fmt.Errorf("%s: %w", r.Name(), err)
	}
	return samples, nil
}

// pathMins reduces the probe samples to (send, recv) instruction
// counts, taking the minimum over the rounds.
func pathMins(samples []uint64) (send, recv float64, err error) {
	if len(samples) != 4*pathRounds {
		return 0, 0, fmt.Errorf("table6: %d probe samples, want %d", len(samples), 4*pathRounds)
	}
	minDelta := func(off int) float64 {
		best := ^uint64(0)
		for i := 0; i < pathRounds; i++ {
			d := samples[4*i+off+1] - samples[4*i+off]
			if d < best {
				best = d
			}
		}
		return float64(best - kcallProbeInstrs)
	}
	return minDelta(0), minDelta(2), nil
}

// Table6 regenerates the network socket comparison.
func Table6() (Table, error) {
	t := Table{
		Title: "Table 6: Network loopback sockets, synthesized vs generic layers",
		Note: "128-byte datagrams between a loopback port pair, identical binaries;\n" +
			"synthesized send counts include the receive interrupt and queue deposit",
	}

	// Path lengths: exact instruction counts on both kernels.
	sSamp, err := runCounted(NewSynthRig(), 2_000_000_000, buildSockPath)
	if err != nil {
		return t, err
	}
	sSend, sRecv, err := pathMins(sSamp)
	if err != nil {
		return t, err
	}
	uSamp, err := runCounted(NewSunRig(), 2_000_000_000, buildSockPath)
	if err != nil {
		return t, err
	}
	uSend, uRecv, err := pathMins(uSamp)
	if err != nil {
		return t, err
	}
	t.Rows = append(t.Rows,
		Row{Name: "send 128 B, synthesized path", Measured: sSend, Unit: "instr",
			Note: "folded ports + collapsed header; includes rx interrupt + deposit"},
		Row{Name: "send 128 B, generic sunos path", Measured: uSend, Unit: "instr",
			Note: "getf + table-scan demux + sleep lock + header layer + bcopy + wakeup"},
		Row{Name: "recv 128 B, synthesized path", Measured: sRecv, Unit: "instr",
			Note: "optimistic flag check, no lock"},
		Row{Name: "recv 128 B, generic sunos path", Measured: uRecv, Unit: "instr",
			Note: "sleep lock + header validation layer + bcopy + wakeup"},
		Row{Name: "send path ratio (generic/synthesized)", Measured: uSend / sSend, Unit: "x", Note: ""},
		Row{Name: "recv path ratio (generic/synthesized)", Measured: uRecv / sRecv, Unit: "x", Note: ""},
	)

	// Socket open: the synthesized side pays for code generation here.
	sOpen, err := runMarks(NewSynthRig(), 2_000_000_000, 1, buildSockOpen)
	if err != nil {
		return t, err
	}
	uOpen, err := runMarks(NewSunRig(), 2_000_000_000, 1, buildSockOpen)
	if err != nil {
		return t, err
	}
	t.Rows = append(t.Rows,
		Row{Name: "socket open, synthesized", Measured: sOpen[0], Unit: "usec",
			Note: "charged synthesis of send/recv; the demux cell patch is charged 8 cycles, the per-instruction part"},
		Row{Name: "socket open, generic sunos", Measured: uOpen[0], Unit: "usec",
			Note: "table scans + falloc only"},
	)

	// Loopback throughput: interleaved send/recv exchanges.
	const iters = 200
	bounce := func(b *asmkit.Builder) { buildSockBounce(b, iters) }
	s, err := runMarks(NewSynthRig(), 4_000_000_000, 1, bounce)
	if err != nil {
		return t, err
	}
	u, err := runMarks(NewSunRig(), 4_000_000_000, 1, bounce)
	if err != nil {
		return t, err
	}
	sUS, uUS := s[0], u[0]
	sFPS := float64(iters) * 1e6 / sUS
	uFPS := float64(iters) * 1e6 / uUS
	t.Rows = append(t.Rows,
		Row{Name: "loopback throughput, synthesized", Measured: sFPS, Unit: "fr/s",
			Note: fmt.Sprintf("%.1f usec per exchange incl. NIC DMA + interrupt", sUS/iters)},
		Row{Name: "loopback throughput, generic sunos", Measured: uFPS, Unit: "fr/s",
			Note: fmt.Sprintf("%.1f usec per exchange, no NIC in the path", uUS/iters)},
		Row{Name: "throughput ratio (synthesized/generic)", Measured: sFPS / uFPS, Unit: "x", Note: ""},
	)
	return t, nil
}
