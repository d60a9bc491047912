package kio

import (
	"fmt"

	"synthesis/internal/kernel"
	"synthesis/internal/m68k"
	synnet "synthesis/internal/net"
	"synthesis/internal/synth"
)

// The network device server: the Synthesis treatment of packet I/O.
// The NIC DMAs arriving frames into a kernel descriptor ring; the
// receive interrupt handler demultiplexes each frame by destination
// port and deposits it into the owning socket's packet queue. The
// handler runs masked to completion, so it is the one producer of
// every queue and the one consumer of the ring: the queue is Figure 1's
// SP-SC queue specialized to that producer (a plain read-and-advance of
// the head, no CAS), with Figure 2's per-slot valid flags kept so the
// consumer trusts only the flags. The deposit copies and sums the
// frame in one pass and publishes the slot only if the sum matches
// (Collapsing Layers: no separate verify walk). The demultiplexer is an
// executable data structure: one cell of the handler per socket table
// entry, whose compare-immediate holds the port while the entry is open
// (Factoring Invariants applied to the interrupt path itself, not a
// table walk), rewritten by the entry's open and close.
//
// A socket is an entry of one table in machine memory, [port][queue],
// the queue cell 0 while the entry is free. Each entry owns a queue
// and staging frame for the kernel's life and a free entry keeps its
// port, so a reopened port gets back its queue and the code built for it.
//
// Per-socket send and receive routines are synthesized by the socket
// open: the staging buffer, the queue base and the ring geometry are
// folded into the emitted code, and the open writes the peer ports into
// the staging frame's header once (Factoring Invariants into data, so
// no "header layer" runs at send time).

// Per-socket packet queue layout in machine memory. Head and tail are
// free-running counts; slot index = count & (NQSlotCount-1). A slot
// holds [payload length (4)][payload bytes]. The valid flags are one
// byte per slot: the producer fills the head slot, stores its flag and
// only then advances the head, and the consumer trusts nothing but the
// flag. The head is also the count of frames deposited: one counter
// per fact.
const (
	NQHead      = 0  // producer count: frames published
	NQTail      = 4  // consumer count
	NQRWait     = 8  // reader wait cell
	NQDrops     = 12 // frames dropped at a full queue, bad sum or not: room is checked before the summing copy
	NQErrs      = 16 // frames dropped on checksum mismatch
	NQTxFail    = 20 // sends abandoned after the retry budget
	NQFlags     = 24 // NQSlotCount valid-flag bytes
	NQSlots     = 32 // slot array
	NQSlotCount = 8
	NQSlotBytes = 256
	nqSize      = NQSlots + NQSlotCount*NQSlotBytes
)

// NIC receive ring geometry and socket table geometry. The cluster
// fabric paces frame delivery against NetRingSlots, and multiplexes its
// connections over at most MaxSockets guest sockets per VM. A socket
// block is the packet queue and then the staging frame, one long past
// FrameMax: the send path zero-pads the payload tail long before the
// long-wise checksum.
const (
	NetRingSlots  = 16
	netRingSlotSz = 256
	MaxSockets    = 16
	sockEntrySize = 8 // [port][queue or 0]
	sockBlockSize = nqSize + synnet.FrameMax + 4
	// The receive handler's code region, sized for its largest variant
	// (demux cells, coalescing, storm gauge, counter): rebuilds are in place.
	netIntrSlots = 152
)

// Send retry policy: a refused launch (ring full) is retried with an
// exponentially doubling unmasked spin, so the receive interrupt can
// drain the ring between attempts.
const (
	sendRetries  = 8  // launch attempts before giving up
	sendBackoff0 = 32 // first backoff spin count, doubled per retry
)

// Socket is one open socket's table entry: its local port and the
// packet queue at the head of its block (host view, for tests).
type Socket struct{ Port, Queue uint32 }

// NetSockets reads the open sockets out of the socket table, in table
// order.
func (io *IO) NetSockets() []Socket {
	var out []Socket
	for i := uint32(0); i < MaxSockets; i++ {
		e := io.netSockTab + i*sockEntrySize
		if q := io.K.M.Peek(e+4, 4); q != 0 {
			out = append(out, Socket{io.K.M.Peek(e, 4), q})
		}
	}
	return out
}

// NetStackDrops returns frames the handler discarded because no
// socket owned their destination port (host view).
func (io *IO) NetStackDrops() uint32 {
	return io.K.M.Peek(io.netDropCell, 4)
}

// installNet allocates the NIC's DMA receive ring, the socket table
// with its blocks and the receive handler's code region, programs the
// device, and synthesizes the (initially socket-less) receive handler.
func (io *IO) installNet() {
	k := io.K
	// [tail][stack-drop][storm][coalesce][socket table][demux cells][ring][socket blocks]
	const cells = 16 + MaxSockets*sockEntrySize + MaxSockets*4
	const ring = NetRingSlots * netRingSlotSz
	base, err := k.Heap.Alloc(cells + ring + MaxSockets*sockBlockSize)
	if err != nil {
		panic("kio: cannot allocate NIC receive ring")
	}
	io.netTailCell = base
	io.netDropCell = base + 4
	io.netStormCell = base + 8
	io.netCoalCell = base + 12
	io.netSockTab = base + 16
	io.netCells = io.netSockTab + MaxSockets*sockEntrySize
	io.netRing = base + cells
	io.netBlocks = base + cells + ring
	k.M.PokeBytes(base, make([]byte, cells))
	io.netCode = k.M.AllocCode(netIntrSlots)

	k.M.Store(m68k.NetBase+m68k.NetRegRxBase, 4, io.netRing)
	k.M.Store(m68k.NetBase+m68k.NetRegRxSlots, 4, NetRingSlots)
	k.M.Store(m68k.NetBase+m68k.NetRegSlotSz, 4, netRingSlotSz)
	k.M.Store(m68k.NetBase+m68k.NetRegCtl, 4, 1)

	io.registerNetMetrics()
	io.resynthNetHandler()
}

// resynthNetHandler synthesizes the receive interrupt handler into its
// code region, writes every demux cell from the socket table and
// installs the handler in every vector table: at install, on the
// watchdog's storm mode changes and on its rebuild of a wedged handler.
// When the watchdog has engaged the storm throttle, a coalescing
// front-end is prepended: only every netCoalesce-th interrupt runs the
// drain, so a screaming level costs three instructions per scream
// instead of a full drain attempt.
func (io *IO) resynthNetHandler() {
	k := io.K
	tailCell := io.netTailCell
	dropCell := io.netDropCell
	ring := io.netRing
	rxHead := m68k.NetBase + m68k.NetRegRxHead
	rxTail := m68k.NetBase + m68k.NetRegRxTail
	coalesce := io.netCoalesce

	cells := make([]string, MaxSockets)
	for i := range cells {
		cells[i] = fmt.Sprint("nd_c", i)
	}
	b := k.C.Build(nil, "net_intr").Named("kio.net_intr").Counted().
		At(io.netCode, netIntrSlots).Table(io.netCells, cells)
	h := b.Emit(func(e *synth.Emitter) {
		// Run to completion: the mask keeps the higher-level device
		// handlers, whose wakes also splice the ready ring, from nesting
		// inside the drain's wake and ready-ring insert. The quantum
		// (IRQTimer, the lowest level) is masked from entry on: one that
		// expires during the drain stays pending until the RTE restores
		// IPL 0 and is taken from thread context right after.
		e.OrSR(kernel.SRIPLMask)
		e.MovemSave(m68k.MovemIntrRegs, m68k.PreDec(7))
		if io.netWD != nil {
			// Watchdog storm gauge: one count per handler entry.
			e.AddL(m68k.Imm(1), m68k.Abs(io.netStormCell))
		}
		if coalesce > 0 {
			e.AddL(m68k.Imm(1), m68k.Abs(io.netCoalCell))
			e.MoveL(m68k.Abs(io.netCoalCell), m68k.D(0))
			e.AndL(m68k.Imm(int32(coalesce-1)), m68k.D(0))
			e.Beq("nd_drain")
			e.Bra("nd_done")
		}

		// Drain every frame the NIC has DMA'd: one interrupt covers a
		// whole delivery batch. No other activation can be walking the
		// ring (TestNetIntrOneActivationEnumerated), so the tail is a
		// plain count: read here, and advanced and handed to the NIC
		// only once its slot has been copied out.
		e.Label("nd_drain")
		e.MoveL(m68k.Abs(tailCell), m68k.D(0))
		e.Cmp(4, m68k.Abs(rxHead), m68k.D(0))
		e.Beq("nd_done")
		// A0 = ring slot for this frame: base + (count & mask)*slotSz.
		e.AndL(m68k.Imm(NetRingSlots-1), m68k.D(0))
		e.LslL(m68k.Imm(8), m68k.D(0)) // * netRingSlotSz
		e.Lea(m68k.Abs(ring), 0)
		e.AddL(m68k.D(0), m68k.A(0))
		// Demultiplex on the destination port in the frame header.
		e.MoveL(m68k.Disp(4, 0), m68k.D(1)) // dst port
		// The "port table" is these cells, cmp.l #port,d1 and beq to
		// the block that loads the entry's queue. The compares are placeholders: demuxCell writes
		// every cell from the socket table once it is installed.
		for _, c := range cells {
			e.Label(c)
			e.CmpL(m68k.Imm(0), m68k.D(1))
			e.Beq(c + "q")
		}
		e.AddL(m68k.Imm(1), m68k.Abs(dropCell)) // nobody home
		e.Bra("nd_next")
		// Entry 0's block, the one a lone socket takes, falls through
		// into the deposit.
		for i := MaxSockets - 1; i >= 0; i-- {
			e.Label(cells[i] + "q")
			e.Lea(m68k.Abs(io.netBlocks+uint32(i)*sockBlockSize), 2)
			e.Bra("nd_dep")
		}

		// Shared deposit block: A0 = ring slot, A2 = socket queue. The
		// SP-SC put of Figure 1: a full queue drops the frame whatever
		// its sum; otherwise the frame is copied into the head slot and
		// summed in the same pass, and the slot is published (flag,
		// then head + 1) only if the sum matches the header's. A
		// corrupt frame is counted on the owning socket and leaves the
		// slot unpublished, for the next frame to overwrite.
		e.Label("nd_dep")
		e.MoveL(m68k.Disp(NQHead, 2), m68k.D(1))
		e.MoveL(m68k.D(1), m68k.D(2))
		e.SubL(m68k.Disp(NQTail, 2), m68k.D(2))
		e.CmpL(m68k.Imm(NQSlotCount), m68k.D(2))
		e.Bcc("nd_full")
		// A1 = the head slot; the copy strips the header, starting past
		// [len][dst][src][sum].
		e.AndL(m68k.Imm(NQSlotCount-1), m68k.D(1))
		e.LslL(m68k.Imm(8), m68k.D(1)) // * NQSlotBytes
		e.Lea(m68k.Disp(NQSlots, 2), 1)
		e.AddL(m68k.D(1), m68k.A(1))
		e.MoveL(m68k.Ind(0), m68k.D(1)) // frame length
		e.SubL(m68k.Imm(synnet.HeaderBytes), m68k.D(1))
		e.MoveL(m68k.D(1), m68k.PostInc(1))          // slot payload length
		e.MoveL(m68k.Disp(4+8, 0), m68k.PreDec(7))   // header checksum
		e.Lea(m68k.Disp(4+synnet.HeaderBytes, 0), 0) // payload
		emitCopy(e, sumCopy, 0)
		e.Cmp(4, m68k.PostInc(7), m68k.D(2))
		e.Bne("nd_bad")
		// Publish: the flag makes the slot visible, then the head moves.
		e.MoveL(m68k.Disp(NQHead, 2), m68k.D(1))
		e.AndL(m68k.Imm(NQSlotCount-1), m68k.D(1))
		e.MoveB(m68k.Imm(1), m68k.Idx(NQFlags, 2, 1, 1)) // flags[index] = 1
		e.AddL(m68k.Imm(1), m68k.Disp(NQHead, 2))
		// "A waiting thread's unblocking procedure is chained to the
		// end of the interrupt handling."
		emitWake(e, k, m68k.Disp(NQRWait, 2), "nd_next")
		e.Bra("nd_next")
		e.Label("nd_bad")
		e.AddL(m68k.Imm(1), m68k.Disp(NQErrs, 2))
		e.Bra("nd_next")
		e.Label("nd_full")
		e.AddL(m68k.Imm(1), m68k.Disp(NQDrops, 2))

		// Return the slot to the NIC: advance the tail and publish it.
		e.Label("nd_next")
		e.AddL(m68k.Imm(1), m68k.Abs(tailCell))
		e.MoveL(m68k.Abs(tailCell), m68k.Abs(rxTail))
		e.Bra("nd_drain")

		e.Label("nd_done")
		e.MovemRest(m68k.PostInc(7), m68k.MovemIntrRegs)
		e.Rte()
	})
	for i := range uint32(MaxSockets) {
		k.M.PatchCode(io.demuxCell(i))
	}
	k.SetVector(m68k.VecAutovector+m68k.IRQNet, h)
}

// demuxCell returns entry i's demux cell and the instruction the
// socket table puts there: the compare against the entry's port while
// it is open, a branch over the cell's beq to the next cell while it is
// free. An open or close patches the one slot inside its KCALL, so the
// masked handler never sees half of it.
func (io *IO) demuxCell(i uint32) (uint32, m68k.Instr) {
	m := io.K.M
	cell := m.Peek(io.netCells+4*i, 4)
	e := io.netSockTab + i*sockEntrySize
	if m.Peek(e+4, 4) == 0 {
		return cell, m68k.Instr{Op: m68k.BRA, Dst: m68k.Abs(cell + 2)}
	}
	return cell, m68k.Instr{Op: m68k.CMP, Sz: 4, Src: m68k.Imm(int32(m.Peek(e, 4))), Dst: m68k.D(1)}
}

// OpenSocket binds a datagram socket to a local port, connected to a
// remote port: it takes a free socket table entry, patches the entry's
// demux cell, and synthesizes the socket's send and receive
// routines on a fresh descriptor of t. The entry is the one this port
// last held, else one no port has held, else the first free one, so a
// port keeps its queue across reopens.
// Returns -1 when the port is open, or the table or t's descriptors
// are full.
func (io *IO) OpenSocket(t *kernel.Thread, local, remote uint32) int32 {
	if t == nil {
		return -1
	}
	m := io.K.M
	i, rank := -1, 3
	for j := 0; j < MaxSockets; j++ {
		e := io.netSockTab + uint32(j)*sockEntrySize
		port, q := m.Peek(e, 4), m.Peek(e+4, 4)
		r := 2 // a free entry
		if port == local {
			r = 0 // the entry this port last held, or holds
		} else if port == 0 {
			r = 1 // an entry no port has held
		}
		if q != 0 && r == 0 {
			return -1
		} else if q == 0 && r < rank {
			i, rank = j, r
		}
	}
	fd := io.allocFD(t)
	if fd < 0 || i < 0 {
		return -1
	}
	r := io.slot(t, fd)
	if r == nil {
		return -1
	}
	e := io.netSockTab + uint32(i)*sockEntrySize
	q := io.netBlocks + uint32(i)*sockBlockSize
	m.PokeBytes(q, make([]byte, NQSlots))
	// The staging frame's header longs are invariant per open: data,
	// not per-call stores.
	m.Poke(q+nqSize, 4, remote)
	m.Poke(q+nqSize+4, 4, local)
	m.Poke(e, 4, local)
	m.Poke(e+4, 4, q)
	io.K.C.Patch(io.demuxCell(uint32(i)))

	read := io.synthSockRecv(t, fd, local, q, r)
	write := io.synthSockSend(t, fd, local, q, r)
	io.setFDCell(t, fd, kernel.FDKind, FDSock)
	io.setFDCell(t, fd, kernel.FDAux, q)
	io.setFDCell(t, fd, kernel.FDPos, 0)
	io.installFD(t, fd, read, write)
	return fd
}

// closeSocket frees the table entry owning queue q: the entry keeps
// its port and its block for the port's next open, and its demux cell
// becomes a branch past it.
func (io *IO) closeSocket(q uint32) {
	i := (q - io.netBlocks) / sockBlockSize
	e := io.netSockTab + i*sockEntrySize
	io.K.M.Poke(e+4, 4, 0)
	io.K.C.Patch(io.demuxCell(i))
}

// synthSockSend emits the socket's write routine: send(d2=buf,
// d3=len) -> d0 = payload bytes sent, or -1 when the NIC ring stayed
// full through the whole retry budget; clobbers D1-D3, A0 and A1. The
// staging frame's two port longs were written by the open, so the
// header "layer" costs nothing per call, and the checksum is summed in
// the one pass that copies the payload into the frame (Clark and
// Tennenhouse's integrated copy-and-checksum) and stored straight into
// the header: no checksum layer runs, and no second walk over the
// payload. The NIC launch is two folded-address register stores under
// a brief mask so concurrent senders cannot interleave the
// address/length pair. A refused launch (TxStat 0: ring full) sets up
// the retry budget and the backoff, and is retried with exponential
// backoff, spinning unmasked so the receive interrupt can drain the
// ring.
func (io *IO) synthSockSend(t *kernel.Thread, fd int32, local, q uint32, r *region) entries {
	stage := q + nqSize
	g := kernel.FDCell(t.TTE, int(fd), kernel.FDGauge)
	txAddr := m68k.NetBase + m68k.NetRegTxAddr
	txLen := m68k.NetBase + m68k.NetRegTxLen
	txStat := m68k.NetBase + m68k.NetRegTxStat
	launch := func(e *synth.Emitter) {
		// The receive interrupt for loopback traffic latches during the
		// masked pair and is taken right after the unmask.
		e.OrSR(kernel.SRIPLMask)
		e.MoveL(m68k.Imm(int32(stage)), m68k.Abs(txAddr))
		e.MoveL(m68k.D(3), m68k.D(1))
		e.AddL(m68k.Imm(synnet.HeaderBytes), m68k.D(1))
		e.MoveL(m68k.D(1), m68k.Abs(txLen)) // the store launches the frame
		e.AndSR(^uint16(kernel.SRIPLMask))
		e.Tst(4, m68k.Abs(txStat))
	}
	return buildUnixRW(r.at(io.K.C.Build(t.Q, "sock_send").
		Named(fmt.Sprintf("kio.sock%d.send", local)).
		Counted()),
		func(e *synth.Emitter) {
			e.CmpL(m68k.Imm(synnet.MTU), m68k.D(3))
			e.Bls("ss_fit")
			e.MoveL(m68k.Imm(synnet.MTU), m68k.D(3))
			e.Label("ss_fit")
			// Copy and checksum in one pass; the sum, zero-padded tail
			// long included (the stage is one long larger than FrameMax
			// for it), goes straight into the header slot. The copy
			// keeps D3.
			e.MoveL(m68k.D(2), m68k.A(0))
			e.Lea(m68k.Abs(stage+synnet.HeaderBytes), 1)
			e.MoveL(m68k.D(3), m68k.D(1))
			emitCopy(e, sumCopy, 0)
			e.MoveL(m68k.D(2), m68k.Abs(stage+8))
			launch(e)
			e.Beq("ss_refused")
			e.Label("ss_sent")
			e.AddL(m68k.D(3), m68k.Abs(g))
			e.MoveL(m68k.D(3), m68k.D(0))
			e.Rte()
			// Refused: ring full. Back off and retry, bounded: D2 counts
			// the retries left for the DBRA, which falls through at -1,
			// so one launch made and sendRetries-2 make sendRetries; D0
			// is the spin, doubled per retry.
			e.Label("ss_refused")
			e.MoveL(m68k.Imm(sendRetries-2), m68k.D(2))
			e.MoveL(m68k.Imm(sendBackoff0), m68k.D(0))
			e.Label("ss_retry")
			e.MoveL(m68k.D(0), m68k.D(1))
			e.Label("ss_spin")
			e.SubL(m68k.Imm(1), m68k.D(1))
			e.Bne("ss_spin")
			e.AddL(m68k.D(0), m68k.D(0))
			launch(e)
			e.Bne("ss_sent")
			e.Dbra(2, "ss_retry")
			e.AddL(m68k.Imm(1), m68k.Abs(q+NQTxFail))
			e.MoveL(m68k.Imm(-1), m68k.D(0))
			e.Rte()
		})
}

// synthSockRecv emits the socket's read routine: recv(d2=buf,
// d3=len) -> d0 = payload bytes; clobbers D1-D3, A0 and A1. The queue
// base, flag array and slot geometry are folded constants. The
// consumer trusts only the per-slot valid flag (Figure 2), and tests it
// unmasked: the receive interrupt handler, the one producer, sets a
// flag only once its slot is whole, and cannot reuse the slot until the
// tail moves, after the copy. So a set flag is cleared at once, through
// the A0/D0 that tested it. Only an empty queue raises the interrupt
// level, and re-tests the flag under it before parking on the reader
// cell.
func (io *IO) synthSockRecv(t *kernel.Thread, fd int32, local, q uint32, r *region) entries {
	g := kernel.FDCell(t.TTE, int(fd), kernel.FDGauge)
	return buildUnixRW(r.at(io.K.C.Build(t.Q, "sock_recv").
		Named(fmt.Sprintf("kio.sock%d.recv", local)).
		Counted()),
		func(e *synth.Emitter) {
			e.Label("sr_wait")
			e.MoveL(m68k.Abs(q+NQTail), m68k.D(0))
			e.AndL(m68k.Imm(NQSlotCount-1), m68k.D(0))
			e.Lea(m68k.Abs(q+NQFlags), 0)
			e.Tst(1, m68k.Idx(0, 0, 0, 1)) // flags[tail & mask]
			e.Beq("sr_park")
			e.Clr(1, m68k.Idx(0, 0, 0, 1))
			// A0 = slot [length][payload]; clamp the length to the
			// caller's buffer, straight into D3, the return count.
			e.LslL(m68k.Imm(8), m68k.D(0)) // * NQSlotBytes
			e.Lea(m68k.Abs(q+NQSlots), 0)
			e.AddL(m68k.D(0), m68k.A(0))
			e.Cmp(4, m68k.PostInc(0), m68k.D(3))
			e.Bls("sr_fit")
			e.MoveL(m68k.Disp(-4, 0), m68k.D(3))
			e.Label("sr_fit")
			e.MoveL(m68k.D(2), m68k.A(1))
			e.MoveL(m68k.D(3), m68k.D(1))
			emitCopy(e, longCopy, 0)
			// Retire the slot: the producer may claim it the moment the
			// tail moves.
			e.AddL(m68k.Imm(1), m68k.Abs(q+NQTail))
			e.AddL(m68k.D(3), m68k.Abs(g))
			e.MoveL(m68k.D(3), m68k.D(0))
			e.Rte()
			// Empty: re-test under the mask, so no deposit can slip in
			// between the test and the park.
			e.Label("sr_park")
			e.OrSR(kernel.SRIPLMask)
			e.Tst(1, m68k.Idx(0, 0, 0, 1))
			e.Bne("sr_again")
			e.Lea(m68k.Abs(q+NQRWait), 0)
			e.Jsr(io.K.BlockOnRoutine())
			e.Label("sr_again")
			e.AndSR(^uint16(kernel.SRIPLMask))
			e.Bra("sr_wait")
		})
}
