package m68k

// The network interface: a DMA frame device in the style of the
// Quamachine's disk controller, rounding out the device complement for
// packet I/O. Transmit is a two-register fire: software stages a frame
// anywhere in memory, writes its address and then its length (the
// length store launches the frame). Receive is a descriptor ring:
// software hands the device a ring of fixed-size slots in machine
// memory and the device DMAs each arriving frame into the next free
// slot — [length (4)][frame bytes] — advancing a free-running head
// count and raising IRQNet. Software consumes slots in order and
// returns them by advancing the tail register.
//
// Wiring is a loopback link: a NIC delivers into its own receive ring,
// so two sockets on one machine exchange frames, unless its Tx hook
// carries the frame elsewhere.

// NetBase is the NIC's 256-byte register window.
const NetBase = IOBase + 0x500

// NIC register offsets.
const (
	NetRegTxAddr  uint32 = 0x00 // write: staged frame address
	NetRegTxLen   uint32 = 0x04 // write: frame length; the store launches the frame
	NetRegRxBase  uint32 = 0x08 // write: receive ring base address
	NetRegRxSlots uint32 = 0x0c // write: ring slot count (power of two)
	NetRegSlotSz  uint32 = 0x10 // write: bytes per ring slot
	NetRegCtl     uint32 = 0x14 // write: bit0 = receive enable
	NetRegRxHead  uint32 = 0x18 // read: frames DMA'd so far (free-running)
	NetRegRxTail  uint32 = 0x1c // write: frames consumed so far (frees slots)
	NetRegTxCount uint32 = 0x20 // read: frames launched so far
	NetRegDrops   uint32 = 0x24 // read: frames dropped (ring full/runt/oversize/disabled/not in RAM)
	NetRegTxStat  uint32 = 0x28 // read: 1 = last launched frame was accepted by the receiver
)

// NetMinFrame is the wire header's size (net.HeaderBytes): the NIC
// drops a shorter frame, a runt, as real NICs do.
const NetMinFrame = 12

// Net is the network interface device.
type Net struct {
	m *Machine

	// Tx, when set, intercepts every launched frame instead of the
	// loopback delivery: this is how a switch fabric attaches a NIC to
	// N peers. Its return value reports whether the fabric accepted the
	// frame and lands in NetRegTxStat, so the synthesized send's
	// retry/backoff sees fabric backpressure exactly as it sees a full
	// peer ring. The frame slice is freshly allocated
	// per launch (PeekBytes copies), so the hook may retain it.
	Tx func(frame []byte) bool

	txAddr  uint32
	rxBase  uint32
	rxSlots uint32
	slotSz  uint32
	enabled bool

	rxHead uint32 // free-running count of frames DMA'd in
	rxTail uint32 // free-running count of frames consumed
	txCnt  uint32
	drops  uint32
	txStat uint32 // 1 after a launch the receiving ring accepted

	irqAt uint64 // absolute cycle of the pending receive interrupt (0 = none)
}

// NewNet creates a NIC looped back onto itself.
func NewNet(m *Machine) *Net { return &Net{m: m} }

// Name implements Device.
func (n *Net) Name() string { return "net" }

// Base implements Device.
func (n *Net) Base() uint32 { return NetBase }

// Size implements Device.
func (n *Net) Size() uint32 { return 0x100 }

// Load implements Device.
func (n *Net) Load(off uint32, sz uint8) uint32 {
	switch off {
	case NetRegRxHead:
		return n.rxHead
	case NetRegTxCount:
		return n.txCnt
	case NetRegDrops:
		return n.drops
	case NetRegTxStat:
		return n.txStat
	}
	return 0
}

// Store implements Device.
func (n *Net) Store(off uint32, sz uint8, val uint32) {
	switch off {
	case NetRegTxAddr:
		n.txAddr = val
	case NetRegTxLen:
		n.txCnt++
		var ok bool
		switch end := uint64(n.txAddr) + uint64(val); {
		case end > uint64(n.m.MemSize()):
			n.drops++ // the frame is not wholly in RAM
		case n.Tx != nil:
			ok = n.Tx(n.m.PeekBytes(n.txAddr, int(val)))
		case n.m.Inj == nil && end <= uint64(len(n.m.Mem)):
			// Nothing on the way can keep the frame, so it is DMA'd
			// straight from the sender's memory into the receive ring.
			ok = n.deliverRaw(n.m.Mem[n.txAddr:end], 0)
		default:
			ok = n.Deliver(n.m.PeekBytes(n.txAddr, int(val)))
		}
		n.txStat = 0
		if ok {
			n.txStat = 1
		}
	case NetRegRxBase:
		n.rxBase = val
	case NetRegRxSlots:
		n.rxSlots = val
	case NetRegSlotSz:
		n.slotSz = val
	case NetRegCtl:
		n.enabled = val&1 != 0
	case NetRegRxTail:
		// The tail only ever moves forward, and never past the head: a
		// preempted handler activation may publish a stale (old) tail
		// long after its siblings advanced it, and a runaway driver
		// could overshoot the head — either store, taken literally,
		// wedges the ring-fullness arithmetic (rxHead - rxTail) for
		// good. Taken as free-running counts, "forward but not past
		// the head" is the whole legal range.
		if int32(val-n.rxTail) > 0 && int32(n.rxHead-val) >= 0 {
			n.rxTail = val
		}
	}
}

// Deliver puts a frame on the wire toward this NIC's receive ring and
// schedules the receive interrupt. An attached fault injector sees the
// frame first and may lose, corrupt, duplicate or delay it. Deliver
// reports whether the receive ring accepted every frame that survived
// the wire: ring backpressure is visible to the transmitter (via
// NetRegTxStat), silent wire loss is not — that is what checksums and
// retransmission are for. Tests, traffic generators and the fleet's
// fabric call it to hand the NIC a frame from outside.
func (n *Net) Deliver(frame []byte) bool {
	if n.m.Inj != nil {
		out, delay := n.m.Inj.Frame(frame)
		ok := true
		for _, f := range out {
			if !n.deliverRaw(f, delay) {
				ok = false
			}
		}
		return ok
	}
	return n.deliverRaw(frame, 0)
}

// deliverRaw DMAs one post-injection frame into the receive ring. The
// frame is not retained.
func (n *Net) deliverRaw(frame []byte, delay uint64) bool {
	slot := n.rxBase + (n.rxHead&(n.rxSlots-1))*n.slotSz
	if !n.enabled || n.rxSlots == 0 || n.slotSz == 0 ||
		len(frame) < NetMinFrame || uint32(len(frame))+4 > n.slotSz ||
		n.rxHead-n.rxTail >= n.rxSlots ||
		uint64(slot)+4+uint64(len(frame)+3)&^3 > uint64(n.m.MemSize()) ||
		(n.m.Inj != nil && n.m.Inj.RingFull()) {
		n.drops++
		return false
	}
	// The bytes go first: frame may be a view of the sender's memory,
	// and that view must be read as it was when the frame launched. A
	// grow of Mem here leaves the bytes under the view as they were.
	n.m.PokeBytes(slot+4, frame)
	n.m.Poke(slot, 4, uint32(len(frame)))
	// The DMA engine writes whole long words: zero the pad up to the
	// next long boundary so a long-wise payload checksum over the slot
	// never reads a stale byte from an earlier, longer frame.
	for off := uint32(len(frame)); off%4 != 0; off++ {
		n.m.Poke(slot+4+off, 1, 0)
	}
	n.rxHead++
	// The receive interrupt is due at once, but for an injected delay:
	// cut-through loopback, the frame in the ring before the
	// transmitting store completes.
	if n.irqAt == 0 {
		n.irqAt = n.m.Clock() + delay
		if n.irqAt == 0 {
			n.irqAt = 1 // cycle 0 would read as "no interrupt pending"
		}
	}
	n.m.Kick(n)
	return true
}

// RxPending returns how many DMA'd frames await consumption (host
// view, for tests).
func (n *Net) RxPending() uint32 { return n.rxHead - n.rxTail }

// TxLaunched returns the free-running launched-frame count (host
// view, for tests and diagnostics).
func (n *Net) TxLaunched() uint32 { return n.txCnt }

// Dropped returns the drop count (host view).
func (n *Net) Dropped() uint32 { return n.drops }

// Tick implements Device: one interrupt per delivery batch — the
// handler drains every frame up to the head count, so a new interrupt
// is only scheduled by the next Deliver.
func (n *Net) Tick(now uint64) (int, uint64) {
	if n.irqAt == 0 {
		return 0, 0
	}
	if now < n.irqAt {
		return 0, n.irqAt
	}
	n.irqAt = 0
	return IRQNet, 0
}
