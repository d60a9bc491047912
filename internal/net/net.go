// Package net is the Go side of the network: datagram frames, the
// fabric addressing on top of them (wire.go), and the optimistic MPSC
// packet ring the fleet's fabric queues them on (Figure 2's queue
// discipline applied to packets instead of bytes), which signals its
// consumer the way the paper's asynchronous queues do.
//
// The package also owns the wire format shared with the VM plane: the
// kio network server and the sunos baseline lay out frames in machine
// memory exactly as described by the constants below, so the two
// planes agree on what a frame is.
package net

import "sync/atomic"

// Wire format: a frame is a 12-byte header — destination port, source
// port and payload checksum, each a 32-bit word so synthesized
// Quamachine code handles them with single long moves — followed by up
// to MTU payload bytes.
const (
	HeaderBytes = 12
	MTU         = 240
	FrameMax    = HeaderBytes + MTU
)

// Checksum is the wire checksum: the 32-bit sum of the payload taken
// as big-endian long words, the last word zero-padded on the right.
// Long-wise so the VM planes compute it at one add per long — the
// synthesized send folds it into the staging copy (Collapsing Layers),
// the generic baseline runs it as its own layer.
func Checksum(p []byte) uint32 {
	var sum uint32
	for i := 0; i < len(p); i += 4 {
		var w uint32
		for j := 0; j < 4 && i+j < len(p); j++ {
			w |= uint32(p[i+j]) << uint(24-8*j)
		}
		sum += w
	}
	return sum
}

// Frame is one datagram.
type Frame struct {
	Dst, Src uint32
	Sum      uint32 // Checksum of Payload
	Payload  []byte
}

// PacketRing is the optimistic multiple-producer single-consumer
// frame queue of Figure 2: any number of senders may Put concurrently;
// exactly one consumer Gets. A producer stakes its claim to a slot by
// advancing head with one compare-and-swap, retrying when another
// producer claimed first, then fills the slot and sets its valid flag;
// the consumer trusts the flag, not head, and clears it as it drains
// the slot. Positions only grow (slot = position mod capacity), which
// closes the ABA window a wrapped compare-and-swap would have under
// arbitrary producer stalls.
//
// It is the paper's asynchronous queue (Section 3.2): nobody blocks in
// it, and every Put signals the consumer, which is what lets the
// consumer sleep instead of polling. The consumer's half of the
// protocol is: Get until empty, then receive from Ready. A frame Put
// after the failed Get leaves a signal behind, so none is missed; a
// signal left by a frame already taken costs one empty pass.
type PacketRing struct {
	buf   []Frame
	flag  []atomic.Bool
	head  atomic.Int64 // next position producers claim
	tail  atomic.Int64 // next position the consumer drains
	drops atomic.Uint64
	ready chan struct{} // capacity 1: signals coalesce, none is lost
}

// NewPacketRing creates a ring holding up to slots frames.
func NewPacketRing(slots int) *PacketRing {
	if slots < 1 {
		panic("net: ring size must be positive")
	}
	return &PacketRing{buf: make([]Frame, slots), flag: make([]atomic.Bool, slots), ready: make(chan struct{}, 1)}
}

// Put deposits one frame and signals the consumer, dropping the frame
// (and counting the drop) when the ring is full — senders never block.
func (r *PacketRing) Put(f Frame) bool {
	size := int64(len(r.buf))
	for {
		h := r.head.Load()
		if h-r.tail.Load() >= size {
			r.drops.Add(1)
			return false
		}
		if r.head.CompareAndSwap(h, h+1) {
			i := h % size
			r.buf[i] = f
			r.flag[i].Store(true)
			r.Wake()
			return true
		}
		// Another producer claimed position h first: retry.
	}
}

// Ready is the consumer's wait channel: a receive returns once some
// Put (or Wake) has happened since the last receive.
func (r *PacketRing) Ready() <-chan struct{} { return r.ready }

// Wake signals the consumer without a frame — for whoever needs it to
// look at something other than the ring.
func (r *PacketRing) Wake() {
	select {
	case r.ready <- struct{}{}:
	default: // a signal is already pending
	}
}

// Get removes the oldest frame; ok is false when the ring is empty
// or the tail slot is claimed but not yet filled.
func (r *PacketRing) Get() (Frame, bool) {
	t := r.tail.Load()
	i := t % int64(len(r.buf))
	if !r.flag[i].Load() {
		return Frame{}, false
	}
	f := r.buf[i]
	r.buf[i] = Frame{}
	r.flag[i].Store(false)
	r.tail.Store(t + 1)
	return f, true
}

// Len reports the approximate depth: claimed positions, some perhaps
// not yet filled.
func (r *PacketRing) Len() int { return int(max(r.head.Load()-r.tail.Load(), 0)) }

// Drops reports how many frames were discarded at a full ring.
func (r *PacketRing) Drops() uint64 { return r.drops.Load() }
