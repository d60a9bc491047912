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

import (
	"encoding/binary"
	"sync/atomic"
)

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
// the generic baseline runs it as its own layer. The host reads two
// long words per load.
func Checksum(p []byte) uint32 {
	var sum uint32
	for ; len(p) >= 8; p = p[8:] {
		x := binary.BigEndian.Uint64(p)
		sum += uint32(x>>32) + uint32(x)
	}
	if len(p) >= 4 {
		sum += binary.BigEndian.Uint32(p)
		p = p[4:]
	}
	if len(p) > 0 {
		var w [4]byte
		copy(w[:], p)
		sum += binary.BigEndian.Uint32(w[:])
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
// Each slot owns MTU bytes of payload storage, so a frame moves
// through the ring without allocating: Put copies the payload in and
// Get copies it out into the consumer's own buffer. The ring's memory
// is its capacity times FrameMax, so callers size it to the traffic.
//
// It is the paper's asynchronous queue (Section 3.2): nobody blocks in
// it, and every Put signals the consumer, which is what lets the
// consumer sleep instead of polling. The consumer's half of the
// protocol is: Get until empty, then receive from Ready. A frame Put
// after the failed Get leaves a signal behind, so none is missed; a
// signal left by a frame already taken costs one empty pass.
type PacketRing struct {
	slots []slot
	head  atomic.Int64 // next position producers claim
	tail  atomic.Int64 // next position the consumer drains
	drops atomic.Uint64
	ready chan struct{} // capacity 1: signals coalesce, none is lost
	out   [MTU]byte     // the consumer's copy of the frame Get returned last
}

// slot is one ring position: a frame's header and its payload bytes.
type slot struct {
	full          atomic.Bool
	dst, src, sum uint32
	n             uint32 // payload length
	buf           [MTU]byte
}

// NewPacketRing creates a ring holding up to slots frames.
func NewPacketRing(slots int) *PacketRing {
	if slots < 1 {
		panic("net: ring size must be positive")
	}
	return &PacketRing{slots: make([]slot, slots), ready: make(chan struct{}, 1)}
}

// Put copies one frame into the ring and signals the consumer. It
// drops the frame, counting the drop, when the ring is full or the
// payload is longer than MTU: senders never block, and the caller may
// reuse the payload as soon as Put returns.
func (r *PacketRing) Put(f Frame) bool {
	if len(f.Payload) > MTU {
		r.drops.Add(1)
		return false
	}
	size := int64(len(r.slots))
	for {
		h := r.head.Load()
		if h-r.tail.Load() >= size {
			r.drops.Add(1)
			return false
		}
		if r.head.CompareAndSwap(h, h+1) {
			s := &r.slots[h%size]
			s.dst, s.src, s.sum = f.Dst, f.Src, f.Sum
			s.n = uint32(copy(s.buf[:], f.Payload))
			s.full.Store(true)
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
// look at something other than the ring. A pending signal already
// covers this one, so Wake then skips the channel operation: the same
// lock-free fullness test a non-blocking send makes first, without the
// call into the runtime.
func (r *PacketRing) Wake() {
	if len(r.ready) != 0 {
		return
	}
	select {
	case r.ready <- struct{}{}:
	default: // another producer signalled first
	}
}

// Get removes the oldest frame; ok is false when the ring is empty
// or the tail slot is claimed but not yet filled. The payload is the
// ring's copy for its one consumer: it stays valid until the next Get.
func (r *PacketRing) Get() (Frame, bool) {
	t := r.tail.Load()
	s := &r.slots[t%int64(len(r.slots))]
	if !s.full.Load() {
		return Frame{}, false
	}
	f := Frame{Dst: s.dst, Src: s.src, Sum: s.sum, Payload: r.out[:copy(r.out[:], s.buf[:s.n])]}
	s.full.Store(false)
	r.tail.Store(t + 1)
	return f, true
}

// Len reports the approximate depth: claimed positions, some perhaps
// not yet filled.
func (r *PacketRing) Len() int { return int(max(r.head.Load()-r.tail.Load(), 0)) }

// Cap reports how many frames the ring holds.
func (r *PacketRing) Cap() int { return len(r.slots) }

// Drops reports how many frames were refused: at a full ring, or over
// MTU.
func (r *PacketRing) Drops() uint64 { return r.drops.Load() }
