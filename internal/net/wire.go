package net

import "encoding/binary"

// Frame bytes: the Go-plane codec for the 12-byte wire header that
// synthesized VM code lays out in machine memory. The fabric uses it
// to lift frames out of one Quamachine's NIC and inject them into
// another's receive ring without either kernel knowing the difference
// from a directly cross-wired peer.

// EncodeFrame renders a frame in wire layout: Dst, Src, Sum as
// big-endian long words followed by the payload.
func EncodeFrame(f Frame) []byte {
	b := make([]byte, HeaderBytes+len(f.Payload))
	PutFrame(b, f)
	return b
}

// PutFrame is EncodeFrame into storage the caller owns: it writes f in
// wire layout at the start of b, which must hold HeaderBytes plus the
// payload, and returns the bytes written.
func PutFrame(b []byte, f Frame) int {
	binary.BigEndian.PutUint32(b[0:], f.Dst)
	binary.BigEndian.PutUint32(b[4:], f.Src)
	binary.BigEndian.PutUint32(b[8:], f.Sum)
	return HeaderBytes + copy(b[HeaderBytes:], f.Payload)
}

// DecodeFrame parses wire bytes back into a frame. ok is false when
// the buffer is shorter than a header. The payload aliases b.
func DecodeFrame(b []byte) (Frame, bool) {
	if len(b) < HeaderBytes {
		return Frame{}, false
	}
	return Frame{
		Dst:     binary.BigEndian.Uint32(b[0:]),
		Src:     binary.BigEndian.Uint32(b[4:]),
		Sum:     binary.BigEndian.Uint32(b[8:]),
		Payload: b[HeaderBytes:],
	}, true
}

// Fabric addressing: a cluster address packs a node id into the high
// byte of the 32-bit port word, leaving 24 bits of port space — the
// kio port compare cells never see the node byte because the fabric
// pops it before injecting a frame into the destination VM. Node 0 is
// the host (the load generator); VM nodes are 1-based.
const (
	NodeShift = 24
	NodeMask  = uint32(0xff) << NodeShift
	PortMask  = ^NodeMask

	// HostNode addresses the load generator on the fabric.
	HostNode = 0

	// MaxNodes bounds the node id space (8 bits, node 0 reserved).
	MaxNodes = 255
)

// MakeAddr packs a (node, port) fabric address.
func MakeAddr(node int, port uint32) uint32 {
	return uint32(node)<<NodeShift | port&PortMask
}

// NodeOf extracts the node id from a fabric address.
func NodeOf(addr uint32) int { return int(addr >> NodeShift) }

// PortOf strips the node tag, leaving the plain port a kio socket
// demux matches against.
func PortOf(addr uint32) uint32 { return addr & PortMask }
