package net

import (
	"bytes"
	"testing"
)

func TestFrameCodecRoundTrip(t *testing.T) {
	p := []byte("fabric payload")
	f := Frame{Dst: MakeAddr(3, 0x1234), Src: MakeAddr(HostNode, 0x77), Sum: Checksum(p), Payload: p}
	b := EncodeFrame(f)
	if len(b) != HeaderBytes+len(p) {
		t.Fatalf("encoded length = %d, want %d", len(b), HeaderBytes+len(p))
	}
	g, ok := DecodeFrame(b)
	if !ok {
		t.Fatal("DecodeFrame rejected a valid frame")
	}
	if g.Dst != f.Dst || g.Src != f.Src || g.Sum != f.Sum || !bytes.Equal(g.Payload, f.Payload) {
		t.Fatalf("round trip lost data: %+v vs %+v", g, f)
	}
	// Header layout is the VM-plane convention: big-endian long words.
	if b[0] != 0x03 || b[1] != 0x00 || b[2] != 0x12 || b[3] != 0x34 {
		t.Fatalf("Dst word bytes = % x, want big-endian node|port", b[:4])
	}
	if _, ok := DecodeFrame(b[:HeaderBytes-1]); ok {
		t.Fatal("DecodeFrame accepted a truncated header")
	}
	// A bare header decodes to an empty payload.
	if g, ok := DecodeFrame(EncodeFrame(Frame{Dst: 1})); !ok || len(g.Payload) != 0 {
		t.Fatalf("bare header decode = %+v, %v", g, ok)
	}
}

func TestFabricAddressing(t *testing.T) {
	cases := []struct {
		node int
		port uint32
	}{
		{HostNode, 0},
		{HostNode, 42},
		{1, 5},
		{8, 0xffffff}, // full 24-bit port space
		{MaxNodes, 7},
	}
	for _, c := range cases {
		a := MakeAddr(c.node, c.port)
		if NodeOf(a) != c.node || PortOf(a) != c.port {
			t.Errorf("MakeAddr(%d, %#x) -> node %d port %#x", c.node, c.port, NodeOf(a), PortOf(a))
		}
	}
	// A plain port (no node tag) addresses the host side.
	if NodeOf(9) != HostNode || PortOf(9) != 9 {
		t.Errorf("plain port 9 -> node %d port %d", NodeOf(9), PortOf(9))
	}
	// MakeAddr masks an oversize port rather than corrupting the node.
	if a := MakeAddr(2, 0x01ffffff); NodeOf(a) != 2 {
		t.Errorf("oversize port leaked into node byte: node %d", NodeOf(a))
	}
}
