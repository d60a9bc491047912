package cluster

import (
	"testing"

	"synthesis/internal/net"
)

// TestNoReecho injects exactly three frames into a quiet 1-VM fleet
// and drives it manually: each frame must produce exactly one echo,
// and a drained fleet must produce nothing more. Guards against the
// receive path re-processing stale ring slots or stale queue slots.
//
// It also holds the guest to what the live driver's parking rule
// assumes: with its input drained the guest ends up in STOP with the
// NIC ring empty (so parking it strands nothing), and from there one
// frame is all it takes to get exactly one echo.
func TestNoReecho(t *testing.T) {
	c := New(Config{VMs: 1, SocketsPerVM: 8, Conns: 1, PayloadBytes: 32, Seed: 3})
	vm := c.vms[0]

	out := 0 // frames the guest transmitted
	vm.K.Net.Tx = func(b []byte) bool {
		if _, ok := net.DecodeFrame(b); !ok {
			t.Fatalf("undecodable frame off vm1: % x", b)
		}
		out++
		return c.routeRaw(1, b)
	}

	// inject routes one host frame at guest socket sock.
	inject := func(sock, seq uint32) bool {
		p := make([]byte, c.cfg.PayloadBytes)
		return c.route(net.HostNode, net.Frame{
			Dst: net.MakeAddr(1, guestPortBase+sock),
			Src: net.MakeAddr(net.HostNode, replyPortBase+sock),
			Sum: c.payload(p, 0, seq), Payload: p,
		})
	}
	drive := func(chunks int) {
		for i := 0; i < chunks; i++ {
			c.drainIngress(vm)
			if err := vm.K.Run(4096); err == nil {
				t.Fatal("vm halted")
			}
		}
	}

	// quiet asserts the parked state: a chunk can end inside the idle
	// loop's timer interrupt, so a few more are allowed to get back to
	// STOP.
	quiet := func() {
		t.Helper()
		for i := 0; !vm.K.M.Stopped(); i++ {
			if i == 8 {
				t.Fatal("guest with nothing to do is not in STOP")
			}
			drive(1)
		}
		if n := vm.K.Net.RxPending(); n != 0 {
			t.Fatalf("guest stopped with %d frames in its NIC ring", n)
		}
	}

	// Let the guest threads boot and open all sockets.
	drive(400)
	if n := out; n != 0 {
		t.Fatalf("fleet transmitted %d frames before any input", n)
	}
	quiet()

	for i := uint32(0); i < 3; i++ {
		inject(i, i)
	}
	drive(400)
	if n := out; n != 3 {
		t.Fatalf("3 frames in, %d frames out", n)
	}
	// A drained fleet must stay quiet no matter how long it runs.
	drive(2000)
	if n := out; n != 3 {
		t.Fatalf("re-echo: 3 frames in, %d frames out after extra chunks", n)
	}
	quiet()

	// Overload: a 64-frame burst at one socket overflows both the NIC
	// ring (16 slots) and the socket queue (8 slots). Echo count must
	// never exceed input, and the fleet must go quiet once drained.
	out = 0
	sent := 0
	for i := uint32(0); i < 64; i++ {
		if inject(0, 100+i) {
			sent++
		}
	}
	drive(3000)
	burst := out
	if burst > sent {
		t.Fatalf("echo amplification: %d frames in, %d frames out", sent, burst)
	}
	drive(2000)
	if n := out; n != burst {
		t.Fatalf("re-echo after overload: %d grew to %d with no new input", burst, n)
	}
	quiet()

	// From the parked state, one frame in is one echo out.
	inject(0, 200)
	drive(400)
	if n := out; n != burst+1 {
		t.Fatalf("one frame into a parked guest: %d echoes", n-burst)
	}
	quiet()
}
