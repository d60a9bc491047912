package net

import (
	"bytes"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"
)

// TestChecksumMatchesByteReference holds the long-word Checksum to the
// wire definition computed a byte at a time, for every payload length
// up to MTU and random contents.
func TestChecksumMatchesByteReference(t *testing.T) {
	ref := func(p []byte) uint32 {
		var sum uint32
		for i, b := range p {
			sum += uint32(b) << (24 - 8*(i%4))
		}
		return sum
	}
	rng := rand.New(rand.NewSource(1))
	p := make([]byte, MTU)
	for round := 0; round < 8; round++ {
		rng.Read(p)
		for n := 0; n <= MTU; n++ {
			if got, want := Checksum(p[:n]), ref(p[:n]); got != want {
				t.Fatalf("round %d, %d bytes: Checksum = %#x, want %#x", round, n, got, want)
			}
		}
	}
}

// TestPacketRingOwnsItsFrames: Put copies the payload into the slot,
// so a producer that reuses its buffer at once cannot change a frame
// already queued, and Get's copy stays intact until the next Get. A
// payload over MTU is refused and counted as a drop.
func TestPacketRingOwnsItsFrames(t *testing.T) {
	r := NewPacketRing(4)
	buf := []byte("first frame")
	if !r.Put(Frame{Dst: 1, Sum: Checksum(buf), Payload: buf}) {
		t.Fatal("Put refused a frame into an empty ring")
	}
	copy(buf, "SECOND FRAM")
	if !r.Put(Frame{Dst: 2, Sum: Checksum(buf), Payload: buf}) {
		t.Fatal("Put refused a second frame")
	}
	copy(buf, "overwritten")

	f, ok := r.Get()
	if !ok || f.Dst != 1 || string(f.Payload) != "first frame" || f.Sum != Checksum(f.Payload) {
		t.Fatalf("first Get = %+v %q, %v; want Dst 1 \"first frame\"", f, f.Payload, ok)
	}
	if !r.Put(Frame{Dst: 3, Payload: buf}) {
		t.Fatal("Put refused a third frame")
	}
	if string(f.Payload) != "first frame" {
		t.Fatalf("a Put changed the consumer's copy: %q", f.Payload)
	}
	if g, ok := r.Get(); !ok || g.Dst != 2 || string(g.Payload) != "SECOND FRAM" {
		t.Fatalf("second Get = %+v %q, %v; want Dst 2 \"SECOND FRAM\"", g, g.Payload, ok)
	}

	big := bytes.Repeat([]byte{0xa5}, MTU+1)
	if r.Put(Frame{Dst: 4, Payload: big}) {
		t.Fatal("Put accepted a payload over MTU")
	}
	if r.Drops() != 1 || r.Len() != 1 {
		t.Fatalf("after an over-MTU Put: drops %d, len %d; want 1, 1", r.Drops(), r.Len())
	}
	if !r.Put(Frame{Dst: 5, Payload: big[:MTU]}) {
		t.Fatal("Put refused a payload of exactly MTU")
	}
	if g, ok := r.Get(); !ok || g.Dst != 3 {
		t.Fatalf("third Get = %+v, %v; want Dst 3", g, ok)
	}
	if g, ok := r.Get(); !ok || g.Dst != 5 || !bytes.Equal(g.Payload, big[:MTU]) {
		t.Fatalf("MTU Get = Dst %d, %d bytes, %v; want Dst 5, %d bytes", g.Dst, len(g.Payload), ok, MTU)
	}
	if r.Cap() != 4 {
		t.Fatalf("Cap = %d, want 4", r.Cap())
	}
}

// TestPacketRingNoLossNoDup is the MPSC property test: N goroutine
// producers racing puts against a single consumer. Every frame put
// must be got exactly once, in per-producer order. Run under -race.
func TestPacketRingNoLossNoDup(t *testing.T) {
	const (
		producers = 8
		perProd   = 800
	)
	r := NewPacketRing(64)

	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(id uint32) {
			defer wg.Done()
			for seq := uint32(0); seq < perProd; seq++ {
				f := Frame{Dst: 1, Src: id, Payload: []byte{byte(seq), byte(seq >> 8)}}
				for !r.Put(f) {
					// Ring full: the device would drop; the test
					// re-offers so accounting stays exact.
					runtime.Gosched()
				}
			}
		}(uint32(p))
	}

	total := producers * perProd
	next := make([]uint32, producers) // expected next sequence per producer
	got := 0
	done := make(chan struct{})
	go func() {
		defer close(done)
		for got < total {
			f, ok := r.Get()
			if !ok {
				runtime.Gosched()
				continue
			}
			seq := uint32(f.Payload[0]) | uint32(f.Payload[1])<<8
			if f.Src >= producers {
				t.Errorf("frame from unknown producer %d", f.Src)
				return
			}
			if seq != next[f.Src] {
				t.Errorf("producer %d: got seq %d, want %d (lost or duplicated)", f.Src, seq, next[f.Src])
				return
			}
			next[f.Src]++
			got++
		}
	}()
	wg.Wait()
	<-done

	if got != total {
		t.Fatalf("consumed %d frames, want %d", got, total)
	}
	for p, n := range next {
		if n != perProd {
			t.Errorf("producer %d: %d frames consumed, want %d", p, n, perProd)
		}
	}
	// Every failed Put above counted a drop and was re-offered, so
	// nothing was lost; the counter only proves the full-ring path was
	// exercised.
}

// TestPacketRingReady pins the ring's signal: a Put on an empty ring
// leaves exactly one signal on Ready, further Puts coalesce into one
// pending signal, a refused Put signals nothing, and a consumer that
// only ever sleeps on Ready after a failed Get receives every frame
// of four concurrent producers — no wakeup is lost. Run under -race.
func TestPacketRingReady(t *testing.T) {
	pending := func(r *PacketRing) bool {
		select {
		case <-r.Ready():
			return true
		default:
			return false
		}
	}

	r := NewPacketRing(4)
	if pending(r) {
		t.Fatal("a new ring is already signalled")
	}
	r.Put(Frame{Dst: 1})
	if !pending(r) {
		t.Fatal("Put on an empty ring left no signal")
	}
	if pending(r) {
		t.Fatal("one Put left two signals")
	}
	for i := 0; i < 3; i++ {
		r.Put(Frame{Dst: 1})
	}
	if r.Put(Frame{Dst: 1}) {
		t.Fatal("Put into a full ring succeeded")
	}
	if r.Drops() != 1 {
		t.Fatalf("drops = %d, want 1", r.Drops())
	}
	if !pending(r) || pending(r) {
		t.Fatal("three Puts did not coalesce into exactly one pending signal")
	}
	for i := 0; i < 4; i++ {
		r.Get()
	}
	if r.Put(Frame{}); !pending(r) {
		t.Fatal("Put after a drain left no signal")
	}
	r.Get()
	if r.Wake(); !pending(r) {
		t.Fatal("Wake left no signal")
	}

	// The consumer protocol under contention: Get until empty, then
	// sleep on Ready. A small ring keeps it going to sleep.
	const (
		producers = 4
		perProd   = 5000
	)
	r = NewPacketRing(8)
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perProd; i++ {
				for !r.Put(Frame{Dst: 1}) {
					runtime.Gosched()
				}
			}
		}()
	}
	stall := time.NewTimer(20 * time.Second)
	defer stall.Stop()
	for got := 0; got < producers*perProd; {
		if _, ok := r.Get(); ok {
			got++
			continue
		}
		select {
		case <-r.Ready():
		case <-stall.C:
			t.Fatalf("consumer asleep with frames owed: got %d of %d, ring holds %d",
				got, producers*perProd, r.Len())
		}
	}
	wg.Wait()
}

// BenchmarkFigure2_MPSC: Figure 2's MP-SC queue with CAS claims,
// contended producers, on the fleet fabric's packet ring (wall clock).
// The consumer keeps the fabric's protocol: Get until empty, then wait
// on Ready.
func BenchmarkFigure2_MPSC(b *testing.B) {
	r := NewPacketRing(1024)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for got := 0; got < b.N; {
			if _, ok := r.Get(); ok {
				got++
				continue
			}
			<-r.Ready()
		}
	}()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			for !r.Put(Frame{}) {
				runtime.Gosched() // ring full: let the consumer drain
			}
		}
	})
	<-done
}
