package net

import (
	"runtime"
	"sync"
	"testing"
	"time"
)

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
