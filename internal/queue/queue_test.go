package queue_test

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"synthesis/internal/queue"
)

// ---------------------------------------------------------------------
// Basic FIFO behaviour shared by all queue kinds.

type nb interface {
	TryPut(int) bool
	TryGet() (int, bool)
	Len() int
	Cap() int
}

func kinds(size int) map[string]func() nb {
	return map[string]func() nb{
		"spsc":   func() nb { return queue.NewSPSC[int](size) },
		"mpsc":   func() nb { return queue.NewMPSC[int](size) },
		"spmc":   func() nb { return queue.NewSPMC[int](size) },
		"mpmc":   func() nb { return queue.NewMPMC[int](size) },
		"locked": func() nb { return queue.NewLocked[int](size) },
	}
}

func TestFIFOOrder(t *testing.T) {
	for name, mk := range kinds(8) {
		t.Run(name, func(t *testing.T) {
			q := mk()
			for i := 0; i < 8; i++ {
				if !q.TryPut(i * 10) {
					t.Fatalf("put %d failed on non-full queue", i)
				}
			}
			for i := 0; i < 8; i++ {
				v, ok := q.TryGet()
				if !ok || v != i*10 {
					t.Fatalf("get %d = (%d,%v), want (%d,true)", i, v, ok, i*10)
				}
			}
			if _, ok := q.TryGet(); ok {
				t.Error("get on empty queue succeeded")
			}
		})
	}
}

func TestFullRejectsPut(t *testing.T) {
	for name, mk := range kinds(4) {
		t.Run(name, func(t *testing.T) {
			q := mk()
			n := 0
			for q.TryPut(n) {
				n++
				if n > 100 {
					t.Fatal("queue never filled")
				}
			}
			if n < 3 {
				t.Fatalf("filled after only %d items (cap should be ~4)", n)
			}
			// Draining one must admit exactly one more.
			if _, ok := q.TryGet(); !ok {
				t.Fatal("drain failed")
			}
			if !q.TryPut(999) {
				t.Error("put after drain failed")
			}
			if q.TryPut(1000) {
				t.Error("put into full queue succeeded")
			}
		})
	}
}

func TestInterleavedWraparound(t *testing.T) {
	for name, mk := range kinds(3) {
		t.Run(name, func(t *testing.T) {
			q := mk()
			want := 0
			for i := 0; i < 50; i++ {
				if !q.TryPut(i) {
					t.Fatalf("put %d failed", i)
				}
				if i%2 == 1 { // drain two every other step
					for k := 0; k < 2; k++ {
						v, ok := q.TryGet()
						if !ok || v != want {
							t.Fatalf("get = (%d,%v), want (%d,true)", v, ok, want)
						}
						want++
					}
				}
			}
		})
	}
}

// ---------------------------------------------------------------------
// Property test: any interleaving of puts and gets matches a model
// FIFO exactly (single-threaded semantics).

func TestQueueMatchesModel(t *testing.T) {
	check := func(seed int64, sizeRaw uint8) bool {
		size := int(sizeRaw%16) + 1
		rng := rand.New(rand.NewSource(seed))
		for name, mk := range kinds(size) {
			q := mk()
			var model []int
			capSeen := q.Cap()
			for op := 0; op < 200; op++ {
				if rng.Intn(2) == 0 {
					v := rng.Intn(1000)
					ok := q.TryPut(v)
					if ok {
						model = append(model, v)
					} else if len(model) < capSeen {
						t.Logf("%s: put failed with %d/%d items", name, len(model), capSeen)
						return false
					}
				} else {
					v, ok := q.TryGet()
					if ok {
						if len(model) == 0 {
							t.Logf("%s: got %d from empty queue", name, v)
							return false
						}
						if v != model[0] {
							t.Logf("%s: got %d, want %d", name, v, model[0])
							return false
						}
						model = model[1:]
					} else if len(model) != 0 {
						t.Logf("%s: get failed with %d items queued", name, len(model))
						return false
					}
				}
			}
			// Drain and compare the remainder.
			for _, want := range model {
				v, ok := q.TryGet()
				if !ok || v != want {
					t.Logf("%s: drain got (%d,%v), want %d", name, v, ok, want)
					return false
				}
			}
			if _, ok := q.TryGet(); ok {
				t.Logf("%s: queue not empty after drain", name)
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// ---------------------------------------------------------------------
// Concurrency: no lost or duplicated items under contention. Run with
// -race.

// spinTimeout bounds every spin-wait below: the other side needs one
// step of progress to end a spin, so a spin this long is a stall, and
// the test fails with its counts instead of sitting in the package
// timeout.
const spinTimeout = 10 * time.Second

// spinUntil retries cond, yielding between tries, until it holds or
// spinTimeout passes; it reports whether cond held.
func spinUntil(cond func() bool) bool {
	if cond() {
		return true
	}
	deadline := time.Now().Add(spinTimeout)
	for !cond() {
		if time.Now().After(deadline) {
			return false
		}
		runtime.Gosched()
	}
	return true
}

// checkTransfer runs producers and consumers and verifies the
// multiset of received values: nothing lost, nothing duplicated.
func checkTransfer(t *testing.T, producers, consumers, perProducer int,
	put func(int) bool, get func() (int, bool)) {
	t.Helper()
	total := int64(producers * perProducer)
	var got sync.Map
	var wg sync.WaitGroup
	var received atomic.Int64

	for c := 0; c < consumers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var v int
			var ok bool
			poll := func() bool {
				v, ok = get()
				return ok || received.Load() >= total
			}
			for {
				if !spinUntil(poll) {
					t.Errorf("consumer stalled: received %d of %d items", received.Load(), total)
					return
				}
				if !ok {
					return
				}
				if _, dup := got.LoadOrStore(v, true); dup {
					t.Errorf("duplicate item %d", v)
				}
				received.Add(1)
			}
		}()
	}
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			var v int
			try := func() bool { return put(v) }
			for i := 0; i < perProducer; i++ {
				v = p*perProducer + i
				if !spinUntil(try) {
					t.Errorf("producer %d stalled at item %d of %d: received %d of %d items",
						p, i, perProducer, received.Load(), total)
					return
				}
			}
		}(p)
	}
	wg.Wait()
	count := int64(0)
	got.Range(func(k, v any) bool { count++; return true })
	if count != total {
		t.Errorf("received %d distinct items, want %d", count, total)
	}
}

func TestSPSCConcurrent(t *testing.T) {
	q := queue.NewSPSC[int](64)
	checkTransfer(t, 1, 1, 20000, q.TryPut, q.TryGet)
}

func TestMPSCConcurrent(t *testing.T) {
	q := queue.NewMPSC[int](64)
	checkTransfer(t, 8, 1, 5000, q.TryPut, q.TryGet)
}

func TestSPMCConcurrent(t *testing.T) {
	q := queue.NewSPMC[int](64)
	checkTransfer(t, 1, 8, 20000, q.TryPut, q.TryGet)
}

func TestMPMCConcurrent(t *testing.T) {
	q := queue.NewMPMC[int](64)
	checkTransfer(t, 8, 8, 5000, q.TryPut, q.TryGet)
}

func TestLockedConcurrent(t *testing.T) {
	q := queue.NewLocked[int](64)
	checkTransfer(t, 8, 8, 5000, q.TryPut, q.TryGet)
}

func TestMPSCPutBatchAtomicity(t *testing.T) {
	// Batches from competing producers must never interleave.
	q := queue.NewMPSC[int](256)
	const batch = 16
	const perProducer = 200
	const producers = 4
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			items := make([]int, batch)
			for i := 0; i < perProducer; i++ {
				base := (p*perProducer + i) * batch
				for k := range items {
					items[k] = base + k
				}
				if !spinUntil(func() bool { return q.PutBatch(items) }) {
					t.Errorf("producer %d stalled at batch %d of %d", p, i, perProducer)
					return
				}
			}
		}(p)
	}
	const total = producers * perProducer * batch
	got := 0
	seen := make(map[int]bool)
	// next waits for the next item, failing the test with the count
	// received if none arrives.
	next := func() int {
		var v int
		var ok bool
		if !spinUntil(func() bool { v, ok = q.TryGet(); return ok }) {
			t.Fatalf("consumer stalled: received %d of %d items", got, total)
		}
		return v
	}
	for got < total {
		v := next()
		if seen[v] {
			t.Fatalf("duplicate %d", v)
		}
		seen[v] = true
		// Check batch contiguity: items within one batch must arrive
		// consecutively.
		if v%batch == 0 {
			for k := 1; k < batch; k++ {
				w := next()
				if w != v+k {
					t.Fatalf("batch interleaved: got %d after %d, want %d", w, v, v+k)
				}
				seen[w] = true
				got++
			}
		}
		got++
	}
	wg.Wait()
}

func TestPutBatchRejectsOversizeAndFull(t *testing.T) {
	q := queue.NewMPSC[int](8)
	if q.PutBatch(make([]int, 9)) {
		t.Error("batch larger than capacity accepted")
	}
	if !q.PutBatch([]int{1, 2, 3, 4, 5, 6}) {
		t.Error("fitting batch rejected")
	}
	if q.PutBatch([]int{7, 8, 9}) {
		t.Error("batch exceeding remaining space accepted")
	}
	if !q.PutBatch(nil) {
		t.Error("empty batch rejected")
	}
	// Drain some, then it fits.
	q.TryGet()
	q.TryGet()
	q.TryGet()
	if !q.PutBatch([]int{7, 8, 9}) {
		t.Error("batch rejected after drain")
	}
}

func TestLockedBlockingPutGet(t *testing.T) {
	q := queue.NewLocked[int](2)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			if !q.Put(i) {
				t.Error("put failed before close")
				return
			}
		}
		q.Close()
	}()
	got := 0
	for {
		v, ok := q.Get()
		if !ok {
			break
		}
		if v != got {
			t.Fatalf("got %d, want %d", v, got)
		}
		got++
	}
	if got != 50 {
		t.Errorf("received %d items, want 50", got)
	}
	wg.Wait()
	if q.Put(1) {
		t.Error("put after close succeeded")
	}
}

func TestZeroSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewSPSC(0) did not panic")
		}
	}()
	queue.NewSPSC[int](0)
}
