// The conformance tests of the paper's optimistic queues (Section 3.2),
// each queue kind run against the one implementation the repository
// keeps of it. The directory holds tests only: there is no queue
// package to import.
//
//   - mpsc is net.PacketRing, Figure 2's discipline on frames, the
//     fleet fabric's queue.
//   - locked is the guest's Figure 2 queue with the masked put, the
//     locked queue a uniprocessor kernel would otherwise use, its
//     routines called from Go one at a time on a kernel of their own.
//
// The guest's masked and batch puts also run under kernel-thread
// contention, through the runs of internal/bench's queue_contention
// table. The guest queue holds bytes, an item's low byte, so the
// guest cases keep their items below 256.
package queue_test

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"synthesis/internal/asmkit"
	"synthesis/internal/bench"
	"synthesis/internal/kernel"
	"synthesis/internal/m68k"
	"synthesis/internal/net"
)

// nb is the non-blocking queue every kind is driven through.
type nb interface {
	TryPut(int) bool
	TryGet() (int, bool)
	Cap() int
}

// ring puts an item in a frame's Dst.
type ring struct {
	*net.PacketRing
	capacity int
}

func newRing(capacity int) ring { return ring{net.NewPacketRing(capacity), capacity} }

func (r ring) TryPut(v int) bool { return r.Put(net.Frame{Dst: uint32(v)}) }

func (r ring) TryGet() (int, bool) {
	f, ok := r.Get()
	return int(f.Dst), ok
}

func (r ring) Cap() int { return r.capacity }

// guestQueue calls the guest's Figure 2 routines through stubs that
// JSR to one and halt.
type guestQueue struct {
	m        *m68k.Machine
	put, get uint32
	batch    func(h int32) uint32
	batches  map[int]uint32 // batch put stubs by batch size
	stack    uint32
	capacity int
}

// newGuestQueue boots a kernel and lays out a queue for capacity
// items on it, with the masked put.
func newGuestQueue(capacity int) *guestQueue {
	k := kernel.Boot(kernel.Config{Machine: m68k.Sun3Config()})
	stack, _ := k.Heap.Alloc(256)
	put, get, batch := bench.Fig2Queue(k, int32(capacity))
	g := &guestQueue{m: k.M, batch: batch, batches: map[int]uint32{}, stack: stack + 256, capacity: capacity}
	g.put, g.get = g.stub(put), g.stub(get)
	return g
}

func (g *guestQueue) stub(routine uint32) uint32 {
	return asmkit.New().Jsr(routine).Halt().Link(g.m)
}

// call runs stub from supervisor state with D1 = d1 and returns D0
// and D1 at the halt.
func (g *guestQueue) call(stub, d1 uint32) (d0, out uint32) {
	m := g.m
	m.ClearHalt()
	m.PC, m.A[7], m.SR, m.D[1] = stub, g.stack, m68k.FlagS|7<<8, d1
	for steps := 0; ; steps++ {
		err := m.Step()
		if m.Halted() {
			return m.D[0], m.D[1]
		}
		if err != nil || steps > 10_000 {
			panic(fmt.Sprintf("queue: guest call ran away at %d: %v", m.PC, err))
		}
	}
}

func (g *guestQueue) TryPut(v int) bool {
	d0, _ := g.call(g.put, uint32(v))
	return d0 == 1
}

func (g *guestQueue) TryGet() (int, bool) {
	d0, v := g.call(g.get, 0)
	return int(v & 0xff), d0 == 1
}

func (g *guestQueue) Cap() int { return g.capacity }

// putBatch puts h copies of v with one claim.
func (g *guestQueue) putBatch(h, v int) bool {
	s, ok := g.batches[h]
	if !ok {
		s = g.stub(g.batch(int32(h)))
		g.batches[h] = s
	}
	d0, _ := g.call(s, uint32(v))
	return d0 == 1
}

func kinds(size int) map[string]func() nb {
	return map[string]func() nb{
		"mpsc":   func() nb { return newRing(size) },
		"locked": func() nb { return newGuestQueue(size) },
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

// TestFullRejectsPut: a full queue refuses a put, and the ring counts
// each refusal as a drop.
func TestFullRejectsPut(t *testing.T) {
	for name, mk := range kinds(4) {
		t.Run(name, func(t *testing.T) {
			q := mk()
			for i := 0; i < q.Cap(); i++ {
				if !q.TryPut(i) {
					t.Fatalf("put %d failed on non-full queue", i)
				}
			}
			if q.TryPut(4) {
				t.Fatal("put into full queue succeeded")
			}
			// Draining one must admit exactly one more.
			if _, ok := q.TryGet(); !ok {
				t.Fatal("drain failed")
			}
			if !q.TryPut(99) {
				t.Error("put after drain failed")
			}
			if q.TryPut(100) {
				t.Error("put into full queue succeeded")
			}
			if r, ok := q.(ring); ok && r.Drops() != 2 {
				t.Errorf("drops = %d, want 2", r.Drops())
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

// TestQueueMatchesModel: any interleaving of puts and gets on the ring
// matches a model FIFO exactly, and every put refused at a full ring
// is counted as a drop.
func TestQueueMatchesModel(t *testing.T) {
	check := func(seed int64, sizeRaw uint8) bool {
		size := int(sizeRaw%16) + 1
		rng := rand.New(rand.NewSource(seed))
		r := newRing(size)
		var model []int
		var drops uint64
		for op := 0; op < 200; op++ {
			if rng.Intn(2) == 0 {
				v := rng.Intn(1000)
				switch ok := r.TryPut(v); {
				case ok && len(model) < size:
					model = append(model, v)
				case !ok && len(model) == size:
					drops++
				default:
					t.Logf("put = %v with %d/%d frames", ok, len(model), size)
					return false
				}
				if r.Drops() != drops {
					t.Logf("drops = %d, want %d", r.Drops(), drops)
					return false
				}
				continue
			}
			v, ok := r.TryGet()
			if ok != (len(model) > 0) {
				t.Logf("get = (%d,%v) with %d frames queued", v, ok, len(model))
				return false
			}
			if ok {
				if v != model[0] {
					t.Logf("got %d, want %d", v, model[0])
					return false
				}
				model = model[1:]
			}
		}
		// Drain and compare the remainder.
		for _, want := range model {
			if v, ok := r.TryGet(); !ok || v != want {
				t.Logf("drain got (%d,%v), want %d", v, ok, want)
				return false
			}
		}
		if _, ok := r.TryGet(); ok {
			t.Log("ring not empty after drain")
			return false
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestPutBatchRejectsOversizeAndFull: the guest's batch put claims its
// h slots only when all of them are free. A batch larger than the
// queue and one larger than the room left are refused whole; then,
// round and round the queue, so that the tail is behind the head and
// ahead of it, a batch is accepted exactly when it fits, and every
// batch comes out whole and in order.
func TestPutBatchRejectsOversizeAndFull(t *testing.T) {
	q := newGuestQueue(8)
	if q.putBatch(9, 1) {
		t.Error("batch larger than capacity accepted")
	}
	if !q.putBatch(6, 2) {
		t.Error("fitting batch rejected")
	}
	if q.putBatch(3, 3) {
		t.Error("batch exceeding remaining space accepted")
	}
	model := []int{2, 2, 2, 2, 2, 2}
	get := func() {
		v, ok := q.TryGet()
		if !ok || v != model[0] {
			t.Fatalf("get = (%d,%v), want (%d,true)", v, ok, model[0])
		}
		model = model[1:]
	}
	for range 3 {
		get()
	}
	for step := 0; step < 60; step++ {
		h, v := 1+step%5, 10+step
		fits := len(model)+h <= q.Cap()
		if got := q.putBatch(h, v); got != fits {
			t.Fatalf("step %d: batch of %d with %d/%d queued: put = %v", step, h, len(model), q.Cap(), got)
		}
		if fits {
			for range h {
				model = append(model, v)
			}
		}
		for range min(len(model), step%4+1) {
			get()
		}
	}
	for len(model) > 0 {
		get()
	}
	if v, ok := q.TryGet(); ok {
		t.Fatalf("empty queue yielded %d", v)
	}
}

// ---------------------------------------------------------------------
// Concurrency: no lost or duplicated items under contention. The ring
// runs on goroutines (run with -race); the guest's puts run on kernel
// threads preempted inside their claims.

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

// checkTransfer runs producers against the one consumer and verifies
// the set of received values: nothing lost, nothing duplicated.
func checkTransfer(t *testing.T, producers, perProducer int, put func(int) bool, get func() (int, bool)) {
	t.Helper()
	total := producers * perProducer
	seen := make([]bool, total)
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			var v int
			try := func() bool { return put(v) }
			for i := 0; i < perProducer; i++ {
				v = p*perProducer + i
				if !spinUntil(try) {
					t.Errorf("producer %d stalled at item %d of %d", p, i, perProducer)
					return
				}
			}
		}(p)
	}
	var v int
	poll := func() bool {
		var ok bool
		v, ok = get()
		return ok
	}
	for got := 0; got < total; got++ {
		if !spinUntil(poll) {
			t.Errorf("consumer stalled: received %d of %d items", got, total)
			break
		}
		if seen[v] {
			t.Errorf("duplicate item %d", v)
		}
		seen[v] = true
	}
	wg.Wait()
}

func TestMPSCConcurrent(t *testing.T) {
	r := newRing(64)
	checkTransfer(t, 8, 5000, r.TryPut, r.TryGet)
}

// contentionQuantumUS is queue_contention's quantum for its main sweep.
const contentionQuantumUS = 100

// TestLockedConcurrent: the masked put with 8 and 64 producer threads
// feeding one consumer thread; every item arrives once and in its
// producer's order.
func TestLockedConcurrent(t *testing.T) {
	for _, n := range []int{8, 64} {
		if _, _, err := bench.RunContention(bench.PutMasked, n, contentionQuantumUS); err != nil {
			t.Error(err)
		}
	}
}

// TestMPSCPutBatchAtomicity: batches from competing producer threads,
// each preempted inside its claims, never interleave: every 8-item
// batch arrives contiguous.
func TestMPSCPutBatchAtomicity(t *testing.T) {
	for _, n := range []int{8, 64} {
		if _, _, err := bench.RunContention(bench.PutBatch, n, contentionQuantumUS); err != nil {
			t.Error(err)
		}
	}
}

// TestShortQuantaComplete: with every thread on a 25 or 28 µs quantum,
// 8 producers and the consumer still move every item. A quantum that
// expires while the switch runs masked must not outlive it; when it
// did, each thread switched in was preempted at its first instruction
// and these runs spun to the cycle limit.
func TestShortQuantaComplete(t *testing.T) {
	for _, kind := range []bench.PutKind{bench.PutCAS, bench.PutMasked} {
		for _, us := range []float64{25, 28} {
			usPerItem, _, err := bench.RunContention(kind, 8, us)
			if err != nil {
				t.Errorf("put %d, %g µs quantum: %v", kind, us, err)
				continue
			}
			t.Logf("put %d, %g µs quantum: %.1f µs per item", kind, us, usPerItem)
		}
	}
}

func TestZeroSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewPacketRing(0) did not panic")
		}
	}()
	net.NewPacketRing(0)
}
