package queue_test

import (
	"sync/atomic"
	"testing"
)

// TestWraparoundTable drives every queue kind through put/get patterns
// that repeatedly cross the index wraparound and the full and empty
// boundaries, checked step by step against a model FIFO. A TryPut that
// reports false must leave the queue untouched — the "would block"
// result is a distinct outcome, never a silent drop — and a TryPut
// that reports true must deliver exactly that item in order.
func TestWraparoundTable(t *testing.T) {
	type step struct{ puts, gets int }
	cases := []struct {
		name    string
		size    int
		pattern []step
		laps    int
	}{
		{"lockstep", 1, []step{{1, 1}}, 40},
		{"pairs", 2, []step{{2, 2}}, 30},
		{"overrun", 3, []step{{5, 2}, {3, 4}}, 20},
		{"brim", 4, []step{{4, 4}}, 25},
		{"drain-behind", 5, []step{{3, 1}, {1, 3}}, 25},
		{"prime-stride", 7, []step{{5, 3}, {2, 4}}, 20},
		{"gorge-and-drain", 4, []step{{9, 9}}, 15},
	}
	for _, tc := range cases {
		for name, mk := range kinds(tc.size) {
			t.Run(tc.name+"/"+name, func(t *testing.T) {
				q := mk()
				var model []int
				next := 0
				for lap := 0; lap < tc.laps; lap++ {
					for _, st := range tc.pattern {
						for i := 0; i < st.puts; i++ {
							ok := q.TryPut(next)
							if want := len(model) < q.Cap(); ok != want {
								t.Fatalf("lap %d: TryPut(%d) = %v with %d/%d queued",
									lap, next, ok, len(model), q.Cap())
							}
							if ok {
								model = append(model, next)
								next++
							}
						}
						for i := 0; i < st.gets; i++ {
							v, ok := q.TryGet()
							if want := len(model) > 0; ok != want {
								t.Fatalf("lap %d: TryGet = (_, %v) with %d queued",
									lap, ok, len(model))
							}
							if ok {
								if v != model[0] {
									t.Fatalf("lap %d: got %d, want %d", lap, v, model[0])
								}
								model = model[1:]
							}
						}
					}
				}
				for len(model) > 0 {
					v, ok := q.TryGet()
					if !ok || v != model[0] {
						t.Fatalf("drain: got (%d, %v), want (%d, true)", v, ok, model[0])
					}
					model = model[1:]
				}
				if v, ok := q.TryGet(); ok {
					t.Fatalf("empty queue yielded %d", v)
				}
			})
		}
	}
}

// TestConcurrentFullEmptyRaces hammers a capacity-2 ring so producers
// constantly race the full boundary and the consumer the empty one,
// then verifies the transfer: every item whose put reported true
// arrives exactly once, and refused puts really happened — the
// boundary was contended, not skated past. Run with -race. (The
// guest's puts race their edges in TestLockedConcurrent and
// TestMPSCPutBatchAtomicity, where producers yield on a full queue
// and the consumer on an empty one.)
func TestConcurrentFullEmptyRaces(t *testing.T) {
	t.Run("mpsc", func(t *testing.T) {
		r := newRing(2)
		var emptyHits atomic.Int64
		checkTransfer(t, 8, 1000, r.TryPut, func() (int, bool) {
			v, ok := r.TryGet()
			if !ok {
				emptyHits.Add(1)
			}
			return v, ok
		})
		if r.Drops() == 0 {
			t.Error("no put ever found the ring full; boundary untested")
		}
		if emptyHits.Load() == 0 {
			t.Error("no get ever found the ring empty; boundary untested")
		}
	})
}
