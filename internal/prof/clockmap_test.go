package prof

import (
	"math"
	"testing"
)

// TestClockMapRoundTrip exercises WallNS at several simulated clock
// rates, with sync points spaced unevenly the way a chunked fleet
// driver produces them: it must hit every sync point exactly,
// interpolate linearly between them, and never run backwards.
func TestClockMapRoundTrip(t *testing.T) {
	for _, mhz := range []float64{1, 16, 25, 1000} {
		cm := NewClockMap(mhz)
		// Uneven host scheduling: equal cycle chunks take varying
		// wall time.
		cycle := uint64(0)
		wall := int64(0)
		walls := []int64{100_000, 250_000, 80_000, 500_000, 120_000}
		for _, dw := range walls {
			cm.Sync(cycle, wall)
			if got := cm.WallNS(cycle); got != wall {
				t.Fatalf("mhz=%v sync point %d: WallNS = %d, want %d", mhz, cycle, got, wall)
			}
			if cycle > 0 {
				if mid, want := cm.WallNS(cycle-2048), wall-walls[cycle/4096-1]/2; mid != want {
					t.Fatalf("mhz=%v halfway to %d: WallNS = %d, want %d", mhz, cycle, mid, want)
				}
			}
			cycle += 4096
			wall += dw
		}
		cm.Sync(cycle, wall)

		// Interpolated wall times must be monotone in cycles.
		prev := cm.WallNS(0)
		for q := uint64(1); q <= cycle; q += 97 {
			w := cm.WallNS(q)
			if w < prev {
				t.Fatalf("mhz=%v wall went backwards at cycle %d: %d < %d", mhz, q, w, prev)
			}
			prev = w
		}
	}
}

// TestClockMapExtrapolation checks that queries outside the sync
// range run at the simulated rate from the nearest anchor, and that
// an empty map degenerates to pure simulated time.
func TestClockMapExtrapolation(t *testing.T) {
	cm := NewClockMap(16) // 16 MHz ⇒ 62.5 ns/cycle
	if got := cm.WallNS(1600); got != 100_000 {
		t.Fatalf("empty map: WallNS(1600) = %d, want 100000", got)
	}
	cm.Sync(10_000, 1_000_000)
	cm.Sync(20_000, 2_000_000)
	// 1600 cycles past the last sync at 62.5 ns/cycle = 100 µs.
	if got := cm.WallNS(21_600); got != 2_100_000 {
		t.Fatalf("forward extrapolation: got %d, want 2100000", got)
	}
	// 1600 cycles before the first sync.
	if got := cm.WallNS(8_400); got != 900_000 {
		t.Fatalf("backward extrapolation: got %d, want 900000", got)
	}
}

// TestClockMapRestart simulates a VM restart: the cycle counter
// resets to near zero while wall time keeps advancing. The map must
// re-anchor on the new epoch and keep the wall axis monotonic.
func TestClockMapRestart(t *testing.T) {
	cm := NewClockMap(16)
	cm.Sync(1_000_000, 10_000_000)
	cm.Sync(2_000_000, 20_000_000)
	before := cm.WallNS(2_000_000)

	// Restart: cycles drop to 4096, wall keeps going.
	cm.Sync(4096, 25_000_000)
	cm.Sync(8192, 26_000_000)
	// A cycle of the old epoch is read in the new one: extrapolated at
	// 62.5 ns/cycle past its last sync, not interpolated to 15 ms.
	if got, want := cm.WallNS(1_500_000), int64(26_000_000+(1_500_000-8192)*125/2); got != want {
		t.Fatalf("old epoch not dropped: WallNS(1500000) = %d, want %d", got, want)
	}
	after := cm.WallNS(4096)
	if after < before {
		t.Fatalf("wall axis ran backwards across restart: %d < %d", after, before)
	}
	if got := cm.WallNS(6144); got != 25_500_000 {
		t.Fatalf("post-restart interpolation: got %d, want 25500000", got)
	}

	// A wall reading that itself runs backwards is clamped.
	cm.Sync(12_288, 25_900_000)
	if got := cm.WallNS(12_288); got < 26_000_000 {
		t.Fatalf("wall clamp failed: got %d, want >= 26000000", got)
	}
}

// TestClockMapOverflow anchors sync points near the top of the uint64
// cycle range and checks interpolation and extrapolation stay exact —
// the delta arithmetic must not overflow or lose the anchor.
func TestClockMapOverflow(t *testing.T) {
	top := uint64(math.MaxUint64)
	cm := NewClockMap(1000) // 1 ns/cycle: deltas map 1:1 to ns
	cm.Sync(top-20_000, 1_000_000)
	cm.Sync(top-10_000, 1_020_000)
	if got := cm.WallNS(top - 15_000); got != 1_010_000 {
		t.Fatalf("interpolation near top: got %d, want 1010000", got)
	}
	// Extrapolate right up to the counter limit.
	if got := cm.WallNS(top); got != 1_030_000 {
		t.Fatalf("extrapolation to MaxUint64: got %d, want 1030000", got)
	}
	// A wrap (cycle below the last sync) re-anchors as a new epoch
	// rather than producing a huge bogus delta.
	cm.Sync(100, 1_040_000)
	if got := cm.WallNS(100); got != 1_040_000 {
		t.Fatalf("post-wrap anchor: got %d, want 1040000", got)
	}
	if got := cm.WallNS(1100); got != 1_041_000 {
		t.Fatalf("post-wrap extrapolation: got %d, want 1041000", got)
	}
}

// TestClockMapSyncCap checks the bounded window keeps the most recent
// points: past the cap it drops the older half at once.
func TestClockMapSyncCap(t *testing.T) {
	cm := NewClockMap(16)
	cm.cap = 8
	for i := 0; i < 100; i++ {
		cm.Sync(uint64(i)*1000, int64(i)*100_000)
		if n := len(cm.sync); n > cm.cap || i >= cm.cap/2 && n < cm.cap/2 {
			t.Fatalf("after %d syncs the map holds %d points, want %d to %d", i+1, n, cm.cap/2, cm.cap)
		}
	}
	// The 9th sync and every fifth after it, up to the 99th, dropped the
	// older half: the first point kept is cycle 95,000, and a cycle
	// before it is extrapolated from there at 62.5 ns/cycle, not
	// interpolated on the 100 ns/cycle the dropped points held.
	if got, want := cm.WallNS(50_000), int64(9_500_000-45_000*125/2); got != want {
		t.Fatalf("cap not enforced: WallNS(50000) = %d, want %d", got, want)
	}
	// Recent range still interpolates exactly.
	if got := cm.WallNS(98_500); got != 9_850_000 {
		t.Fatalf("recent interpolation after cap: got %d, want 9850000", got)
	}
}

// BenchmarkClockMapSync is one Sync on a full map, as a fleet driver
// makes one per chunk once its VM has run 4,096 of them.
func BenchmarkClockMapSync(b *testing.B) {
	cm := NewClockMap(16)
	for i := range defaultSyncCap {
		cm.Sync(uint64(i)*4096, int64(i)*1000)
	}
	b.ResetTimer()
	for i := defaultSyncCap; i < defaultSyncCap+b.N; i++ {
		cm.Sync(uint64(i)*4096, int64(i)*1000)
	}
}
