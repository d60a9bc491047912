package prof

import "sync"

// ClockMap maps one machine's cycle clock onto a host wall clock.
//
// A cycle-stepped VM has two times: the simulated one (Machine.Clock()
// cycles, converted to simulated microseconds by ClockMHz) and the
// wall-clock instants at which the host actually executed those
// cycles — a fleet driver runs each VM in bounded chunks interleaved
// with its siblings, so a cycle's wall time depends on host
// scheduling, not on ClockMHz. The map learns the relation from
// periodic sync points (a (cycle, wall-nanosecond) pair recorded at
// each chunk boundary, where the driver holds both clocks in hand)
// and answers WallNS by interpolating between the bracketing
// sync points. Outside the observed range it extrapolates at
// ClockMHz, the only rate available before the first chunk lands.
//
// A cycle source that jumps backwards (a VM restart, or a uint64
// wrap) starts a new epoch: the map re-anchors on the new cycle base
// and keeps the wall axis monotonic — queries always answer in the
// current epoch.
type ClockMap struct {
	mu   sync.Mutex
	mhz  float64
	sync []syncPoint // current epoch, ascending in both axes
	cap  int
}

type syncPoint struct {
	cycle uint64
	wall  int64 // nanoseconds on the caller's wall axis
}

// defaultSyncCap bounds the retained sync points: a Sync past it drops
// the older half at once, so each Sync moves O(1) points on average
// (traced requests complete within a few chunks, so only the recent
// window matters).
const defaultSyncCap = 4096

// NewClockMap creates a map for a machine running at mhz (the
// simulated clock rate, used for extrapolation until sync points
// bracket the query).
func NewClockMap(mhz float64) *ClockMap {
	if mhz <= 0 {
		mhz = 1
	}
	return &ClockMap{mhz: mhz, cap: defaultSyncCap}
}

// Sync records one (cycle, wall) observation. Cycles must come from
// one machine's Clock(); wall is nanoseconds on any fixed axis (the
// cluster uses time.Since(start)). A cycle below the previous sync's
// re-anchors (new epoch); a wall reading below the previous one is
// clamped so the wall axis never runs backwards.
func (cm *ClockMap) Sync(cycle uint64, wallNS int64) {
	cm.mu.Lock()
	defer cm.mu.Unlock()
	if n := len(cm.sync); n > 0 {
		last := cm.sync[n-1]
		if cycle < last.cycle {
			// Restart or counter wrap: drop the old epoch, keep the
			// wall axis where it was.
			cm.sync = cm.sync[:0]
		}
		if wallNS < last.wall {
			wallNS = last.wall
		}
		if cycle == last.cycle && len(cm.sync) > 0 {
			cm.sync[len(cm.sync)-1].wall = wallNS
			return
		}
	}
	cm.sync = append(cm.sync, syncPoint{cycle: cycle, wall: wallNS})
	if len(cm.sync) > cm.cap {
		cm.sync = append(cm.sync[:0], cm.sync[len(cm.sync)-cm.cap/2:]...)
	}
}

// WallNS maps a cycle to wall nanoseconds: linear interpolation
// between the bracketing sync points, ClockMHz extrapolation beyond
// them. With no sync points the map degenerates to pure simulated
// time (cycles/mhz).
func (cm *ClockMap) WallNS(cycle uint64) int64 {
	cm.mu.Lock()
	defer cm.mu.Unlock()
	n := len(cm.sync)
	if n == 0 {
		return cm.extrapolate(syncPoint{}, cycle)
	}
	if cycle <= cm.sync[0].cycle {
		return cm.extrapolate(cm.sync[0], cycle)
	}
	if cycle >= cm.sync[n-1].cycle {
		return cm.extrapolate(cm.sync[n-1], cycle)
	}
	// Binary search for the first sync past the query.
	lo, hi := 0, n-1
	for lo+1 < hi {
		mid := (lo + hi) / 2
		if cm.sync[mid].cycle <= cycle {
			lo = mid
		} else {
			hi = mid
		}
	}
	a, b := cm.sync[lo], cm.sync[hi]
	span := b.cycle - a.cycle // > 0 by construction
	frac := float64(cycle-a.cycle) / float64(span)
	return a.wall + int64(frac*float64(b.wall-a.wall))
}

// extrapolate projects from an anchor at the simulated rate. Cycle
// deltas are taken as uint64 differences in either direction, so
// anchors near the top of the counter range stay exact.
func (cm *ClockMap) extrapolate(from syncPoint, cycle uint64) int64 {
	if cycle >= from.cycle {
		return from.wall + int64(float64(cycle-from.cycle)*1e3/cm.mhz)
	}
	return from.wall - int64(float64(from.cycle-cycle)*1e3/cm.mhz)
}
