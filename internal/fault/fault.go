package fault

import (
	"math/rand"
	"time"

	"synthesis/internal/m68k"
)

// Spurious schedules interrupts at a level with no cause: the device
// asserts, the handler finds nothing to do. MeanGap is the mean cycle
// spacing (exponentially distributed, like real glitches).
type Spurious struct {
	Level   int
	MeanGap uint64
}

// Storm schedules a burst: Count interrupts at Level, the first at
// cycle At, then one every Gap cycles — a screaming device.
type Storm struct {
	Level int
	At    uint64
	Count int
	Gap   uint64
}

// BusErr schedules a one-shot bus error on the Nth load or store that
// lands in the named device's register window (1-based).
type BusErr struct {
	Dev string
	Nth uint64
}

// Wire is the four frame faults a NIC wire and a fabric link share.
// Probabilities are per-frame Bernoulli draws in [0,1]; Hold is in the
// wire's unit: cycles of receive-interrupt latency on a NIC, nanoseconds
// (parsed from milliseconds) on a link.
type Wire struct {
	Drop    float64 // P(frame lost on the wire)
	Corrupt float64 // P(one frame byte flipped in the sum/payload region)
	Dup     float64 // P(frame delivered twice)
	Delay   float64 // P(frame held for Hold)
	Hold    uint64
}

// Draw decides one frame's faults with one Bernoulli trial per knob, in
// a fixed order (drop, corrupt, delay, dup) so a seed replays. A dropped
// frame draws nothing further, and a zero probability never draws.
func (w Wire) Draw(rng *rand.Rand) (drop, corrupt, delay, dup bool) {
	if hit(rng, w.Drop) {
		return true, false, false, false
	}
	corrupt = hit(rng, w.Corrupt)
	delay = hit(rng, w.Delay)
	dup = hit(rng, w.Dup)
	return
}

// hit draws one Bernoulli trial.
func hit(rng *rand.Rand, p float64) bool {
	return p > 0 && rng.Float64() < p
}

// Plan is a complete fault schedule, as Parse returns it: the machine
// items an Injector executes, and the fleet clauses only a cluster
// reads. Zero values inject nothing.
type Plan struct {
	Wire             // the NIC wire's frame faults
	RingFull float64 // P(receive ring pretends to be full)
	Jitter   uint64  // timer armings gain uniform [0,Jitter) extra cycles

	Spurious []Spurious
	Storms   []Storm
	BusErrs  []BusErr

	// Links are the fabric's per-link rules, consulted in order; the
	// first matching rule governs a frame.
	Links []Link
	// Partitions is the scripted cut/heal schedule.
	Partitions []Partition
	// VMs holds the machine plan of each member VM with a vmfault=
	// clause: the plain items followed by the VM's own.
	VMs map[int]Plan
}

// Empty reports whether the plan's machine items inject nothing.
func (p Plan) Empty() bool {
	return p.Wire == (Wire{}) && p.RingFull == 0 && p.Jitter == 0 &&
		len(p.Spurious)+len(p.Storms)+len(p.BusErrs) == 0
}

// Fleet reports whether the plan has a clause only a cluster can
// execute — the one check single-machine consumers reject a spec by.
func (p Plan) Fleet() bool {
	return len(p.Links)+len(p.Partitions)+len(p.VMs) > 0
}

// VM returns member VM id's machine plan: its vmfault= plan if it has
// one, otherwise the plan's own machine items.
func (p Plan) VM(id int) Plan {
	if v, ok := p.VMs[id]; ok {
		return v
	}
	p.Links, p.Partitions, p.VMs = nil, nil, nil
	return p
}

// Link is one src->dst fabric link's fault rule. Src/Dst are fabric
// node ids (0 = host); WildcardNode matches any node.
type Link struct {
	Src, Dst int

	Wire            // Hold is a time.Duration
	Reorder float64 // P(frame held briefly so later frames overtake)
	Rate    float64 // max frames/sec through the link (0 = unthrottled)
}

// WildcardNode in Link.Src/Dst matches every node.
const WildcardNode = -1

// Matches reports whether the rule governs frames from src to dst.
func (l Link) Matches(src, dst int) bool {
	return (l.Src == WildcardNode || l.Src == src) &&
		(l.Dst == WildcardNode || l.Dst == dst)
}

// Partition is one scheduled cut: every link between a node in A and a
// node in B (both directions) is severed during [From, To) measured
// from the cluster's start, and healed at To.
type Partition struct {
	A, B     []int
	From, To time.Duration
}

// Stats counts what the injector actually did, for reports and test
// assertions.
type Stats struct {
	Frames     uint64 // frames seen on the wire
	Dropped    uint64
	Corrupted  uint64
	Duplicated uint64
	Delayed    uint64
	ForcedFull uint64
	BusErrors  uint64
	SpuriousUp uint64 // spurious interrupts asserted
	StormUp    uint64 // storm interrupts asserted
}

// Injector implements m68k.Injector (the nil-checked device-layer
// hook) and m68k.Device (a windowless device whose Tick is the clock
// source for spurious interrupts and storms).
type Injector struct {
	Plan  Plan
	Stats Stats

	rng      *rand.Rand
	accesses map[string]uint64
	fired    []bool // per BusErr, already delivered

	spurNext []uint64 // per Spurious, absolute cycle of next assertion
	stormN   []int    // per Storm, interrupts already asserted
	stormAt  []uint64 // per Storm, absolute cycle of next assertion
}

// New builds an injector executing plan with all randomness drawn
// from seed.
func New(plan Plan, seed int64) *Injector {
	inj := &Injector{
		Plan:     plan,
		rng:      rand.New(rand.NewSource(seed)),
		accesses: make(map[string]uint64),
		fired:    make([]bool, len(plan.BusErrs)),
		spurNext: make([]uint64, len(plan.Spurious)),
		stormN:   make([]int, len(plan.Storms)),
		stormAt:  make([]uint64, len(plan.Storms)),
	}
	for i, s := range plan.Storms {
		inj.stormAt[i] = s.At
		if inj.stormAt[i] == 0 {
			inj.stormAt[i] = 1
		}
	}
	return inj
}

// Attach wires the injector into a machine: the device-layer hook
// always, and the interrupt source only when the plan schedules
// spurious interrupts or storms (keeping the per-access device scan
// unchanged otherwise).
func (inj *Injector) Attach(m *m68k.Machine) {
	m.Inj = inj
	if len(inj.Plan.Spurious)+len(inj.Plan.Storms) > 0 {
		m.Attach(inj)
	}
}

// AccessFault implements m68k.Injector.
func (inj *Injector) AccessFault(dev m68k.Device, off uint32, write bool) bool {
	if len(inj.Plan.BusErrs) == 0 {
		return false
	}
	name := dev.Name()
	inj.accesses[name]++
	n := inj.accesses[name]
	for i, b := range inj.Plan.BusErrs {
		if !inj.fired[i] && b.Dev == name && n == b.Nth {
			inj.fired[i] = true
			inj.Stats.BusErrors++
			return true
		}
	}
	return false
}

// Frame implements m68k.Injector: one wire transit. The 12-byte wire
// header is [dst][src][checksum]; corruption flips a byte at offset 8
// or later (checksum or payload), so every corrupted frame is
// detectable by the receiver's checksum verify — corrupting the
// address words would model misrouting instead, a different fault.
func (inj *Injector) Frame(frame []byte) ([][]byte, uint64) {
	inj.Stats.Frames++
	drop, corrupt, delay, dup := inj.Plan.Draw(inj.rng)
	if drop {
		inj.Stats.Dropped++
		return nil, 0
	}
	f := append([]byte(nil), frame...)
	if corrupt {
		lo := 8
		if len(f) <= lo {
			lo = 0
		}
		if len(f) > lo {
			f[lo+inj.rng.Intn(len(f)-lo)] ^= 1 << uint(inj.rng.Intn(8))
			inj.Stats.Corrupted++
		}
	}
	var hold uint64
	if delay {
		hold = inj.Plan.Hold
		inj.Stats.Delayed++
	}
	out := [][]byte{f}
	if dup {
		out = append(out, append([]byte(nil), f...))
		inj.Stats.Duplicated++
	}
	return out, hold
}

// RingFull implements m68k.Injector.
func (inj *Injector) RingFull() bool {
	if hit(inj.rng, inj.Plan.RingFull) {
		inj.Stats.ForcedFull++
		return true
	}
	return false
}

// TimerArm implements m68k.Injector.
func (inj *Injector) TimerArm(cycles uint64) uint64 {
	if inj.Plan.Jitter > 0 {
		cycles += uint64(inj.rng.Int63n(int64(inj.Plan.Jitter)))
	}
	return cycles
}

// Name implements m68k.Device.
func (inj *Injector) Name() string { return "fault" }

// Base implements m68k.Device. The window is empty (Size 0): the
// injector is an interrupt source, not an addressable peripheral.
func (inj *Injector) Base() uint32 { return 0xffff_ff00 }

// Size implements m68k.Device.
func (inj *Injector) Size() uint32 { return 0 }

// Load implements m68k.Device.
func (inj *Injector) Load(off uint32, sz uint8) uint32 { return 0 }

// Store implements m68k.Device.
func (inj *Injector) Store(off uint32, sz uint8, val uint32) {}

// Tick implements m68k.Device: it asserts at most one due spurious or
// storm interrupt and reports the next scheduled event. When several
// are due at once it returns them across consecutive polls (next ==
// now re-arms the poll immediately).
func (inj *Injector) Tick(now uint64) (int, uint64) {
	irq := 0
	for i := range inj.Plan.Storms {
		s := &inj.Plan.Storms[i]
		if inj.stormN[i] < s.Count && now >= inj.stormAt[i] {
			inj.stormN[i]++
			inj.stormAt[i] = now + s.Gap
			if s.Gap == 0 {
				inj.stormAt[i] = now + 1
			}
			inj.Stats.StormUp++
			irq = s.Level
			break
		}
	}
	if irq == 0 {
		for i := range inj.Plan.Spurious {
			sp := &inj.Plan.Spurious[i]
			if inj.spurNext[i] == 0 {
				inj.spurNext[i] = now + inj.expGap(sp.MeanGap)
				continue
			}
			if now >= inj.spurNext[i] {
				inj.spurNext[i] = now + inj.expGap(sp.MeanGap)
				inj.Stats.SpuriousUp++
				irq = sp.Level
				break
			}
		}
	}
	return irq, inj.nextEvent(now)
}

// expGap draws an exponentially distributed gap with the given mean,
// at least one cycle.
func (inj *Injector) expGap(mean uint64) uint64 {
	g := uint64(inj.rng.ExpFloat64() * float64(mean))
	if g == 0 {
		g = 1
	}
	return g
}

// nextEvent returns the earliest scheduled assertion, or 0 when the
// plan has nothing left to fire.
func (inj *Injector) nextEvent(now uint64) uint64 {
	var next uint64
	consider := func(at uint64) {
		if at != 0 && (next == 0 || at < next) {
			next = at
		}
	}
	for i := range inj.Plan.Storms {
		if inj.stormN[i] < inj.Plan.Storms[i].Count {
			consider(inj.stormAt[i])
		}
	}
	for i := range inj.Plan.Spurious {
		at := inj.spurNext[i]
		if at == 0 {
			at = now + 1 // gap not drawn yet: poll again to schedule it
		}
		consider(at)
	}
	return next
}
