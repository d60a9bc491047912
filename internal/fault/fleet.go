package fault

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Fleet fault grammar: the cluster-scale extension of the -faults
// spec. A fleet spec is a semicolon-separated list of clauses so that
// clauses can carry comma-separated knob lists of their own; a clause
// with no fleet keyword is parsed with the single-machine grammar
// (SpecHelp) and lands in FleetPlan.Base, applied to every member VM.
// A spec with no semicolons and no fleet keywords is therefore exactly
// a single-machine spec — the grammars compose instead of forking.

// FleetSpecHelp documents the fleet grammar for --help output and
// EXPERIMENTS.md, alongside SpecHelp.
const FleetSpecHelp = `fleet fault spec grammar (semicolon-separated clauses; quamon -cluster
and cluster.Config.Faults only):
  link=S>D:KNOBS   fault rule for fabric frames from node S to node D
                   (node 0 is the host load generator; "*" = any node).
                   KNOBS is a comma-separated list of:
                     drop=P        lose the frame silently with probability P
                     corrupt=P     flip one payload/checksum byte with probability P
                     dup=P         deliver the frame twice with probability P
                     reorder=P     hold the frame ~1-3ms so later frames overtake
                     delay=P:MS    hold the frame MS milliseconds with probability P
                     rate=N        throttle the link to N frames/sec; the pending
                                   queue is bounded, overflow is transmitter-visible
                                   backpressure (a slow client, end to end)
  part=A|B@T1-T2   cut every link between node sets A and B (sets are
                   "+"-separated ids) from wall millisecond T1 after the
                   cluster starts until T2; the heal at T2 is a measured event
  vmfault=I:SPEC   attach the single-machine injector (grammar above) to
                   member VM I's own NIC wire and devices
clauses with none of these keywords use the single-machine grammar and
apply to every member VM.
example: link=*>1:drop=0.05,delay=0.1:2;part=0|2@500-1500;vmfault=1:ringfull=0.1`

// LinkRule is one src->dst fabric link's fault behavior. Src/Dst are
// fabric node ids (0 = host); WildcardNode matches any node.
type LinkRule struct {
	Src, Dst int

	Drop    float64 // P(frame silently eaten in transit)
	Corrupt float64 // P(one payload/checksum byte flipped)
	Dup     float64 // P(frame delivered twice)
	Reorder float64 // P(frame held briefly so later frames overtake)

	Delay    float64       // P(frame held for DelayFor)
	DelayFor time.Duration // hold time when Delay hits

	Rate float64 // max frames/sec through the link (0 = unthrottled)
}

// WildcardNode in LinkRule.Src/Dst matches every node.
const WildcardNode = -1

// Matches reports whether the rule governs frames from src to dst.
func (r LinkRule) Matches(src, dst int) bool {
	return (r.Src == WildcardNode || r.Src == src) &&
		(r.Dst == WildcardNode || r.Dst == dst)
}

// Partition is one scheduled cut: every link between a node in A and a
// node in B (both directions) is severed during [From, To) measured
// from the cluster's start, and healed at To.
type Partition struct {
	A, B     []int
	From, To time.Duration
}

// VMFault attaches a single-machine fault plan to one member VM.
type VMFault struct {
	VM   int
	Plan Plan
}

// FleetPlan is a complete cluster fault schedule.
type FleetPlan struct {
	// Base is applied to every member VM's own injector (single-machine
	// clauses with no fleet keyword).
	Base Plan
	// Links are the per-link fabric rules, consulted in order; the
	// first matching rule governs a frame.
	Links []LinkRule
	// Partitions is the scripted cut/heal schedule.
	Partitions []Partition
	// VMFaults are per-VM injector plans, merged over Base.
	VMFaults []VMFault
}

// Empty reports whether the plan schedules nothing at all.
func (p FleetPlan) Empty() bool {
	return len(p.Links) == 0 && len(p.Partitions) == 0 && len(p.VMFaults) == 0 &&
		planEmpty(p.Base)
}

// Empty reports whether the single-machine plan injects nothing.
func (p Plan) Empty() bool { return planEmpty(p) }

func planEmpty(p Plan) bool {
	return p.Drop == 0 && p.Corrupt == 0 && p.Dup == 0 && p.Delay == 0 &&
		p.RingFull == 0 && p.Jitter == 0 &&
		len(p.Spurious) == 0 && len(p.Storms) == 0 && len(p.BusErrs) == 0
}

// FleetOnly reports whether the plan has any cluster-only clause — the
// check single-machine consumers use to reject a fleet spec cleanly.
func (p FleetPlan) FleetOnly() bool {
	return len(p.Links) > 0 || len(p.Partitions) > 0 || len(p.VMFaults) > 0
}

// Merge overlays over on base: nonzero scalars in over win, schedule
// lists concatenate. Used to compose a vmfault= clause with the Base
// plan for that VM.
func Merge(base, over Plan) Plan {
	out := base
	if over.Drop != 0 {
		out.Drop = over.Drop
	}
	if over.Corrupt != 0 {
		out.Corrupt = over.Corrupt
	}
	if over.Dup != 0 {
		out.Dup = over.Dup
	}
	if over.Delay != 0 {
		out.Delay = over.Delay
		out.DelayCycles = over.DelayCycles
	}
	if over.RingFull != 0 {
		out.RingFull = over.RingFull
	}
	if over.Jitter != 0 {
		out.Jitter = over.Jitter
	}
	out.Spurious = append(append([]Spurious(nil), base.Spurious...), over.Spurious...)
	out.Storms = append(append([]Storm(nil), base.Storms...), over.Storms...)
	out.BusErrs = append(append([]BusErr(nil), base.BusErrs...), over.BusErrs...)
	return out
}

// ParseFleet builds a FleetPlan from a spec string (see FleetSpecHelp
// and SpecHelp). Single-machine specs parse unchanged into Base.
func ParseFleet(spec string) (FleetPlan, error) {
	var p FleetPlan
	var baseItems []string
	for _, clause := range strings.Split(spec, ";") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		key, val, _ := strings.Cut(clause, "=")
		var err error
		switch key {
		case "link":
			err = p.parseLink(val)
		case "part":
			err = p.parsePart(val)
		case "vmfault":
			err = p.parseVMFault(val)
		default:
			// A single-machine clause; accumulate and parse in one shot
			// so repeated items keep their documented accumulate/last-
			// wins semantics across clauses.
			baseItems = append(baseItems, clause)
			continue
		}
		if err != nil {
			return p, fmt.Errorf("fault: %q: %v", clause, err)
		}
	}
	if len(baseItems) > 0 {
		base, err := Parse(strings.Join(baseItems, ","))
		if err != nil {
			return p, err
		}
		p.Base = base
	}
	return p, nil
}

// parseLink handles "S>D:KNOBS".
func (p *FleetPlan) parseLink(val string) error {
	ends, knobs, ok := strings.Cut(val, ":")
	if !ok {
		return fmt.Errorf("want S>D:KNOBS")
	}
	src, dst, ok := strings.Cut(ends, ">")
	if !ok {
		return fmt.Errorf("want S>D before the colon")
	}
	var r LinkRule
	var err error
	if r.Src, err = node(src); err != nil {
		return err
	}
	if r.Dst, err = node(dst); err != nil {
		return err
	}
	for _, l := range p.Links {
		if l.Src == r.Src && l.Dst == r.Dst {
			return fmt.Errorf("duplicate link rule for %s>%s", src, dst)
		}
	}
	any := false
	for _, knob := range strings.Split(knobs, ",") {
		knob = strings.TrimSpace(knob)
		if knob == "" {
			continue
		}
		k, v, ok := strings.Cut(knob, "=")
		if !ok {
			return fmt.Errorf("knob %q: want key=value", knob)
		}
		any = true
		switch k {
		case "drop":
			r.Drop, err = prob(v)
		case "corrupt":
			r.Corrupt, err = prob(v)
		case "dup":
			r.Dup, err = prob(v)
		case "reorder":
			r.Reorder, err = prob(v)
		case "delay":
			pr, ms, ok := strings.Cut(v, ":")
			if !ok {
				err = fmt.Errorf("want P:MS")
				break
			}
			if r.Delay, err = prob(pr); err != nil {
				break
			}
			r.DelayFor, err = millis(ms)
		case "rate":
			var f float64
			f, err = strconv.ParseFloat(v, 64)
			if err != nil || f <= 0 {
				err = fmt.Errorf("rate %q must be a positive frames/sec", v)
				break
			}
			r.Rate = f
		default:
			err = fmt.Errorf("unknown link knob %q", k)
		}
		if err != nil {
			return fmt.Errorf("knob %q: %v", knob, err)
		}
	}
	if !any {
		return fmt.Errorf("empty knob list")
	}
	p.Links = append(p.Links, r)
	return nil
}

// parsePart handles "A|B@T1-T2".
func (p *FleetPlan) parsePart(val string) error {
	sets, window, ok := strings.Cut(val, "@")
	if !ok {
		return fmt.Errorf("want A|B@T1-T2")
	}
	a, b, ok := strings.Cut(sets, "|")
	if !ok {
		return fmt.Errorf("want two |-separated node sets")
	}
	var part Partition
	var err error
	if part.A, err = nodeSet(a); err != nil {
		return err
	}
	if part.B, err = nodeSet(b); err != nil {
		return err
	}
	for _, na := range part.A {
		for _, nb := range part.B {
			if na == nb {
				return fmt.Errorf("node %d on both sides of the cut", na)
			}
		}
	}
	t1, t2, ok := strings.Cut(window, "-")
	if !ok {
		return fmt.Errorf("want a T1-T2 millisecond window")
	}
	if part.From, err = millis(t1); err != nil {
		return err
	}
	if part.To, err = millis(t2); err != nil {
		return err
	}
	if part.To <= part.From {
		return fmt.Errorf("window %s-%s must end after it starts", t1, t2)
	}
	p.Partitions = append(p.Partitions, part)
	return nil
}

// parseVMFault handles "I:SPEC".
func (p *FleetPlan) parseVMFault(val string) error {
	id, spec, ok := strings.Cut(val, ":")
	if !ok {
		return fmt.Errorf("want I:SPEC")
	}
	vm, err := strconv.Atoi(id)
	if err != nil || vm < 1 {
		return fmt.Errorf("VM id %q must be a positive member id", id)
	}
	for _, f := range p.VMFaults {
		if f.VM == vm {
			return fmt.Errorf("duplicate vmfault for VM %d", vm)
		}
	}
	plan, err := Parse(spec)
	if err != nil {
		return err
	}
	if planEmpty(plan) {
		return fmt.Errorf("empty fault spec for VM %d", vm)
	}
	p.VMFaults = append(p.VMFaults, VMFault{VM: vm, Plan: plan})
	return nil
}

// node parses a fabric node id or the "*" wildcard.
func node(s string) (int, error) {
	if s == "*" {
		return WildcardNode, nil
	}
	v, err := strconv.Atoi(s)
	if err != nil || v < 0 || v > 255 {
		return 0, fmt.Errorf("node %q must be 0..255 or *", s)
	}
	return v, nil
}

// nodeSet parses a "+"-separated node id list (no wildcard: a cut
// between everything and everything is not a partition).
func nodeSet(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, "+") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.Atoi(part)
		if err != nil || v < 0 || v > 255 {
			return nil, fmt.Errorf("node %q must be 0..255", part)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty node set")
	}
	sort.Ints(out)
	for i := 1; i < len(out); i++ {
		if out[i] == out[i-1] {
			return nil, fmt.Errorf("node %d repeated in set", out[i])
		}
	}
	return out, nil
}

// millis parses a non-negative wall duration in (possibly fractional)
// milliseconds.
func millis(s string) (time.Duration, error) {
	v, err := strconv.ParseFloat(s, 64)
	if err != nil || v < 0 || v != v {
		return 0, fmt.Errorf("milliseconds %q must be non-negative", s)
	}
	return time.Duration(v * float64(time.Millisecond)), nil
}
