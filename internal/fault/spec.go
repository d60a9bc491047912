package fault

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"
)

// SpecHelp documents the -faults grammar for command --help output and
// EXPERIMENTS.md.
const SpecHelp = `fault spec grammar: clauses separated by ";", items within a clause by ",".
Machine items (every machine the command boots; a repeated item stacks
for spurious/storm/buserr, otherwise the last value wins):
  drop=P            lose each NIC frame with probability P in [0,1]
  corrupt=P         flip one checksum/payload byte with probability P
  dup=P             deliver each frame twice with probability P
  delay=P:CYCLES    delay the receive interrupt by CYCLES with probability P
  ringfull=P        force a receive-ring-full drop with probability P
  jitter=CYCLES     add uniform [0,CYCLES) to every timer arming
  spurious=L:GAP    spurious interrupts at IPL L, mean gap GAP cycles
  storm=L@AT:NxGAP  N interrupts at IPL L starting at cycle AT, one per GAP cycles
  buserr=DEV@N      bus error on the Nth access to device DEV's window
Fleet clauses (quamon -cluster and cluster.Config.Faults only):
  link=S>D:ITEMS    fault rule for fabric frames from node S to node D
                    (node 0 is the host load generator; "*" = any node).
                    ITEMS are drop=, corrupt= and dup= as above, and
                      delay=P:MS   hold the frame MS milliseconds with probability P
                      reorder=P    hold the frame ~1-3ms so later frames overtake
                      rate=N       throttle the link to N frames/sec; past 64 waiting
                                   frames it refuses (backpressure the sender sees)
  part=A|B@T1-T2    cut every link between node sets A and B (sets are
                    "+"-separated ids) from wall millisecond T1 after the
                    cluster starts until T2; the heal at T2 is a measured event
  vmfault=I:ITEMS   machine items for member VM I alone, after the plain ones
example: drop=0.2,corrupt=0.05,spurious=7:50000,buserr=disk@3
example: link=*>1:drop=0.05,delay=0.1:2;part=0|2@500-1500;vmfault=1:ringfull=0.1`

// Parse builds a Plan from a spec string (see SpecHelp). Plain
// clauses accumulate into the machine items; a vmfault= plan is those
// items followed by the VM's own, under the same repeat rule.
func Parse(spec string) (Plan, error) {
	var p Plan
	var plain, fleet []string
	for _, clause := range strings.Split(spec, ";") {
		clause = strings.TrimSpace(clause)
		key, _, _ := strings.Cut(clause, "=")
		if fleetClauses[key] != nil {
			fleet = append(fleet, clause)
		} else {
			plain = append(plain, items(clause)...)
		}
	}
	if err := p.machine(plain); err != nil {
		return p, err
	}
	for _, clause := range fleet {
		key, val, _ := strings.Cut(clause, "=")
		if err := fleetClauses[key](&p, val, plain); err != nil {
			return p, fmt.Errorf("fault: %q: %v", clause, err)
		}
	}
	return p, nil
}

// items splits a clause into its comma-separated items, trimmed, with
// empty ones dropped.
func items(clause string) []string {
	var out []string
	for _, it := range strings.Split(clause, ",") {
		if it = strings.TrimSpace(it); it != "" {
			out = append(out, it)
		}
	}
	return out
}

// holdUnit parses delay's hold in its wire's unit.
type holdUnit func(string) (uint64, error)

// wireItems parse the knobs a NIC wire and a fabric link share.
var wireItems = map[string]func(w *Wire, val string, hold holdUnit) error{
	"drop":    func(w *Wire, v string, _ holdUnit) (err error) { w.Drop, err = prob(v); return },
	"corrupt": func(w *Wire, v string, _ holdUnit) (err error) { w.Corrupt, err = prob(v); return },
	"dup":     func(w *Wire, v string, _ holdUnit) (err error) { w.Dup, err = prob(v); return },
	"delay": func(w *Wire, v string, hold holdUnit) (err error) {
		pr, h, ok := strings.Cut(v, ":")
		if !ok {
			return errors.New("want P:HOLD")
		}
		if w.Delay, err = prob(pr); err != nil {
			return err
		}
		w.Hold, err = hold(h)
		return err
	},
}

// parseItems parses key=value items in order: a Wire knob into w,
// reading delay's hold with hold, and any other key with rest.
func parseItems(its []string, w *Wire, hold holdUnit, rest func(key, val string) error) error {
	for _, it := range its {
		key, val, ok := strings.Cut(it, "=")
		var err error
		if !ok {
			err = errors.New("want key=value")
		} else if f := wireItems[key]; f != nil {
			err = f(w, val, hold)
		} else {
			err = rest(key, val)
		}
		if err != nil {
			return fmt.Errorf("%q: %v", it, err)
		}
	}
	return nil
}

// machine parses machine items into p, in order.
func (p *Plan) machine(its []string) error {
	err := parseItems(its, &p.Wire, cycles, func(key, val string) error {
		if f := machineItems[key]; f != nil {
			return f(p, val)
		}
		return errors.New("unknown fault kind")
	})
	if err != nil {
		return fmt.Errorf("fault: %v", err)
	}
	return nil
}

// machineItems parse the machine items that are not Wire knobs.
var machineItems = map[string]func(p *Plan, val string) error{
	"ringfull": func(p *Plan, v string) (err error) { p.RingFull, err = prob(v); return },
	"jitter":   func(p *Plan, v string) (err error) { p.Jitter, err = cycles(v); return },
	"spurious": func(p *Plan, v string) error {
		lv, gap, ok := strings.Cut(v, ":")
		if !ok {
			return errors.New("want L:GAP")
		}
		var s Spurious
		var err error
		if s.Level, err = level(lv); err != nil {
			return err
		}
		if s.MeanGap, err = cycles(gap); err != nil {
			return err
		}
		if s.MeanGap == 0 {
			return errors.New("gap must be positive")
		}
		p.Spurious = append(p.Spurious, s)
		return nil
	},
	"storm": func(p *Plan, v string) error {
		lv, rest, ok := strings.Cut(v, "@")
		at, burst, ok2 := strings.Cut(rest, ":")
		n, gap, ok3 := strings.Cut(burst, "x")
		if !ok || !ok2 || !ok3 {
			return errors.New("want L@AT:NxGAP")
		}
		var s Storm
		var err error
		if s.Level, err = level(lv); err != nil {
			return err
		}
		if s.At, err = cycles(at); err != nil {
			return err
		}
		if s.Count, err = strconv.Atoi(n); err != nil || s.Count < 1 {
			return fmt.Errorf("count %q must be a positive integer", n)
		}
		if s.Gap, err = cycles(gap); err != nil {
			return err
		}
		p.Storms = append(p.Storms, s)
		return nil
	},
	"buserr": func(p *Plan, v string) error {
		dev, nth, ok := strings.Cut(v, "@")
		if !ok || dev == "" {
			return errors.New("want DEV@N")
		}
		b := BusErr{Dev: dev}
		var err error
		if b.Nth, err = cycles(nth); err != nil {
			return err
		}
		if b.Nth == 0 {
			return errors.New("access index is 1-based")
		}
		p.BusErrs = append(p.BusErrs, b)
		return nil
	},
}

// linkItems parse the link items that are not Wire knobs.
var linkItems = map[string]func(l *Link, val string) error{
	"reorder": func(l *Link, v string) (err error) { l.Reorder, err = prob(v); return },
	"rate": func(l *Link, v string) error {
		f, err := strconv.ParseFloat(v, 64)
		if err != nil || f <= 0 {
			return fmt.Errorf("rate %q must be a positive frames/sec", v)
		}
		l.Rate = f
		return nil
	},
}

// fleetClauses parse the clauses only a cluster executes; plain is the
// spec's machine items, which a vmfault= plan starts from.
var fleetClauses = map[string]func(p *Plan, val string, plain []string) error{
	"link":    (*Plan).link,
	"part":    (*Plan).part,
	"vmfault": (*Plan).vmfault,
}

// link handles "S>D:ITEMS".
func (p *Plan) link(val string, _ []string) error {
	ends, knobs, ok := strings.Cut(val, ":")
	if !ok {
		return errors.New("want S>D:ITEMS")
	}
	src, dst, ok := strings.Cut(ends, ">")
	if !ok {
		return errors.New("want S>D before the colon")
	}
	var l Link
	var err error
	if l.Src, err = node(src); err != nil {
		return err
	}
	if l.Dst, err = node(dst); err != nil {
		return err
	}
	for _, o := range p.Links {
		if o.Src == l.Src && o.Dst == l.Dst {
			return fmt.Errorf("duplicate link rule for %s>%s", src, dst)
		}
	}
	its := items(knobs)
	if len(its) == 0 {
		return errors.New("empty knob list")
	}
	err = parseItems(its, &l.Wire, nanos, func(key, v string) error {
		if f := linkItems[key]; f != nil {
			return f(&l, v)
		}
		return fmt.Errorf("unknown link knob %q", key)
	})
	if err != nil {
		return fmt.Errorf("knob %v", err)
	}
	p.Links = append(p.Links, l)
	return nil
}

// part handles "A|B@T1-T2".
func (p *Plan) part(val string, _ []string) error {
	sets, window, ok := strings.Cut(val, "@")
	if !ok {
		return errors.New("want A|B@T1-T2")
	}
	a, b, ok := strings.Cut(sets, "|")
	if !ok {
		return errors.New("want two |-separated node sets")
	}
	var part Partition
	var err error
	if part.A, err = nodeSet(a); err != nil {
		return err
	}
	if part.B, err = nodeSet(b); err != nil {
		return err
	}
	if _, err := nodeSet(a + "+" + b); err != nil {
		return fmt.Errorf("both sides of the cut: %v", err)
	}
	t1, t2, ok := strings.Cut(window, "-")
	if !ok {
		return errors.New("want a T1-T2 millisecond window")
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

// vmfault handles "I:ITEMS".
func (p *Plan) vmfault(val string, plain []string) error {
	id, spec, ok := strings.Cut(val, ":")
	if !ok {
		return errors.New("want I:ITEMS")
	}
	vm, err := strconv.Atoi(id)
	if err != nil || vm < 1 {
		return fmt.Errorf("VM id %q must be a positive member id", id)
	}
	if _, dup := p.VMs[vm]; dup {
		return fmt.Errorf("duplicate vmfault for VM %d", vm)
	}
	own := items(spec)
	if len(own) == 0 {
		return fmt.Errorf("empty fault spec for VM %d", vm)
	}
	var v Plan
	if err := v.machine(append(plain[:len(plain):len(plain)], own...)); err != nil {
		return err
	}
	if p.VMs == nil {
		p.VMs = make(map[int]Plan)
	}
	p.VMs[vm] = v
	return nil
}

func prob(s string) (float64, error) {
	v, err := strconv.ParseFloat(s, 64)
	if err != nil || v != v || v < 0 || v > 1 { // v != v rejects NaN
		return 0, fmt.Errorf("probability %q must be in [0,1]", s)
	}
	return v, nil
}

func cycles(s string) (uint64, error) {
	v, err := strconv.ParseUint(s, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("cycle count %q must be a non-negative integer", s)
	}
	return v, nil
}

func level(s string) (int, error) {
	v, err := strconv.Atoi(s)
	if err != nil || v < 1 || v > 7 {
		return 0, fmt.Errorf("IPL %q must be 1..7", s)
	}
	return v, nil
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
		return nil, errors.New("empty node set")
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

// nanos is a link's hold unit: milliseconds, kept as a time.Duration.
func nanos(s string) (uint64, error) {
	d, err := millis(s)
	return uint64(d), err
}
