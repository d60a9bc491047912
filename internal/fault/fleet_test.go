package fault

import (
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestParseFleetFullSpec(t *testing.T) {
	p, err := Parse("link=0>1:drop=0.05,corrupt=0.02,dup=0.01,reorder=0.1,delay=0.2:2.5,rate=1500;" +
		"link=*>2:drop=0.15;" +
		"part=0|2@500-1500;part=1+2|3+4@0-250;" +
		"vmfault=1:ringfull=0.1,spurious=7:50000;" +
		"drop=0.01,jitter=64")
	if err != nil {
		t.Fatal(err)
	}
	wantLinks := []Link{
		{Src: 0, Dst: 1, Wire: Wire{Drop: 0.05, Corrupt: 0.02, Dup: 0.01,
			Delay: 0.2, Hold: uint64(2500 * time.Microsecond)}, Reorder: 0.1, Rate: 1500},
		{Src: WildcardNode, Dst: 2, Wire: Wire{Drop: 0.15}},
	}
	if !reflect.DeepEqual(p.Links, wantLinks) {
		t.Errorf("Links = %+v, want %+v", p.Links, wantLinks)
	}
	wantParts := []Partition{
		{A: []int{0}, B: []int{2}, From: 500 * time.Millisecond, To: 1500 * time.Millisecond},
		{A: []int{1, 2}, B: []int{3, 4}, From: 0, To: 250 * time.Millisecond},
	}
	if !reflect.DeepEqual(p.Partitions, wantParts) {
		t.Errorf("Partitions = %+v, want %+v", p.Partitions, wantParts)
	}
	// VM 1's plan is the plain items followed by its own.
	if v, ok := p.VMs[1]; len(p.VMs) != 1 || !ok || v.RingFull != 0.1 || len(v.Spurious) != 1 ||
		v.Drop != 0.01 || v.Jitter != 64 {
		t.Errorf("VMs = %+v", p.VMs)
	}
	if p.Drop != 0.01 || p.Jitter != 64 {
		t.Errorf("machine items = %+v, want drop=0.01 jitter=64", p)
	}
	if p.Empty() || !p.Fleet() {
		t.Errorf("Empty()=%v Fleet()=%v", p.Empty(), p.Fleet())
	}
}

// TestParseFleetSingleMachineCompat: a plain single-machine spec parses
// to the same machine plan whether its items are split by commas or by
// semicolons, has no fleet clause, and is every member's plan.
func TestParseFleetSingleMachineCompat(t *testing.T) {
	want := Plan{
		Wire:     Wire{Drop: 0.2, Corrupt: 0.05},
		Spurious: []Spurious{{Level: 7, MeanGap: 50000}},
		BusErrs:  []BusErr{{Dev: "disk", Nth: 3}},
	}
	for _, spec := range []string{
		"drop=0.2,corrupt=0.05,spurious=7:50000,buserr=disk@3",
		"drop=0.2;corrupt=0.05,spurious=7:50000;buserr=disk@3",
	} {
		p, err := Parse(spec)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(p, want) {
			t.Errorf("Parse(%q) = %+v, want %+v", spec, p, want)
		}
		if p.Fleet() {
			t.Errorf("%q reported a fleet clause", spec)
		}
		if v := p.VM(3); !reflect.DeepEqual(v, want) {
			t.Errorf("%q: VM(3) = %+v, want the machine items", spec, v)
		}
	}
}

func TestParseFleetRejectsMalformedSpecs(t *testing.T) {
	for _, spec := range []string{
		"link=0>1",                             // no knobs
		"link=0>1:",                            // empty knob list
		"link=01:drop=0.1",                     // missing >
		"link=0>1:drop=1.5",                    // probability out of range
		"link=0>1:drop",                        // knob without value
		"link=0>1:warp=0.5",                    // unknown knob
		"link=0>1:delay=0.5",                   // delay missing MS
		"link=0>1:delay=0.5:-2",                // negative delay
		"link=0>1:rate=0",                      // rate must be positive
		"link=0>1:rate=-5",                     // negative rate
		"link=x>1:drop=0.1",                    // bad src node
		"link=0>900:drop=0.1",                  // node out of range
		"link=0>1:drop=0.1;link=0>1:dup=0.1",   // duplicate link rule
		"part=0|2",                             // no window
		"part=0@100-200",                       // one node set
		"part=0|@100-200",                      // empty set
		"part=0|0@100-200",                     // node on both sides
		"part=0+0|1@100-200",                   // repeated node in a set
		"part=0|1@200-100",                     // window ends before it starts
		"part=0|1@200-200",                     // empty window
		"part=0|1@abc-200",                     // non-numeric window
		"part=*|1@100-200",                     // wildcard in a partition set
		"vmfault=1",                            // no spec
		"vmfault=1:",                           // empty spec
		"vmfault=0:drop=0.1",                   // host is not a member VM
		"vmfault=x:drop=0.1",                   // bad VM id
		"vmfault=1:warp=0.5",                   // bad inner spec
		"vmfault=1:drop=0.1;vmfault=1:dup=0.1", // duplicate vmfault
		"drop=nope",                            // bad base clause
	} {
		if _, err := Parse(spec); err == nil {
			t.Errorf("Parse(%q) accepted a malformed spec", spec)
		}
	}
}

func TestLinkRuleMatches(t *testing.T) {
	r := Link{Src: WildcardNode, Dst: 2}
	if !r.Matches(0, 2) || !r.Matches(7, 2) || r.Matches(0, 1) {
		t.Errorf("wildcard-src match broken")
	}
	exact := Link{Src: 1, Dst: 0}
	if !exact.Matches(1, 0) || exact.Matches(0, 1) {
		t.Errorf("exact match broken")
	}
}

// TestMergePlans: a vmfault= plan overrides the plain scalars it
// repeats, concatenates the schedule lists, and shares no slice with
// the plain plan.
func TestMergePlans(t *testing.T) {
	p, err := Parse("drop=0.1,jitter=50,spurious=7:100;vmfault=1:drop=0.3,ringfull=0.2,storm=3@10:1x1")
	if err != nil {
		t.Fatal(err)
	}
	m := p.VMs[1]
	if m.Drop != 0.3 {
		t.Errorf("Drop = %v, want the overlay's 0.3", m.Drop)
	}
	if m.Jitter != 50 {
		t.Errorf("Jitter = %v, want the base's 50", m.Jitter)
	}
	if m.RingFull != 0.2 {
		t.Errorf("RingFull = %v, want 0.2", m.RingFull)
	}
	if len(m.Spurious) != 1 || len(m.Storms) != 1 {
		t.Errorf("schedule lists did not concatenate: %+v", m)
	}
	m.Spurious[0].Level = 1
	if p.Spurious[0].Level != 7 {
		t.Error("the vmfault= plan aliased the plain plan's Spurious slice")
	}
}

// TestFleetSpecHelpMentionsEveryClause: SpecHelp and Parse cannot
// drift — every example in the help parses, and every key the parser
// accepts is documented.
func TestFleetSpecHelpMentionsEveryClause(t *testing.T) {
	examples := 0
	for _, line := range strings.Split(SpecHelp, "\n") {
		if ex, ok := strings.CutPrefix(line, "example: "); ok {
			examples++
			if _, err := Parse(ex); err != nil {
				t.Errorf("SpecHelp example %q: %v", ex, err)
			}
		}
	}
	if examples == 0 {
		t.Error("SpecHelp has no example: line")
	}
	var keys []string
	for k := range wireItems {
		keys = append(keys, k)
	}
	for k := range machineItems {
		keys = append(keys, k)
	}
	for k := range linkItems {
		keys = append(keys, k)
	}
	for k := range fleetClauses {
		keys = append(keys, k)
	}
	for _, k := range keys {
		if !strings.Contains(SpecHelp, k+"=") {
			t.Errorf("SpecHelp does not document %q", k+"=")
		}
	}
}
