package fault

import (
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestParseFleetFullSpec(t *testing.T) {
	p, err := ParseFleet("link=0>1:drop=0.05,corrupt=0.02,dup=0.01,reorder=0.1,delay=0.2:2.5,rate=1500;" +
		"link=*>2:drop=0.15;" +
		"part=0|2@500-1500;part=1+2|3+4@0-250;" +
		"vmfault=1:ringfull=0.1,spurious=7:50000;" +
		"drop=0.01,jitter=64")
	if err != nil {
		t.Fatal(err)
	}
	wantLinks := []LinkRule{
		{Src: 0, Dst: 1, Drop: 0.05, Corrupt: 0.02, Dup: 0.01, Reorder: 0.1,
			Delay: 0.2, DelayFor: 2500 * time.Microsecond, Rate: 1500},
		{Src: WildcardNode, Dst: 2, Drop: 0.15},
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
	if len(p.VMFaults) != 1 || p.VMFaults[0].VM != 1 ||
		p.VMFaults[0].Plan.RingFull != 0.1 || len(p.VMFaults[0].Plan.Spurious) != 1 {
		t.Errorf("VMFaults = %+v", p.VMFaults)
	}
	if p.Base.Drop != 0.01 || p.Base.Jitter != 64 {
		t.Errorf("Base = %+v, want drop=0.01 jitter=64", p.Base)
	}
	if p.Empty() || !p.FleetOnly() {
		t.Errorf("Empty()=%v FleetOnly()=%v", p.Empty(), p.FleetOnly())
	}
}

// TestParseFleetSingleMachineCompat: a plain single-machine spec must
// parse into Base byte-identically with Parse, so every existing
// -faults invocation keeps working.
func TestParseFleetSingleMachineCompat(t *testing.T) {
	spec := "drop=0.2,corrupt=0.05,spurious=7:50000,buserr=disk@3"
	fp, err := ParseFleet(spec)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fp.Base, direct) {
		t.Errorf("ParseFleet Base = %+v, Parse = %+v", fp.Base, direct)
	}
	if fp.FleetOnly() {
		t.Error("single-machine spec reported FleetOnly")
	}
	// Base clauses split across semicolons accumulate like commas.
	fp2, err := ParseFleet("drop=0.2;corrupt=0.05,spurious=7:50000;buserr=disk@3")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fp2.Base, direct) {
		t.Errorf("semicolon-split Base = %+v, want %+v", fp2.Base, direct)
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
		if _, err := ParseFleet(spec); err == nil {
			t.Errorf("ParseFleet(%q) accepted a malformed spec", spec)
		}
	}
}

func TestLinkRuleMatches(t *testing.T) {
	r := LinkRule{Src: WildcardNode, Dst: 2}
	if !r.Matches(0, 2) || !r.Matches(7, 2) || r.Matches(0, 1) {
		t.Errorf("wildcard-src match broken")
	}
	exact := LinkRule{Src: 1, Dst: 0}
	if !exact.Matches(1, 0) || exact.Matches(0, 1) {
		t.Errorf("exact match broken")
	}
}

func TestMergePlans(t *testing.T) {
	base := Plan{Drop: 0.1, Jitter: 50, Spurious: []Spurious{{Level: 7, MeanGap: 100}}}
	over := Plan{Drop: 0.3, RingFull: 0.2, Storms: []Storm{{Level: 3, At: 10, Count: 1, Gap: 1}}}
	m := Merge(base, over)
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
	// Merge must not alias the inputs' slices.
	m.Spurious[0].Level = 1
	if base.Spurious[0].Level != 7 {
		t.Error("Merge aliased the base plan's Spurious slice")
	}
}

func TestFleetSpecHelpMentionsEveryClause(t *testing.T) {
	for _, kw := range []string{"link=", "part=", "vmfault=", "rate=", "reorder="} {
		if !strings.Contains(FleetSpecHelp, kw) {
			t.Errorf("FleetSpecHelp does not document %q", kw)
		}
	}
}
