package fault

import (
	"bytes"
	"reflect"
	"testing"
)

func TestParseFullSpec(t *testing.T) {
	p, err := Parse("drop=0.2,corrupt=0.05,dup=0.1,delay=0.5:800,ringfull=0.3," +
		"jitter=120,spurious=7:50000,storm=1@2000:40x100,buserr=disk@3,buserr=net@7")
	if err != nil {
		t.Fatal(err)
	}
	want := Plan{
		Wire:     Wire{Drop: 0.2, Corrupt: 0.05, Dup: 0.1, Delay: 0.5, Hold: 800},
		RingFull: 0.3, Jitter: 120,
		Spurious: []Spurious{{Level: 7, MeanGap: 50000}},
		Storms:   []Storm{{Level: 1, At: 2000, Count: 40, Gap: 100}},
		BusErrs:  []BusErr{{Dev: "disk", Nth: 3}, {Dev: "net", Nth: 7}},
	}
	if !reflect.DeepEqual(p, want) {
		t.Fatalf("Parse = %+v, want %+v", p, want)
	}
}

func TestParseRejectsMalformedSpecs(t *testing.T) {
	for _, spec := range []string{
		"drop",             // no value
		"drop=",            // empty value
		"drop=1.5",         // probability out of range
		"drop=NaN",         // NaN sneaks past naive range checks
		"drop=two",         // non-numeric probability
		"corrupt=-0.1",     // negative probability
		"dup=1.01",         // just past the top of the range
		"ringfull=-1",      // negative probability
		"jitter=abc",       // non-numeric cycles
		"jitter=-5",        // negative cycles
		"delay=0.5",        // missing cycle count
		"delay=0.5:",       // empty cycle count
		"delay=2:100",      // probability out of range
		"spurious=9:100",   // IPL out of range (high)
		"spurious=0:100",   // IPL out of range (low)
		"spurious=7",       // missing gap
		"spurious=7:0",     // zero mean gap
		"storm=1@100:5",    // missing gap
		"storm=1@100:0x5",  // zero count
		"storm=1@100:-2x5", // negative count
		"storm=8@100:5x10", // IPL out of range
		"storm=1:100:5x10", // missing @
		"buserr=disk",      // missing access index
		"buserr=disk@0",    // access index is 1-based
		"buserr=disk@x",    // non-numeric access index
		"buserr=@3",        // empty device
		"warp=0.5",         // unknown kind
		"drop=0.1,warp=1",  // good item does not mask a bad one
	} {
		if _, err := Parse(spec); err == nil {
			t.Errorf("Parse(%q) accepted a malformed spec", spec)
		}
	}
}

// TestParseRepeatedItems pins the documented accumulate/last-wins
// semantics: scalar knobs take the last value, schedule items stack.
func TestParseRepeatedItems(t *testing.T) {
	p, err := Parse("drop=0.1,drop=0.3,spurious=7:100,spurious=6:200,buserr=disk@1,buserr=disk@2")
	if err != nil {
		t.Fatal(err)
	}
	if p.Drop != 0.3 {
		t.Errorf("Drop = %v, want the last value 0.3", p.Drop)
	}
	if len(p.Spurious) != 2 || len(p.BusErrs) != 2 {
		t.Errorf("schedule items did not accumulate: %+v", p)
	}
}

func TestParseEmptyItemsIgnored(t *testing.T) {
	p, err := Parse(" drop=0.1, ,")
	if err != nil {
		t.Fatal(err)
	}
	if p.Drop != 0.1 {
		t.Fatalf("Drop = %v, want 0.1", p.Drop)
	}
}

// TestSeedDeterminism: the same plan and seed must perturb an
// identical frame sequence identically — a failing soak run replays.
func TestSeedDeterminism(t *testing.T) {
	run := func() ([][]byte, Stats) {
		inj := New(Plan{Wire: Wire{Drop: 0.3, Corrupt: 0.3, Dup: 0.2, Delay: 0.5, Hold: 64}}, 99)
		var out [][]byte
		for i := 0; i < 200; i++ {
			frame := bytes.Repeat([]byte{byte(i)}, 40)
			fs, _ := inj.Frame(frame)
			out = append(out, fs...)
		}
		return out, inj.Stats
	}
	a, sa := run()
	b, sb := run()
	if sa != sb {
		t.Fatalf("stats diverged: %+v vs %+v", sa, sb)
	}
	if len(a) != len(b) {
		t.Fatalf("output frame counts diverged: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			t.Fatalf("frame %d diverged", i)
		}
	}
	if sa.Dropped == 0 || sa.Corrupted == 0 || sa.Duplicated == 0 || sa.Delayed == 0 {
		t.Fatalf("plan injected nothing: %+v", sa)
	}
}

func TestDifferentSeedsDiverge(t *testing.T) {
	drops := func(seed int64) uint64 {
		inj := New(Plan{Wire: Wire{Drop: 0.5}}, seed)
		for i := 0; i < 400; i++ {
			inj.Frame([]byte{1, 2, 3, 4})
		}
		return inj.Stats.Dropped
	}
	if drops(1) == drops(2) && drops(3) == drops(4) && drops(1) == drops(3) {
		t.Fatal("four seeds produced identical drop counts; rng looks unseeded")
	}
}

// TestCorruptionIsChecksumDetectable: corruption must never touch the
// 8 address bytes, so a corrupt frame always fails the checksum
// rather than being misrouted.
func TestCorruptionIsChecksumDetectable(t *testing.T) {
	inj := New(Plan{Wire: Wire{Corrupt: 1}}, 5)
	orig := []byte{9, 9, 9, 9, 8, 8, 8, 8, 7, 7, 7, 7, 1, 2, 3, 4}
	for i := 0; i < 100; i++ {
		out, _ := inj.Frame(orig)
		if len(out) != 1 {
			t.Fatalf("want 1 frame, got %d", len(out))
		}
		f := out[0]
		if !bytes.Equal(f[:8], orig[:8]) {
			t.Fatalf("corruption touched the address words: % x", f[:8])
		}
		if bytes.Equal(f, orig) {
			t.Fatalf("corrupt=1 left the frame intact")
		}
	}
	if inj.Stats.Corrupted != 100 {
		t.Fatalf("Corrupted = %d, want 100", inj.Stats.Corrupted)
	}
}

// TestStormSchedule: a storm asserts exactly Count interrupts at its
// level, spaced by Gap, starting at At.
func TestStormSchedule(t *testing.T) {
	inj := New(Plan{Storms: []Storm{{Level: 3, At: 100, Count: 4, Gap: 50}}}, 1)
	var fired []uint64
	for now := uint64(0); now < 1000; now++ {
		irq, _ := inj.Tick(now)
		if irq != 0 {
			if irq != 3 {
				t.Fatalf("cycle %d: level %d, want 3", now, irq)
			}
			fired = append(fired, now)
		}
	}
	want := []uint64{100, 150, 200, 250}
	if !reflect.DeepEqual(fired, want) {
		t.Fatalf("storm fired at %v, want %v", fired, want)
	}
	if inj.Stats.StormUp != 4 {
		t.Fatalf("StormUp = %d, want 4", inj.Stats.StormUp)
	}
	if next := nextOf(inj, 1000); next != 0 {
		t.Fatalf("exhausted storm still schedules an event at %d", next)
	}
}

func nextOf(inj *Injector, now uint64) uint64 {
	_, next := inj.Tick(now)
	return next
}

// TestSpuriousSchedule: spurious interrupts arrive at the configured
// level with gaps near the configured mean.
func TestSpuriousSchedule(t *testing.T) {
	inj := New(Plan{Spurious: []Spurious{{Level: 5, MeanGap: 100}}}, 7)
	count := 0
	for now := uint64(0); now < 100_000; now++ {
		irq, _ := inj.Tick(now)
		if irq != 0 {
			if irq != 5 {
				t.Fatalf("cycle %d: level %d, want 5", now, irq)
			}
			count++
		}
	}
	// Mean gap 100 over 100k cycles: expect ~1000, allow a wide band.
	if count < 500 || count > 2000 {
		t.Fatalf("spurious count = %d over 100k cycles, want ~1000", count)
	}
	if uint64(count) != inj.Stats.SpuriousUp {
		t.Fatalf("SpuriousUp = %d, fired %d", inj.Stats.SpuriousUp, count)
	}
}

// TestBusErrorOneShot: the Nth access faults exactly once.
func TestBusErrorOneShot(t *testing.T) {
	inj := New(Plan{BusErrs: []BusErr{{Dev: "fault", Nth: 3}}}, 1)
	var faults []int
	for i := 1; i <= 10; i++ {
		if inj.AccessFault(inj, 0, false) { // the injector is itself a named Device
			faults = append(faults, i)
		}
	}
	if !reflect.DeepEqual(faults, []int{3}) {
		t.Fatalf("faulted on accesses %v, want [3]", faults)
	}
	if inj.Stats.BusErrors != 1 {
		t.Fatalf("BusErrors = %d, want 1", inj.Stats.BusErrors)
	}
}

func TestRingFullForcing(t *testing.T) {
	inj := New(Plan{RingFull: 1}, 1)
	if !inj.RingFull() {
		t.Fatal("RingFull=1 did not force a full ring")
	}
	inj2 := New(Plan{}, 1)
	if inj2.RingFull() {
		t.Fatal("empty plan forced a full ring")
	}
}

func TestTimerJitter(t *testing.T) {
	inj := New(Plan{Jitter: 50}, 3)
	varied := false
	for i := 0; i < 50; i++ {
		got := inj.TimerArm(1000)
		if got < 1000 || got >= 1050 {
			t.Fatalf("TimerArm(1000) = %d, want [1000,1050)", got)
		}
		if got != 1000 {
			varied = true
		}
	}
	if !varied {
		t.Fatal("jitter never moved an arming")
	}
	if got := New(Plan{}, 3).TimerArm(1000); got != 1000 {
		t.Fatalf("no-jitter plan changed an arming to %d", got)
	}
}
