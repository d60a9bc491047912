package bench

import (
	"fmt"

	"synthesis/internal/asmkit"
	"synthesis/internal/fault"
	"synthesis/internal/kernel"
	"synthesis/internal/kio"
	"synthesis/internal/m68k"
)

// Table 7: the Synthesis network path under injected faults. The
// paper's tables stop at the fast path; this one measures the
// recovery plane — throughput and recovery latency against frame-loss
// rate on a lossy loopback wire, and the watchdog's reaction time to
// an IRQ storm. Every fault is drawn from a seeded schedule, so the
// whole table replays exactly.
//
// The loss runs drive a stop-and-wait ARQ in the benchmark binary
// itself: the NIC reports ring backpressure but silent wire loss is
// invisible to the transmitter, so the program detects a lost
// datagram by watching the destination socket's deposit gauge (the
// cut-through loopback delivers before the send call returns) and
// retransmits until the frame lands. Recovery latency is the extra
// time per lost frame relative to the loss-free run of the identical
// binary.

// Data cells for the ARQ program, in the scratch region between the
// benchmark buffers and the chaos array.
const (
	addrQBase = 0x1F000 // receive socket's packet-queue base
	addrRetx  = 0x1F004 // retransmission counter
)

// lossRates are the frame-loss probabilities the table sweeps.
var lossRates = []float64{0, 0.10, 0.20, 0.30}

// buildSockARQ emits the lossy-wire program: open the loopback pair,
// then iters datagrams under stop-and-wait ARQ between the marks.
func buildSockARQ(b *asmkit.Builder, iters int32) {
	sockPair(b)
	// A2 = the receive socket's packet queue, read from the
	// descriptor's Aux cell in the current TTE; parked in a memory
	// cell because system calls do not preserve address registers.
	b.MoveL(m68k.Abs(kernel.GCurTTE), m68k.A(0))
	b.MoveL(m68k.D(7), m68k.D(0))
	b.LslL(m68k.Imm(5), m68k.D(0)) // * FDSlotSize
	b.AddL(m68k.Imm(int32(kernel.TTEFDBase+kernel.FDAux)), m68k.D(0))
	b.MoveL(m68k.Idx(0, 0, 0, 1), m68k.A(2))
	b.MoveL(m68k.A(2), m68k.Abs(addrQBase))
	b.Clr(4, m68k.Abs(addrRetx))
	mark(b)
	b.MoveL(m68k.Imm(iters), m68k.D(5))
	b.Label("loop")
	// Remember the deposit gauge, send, and compare: an unchanged
	// gauge means the wire ate the frame — count and retransmit.
	b.MoveL(m68k.Abs(addrQBase), m68k.A(2))
	b.MoveL(m68k.Disp(kio.NQHead, 2), m68k.D(4))
	b.Label("try")
	sockWrite(b)
	b.MoveL(m68k.Abs(addrQBase), m68k.A(2))
	b.MoveL(m68k.Disp(kio.NQHead, 2), m68k.D(0))
	b.Cmp(4, m68k.D(4), m68k.D(0))
	b.Bne("arrived")
	b.AddL(m68k.Imm(1), m68k.Abs(addrRetx))
	b.Bra("try")
	b.Label("arrived")
	sockRead(b)
	b.SubL(m68k.Imm(1), m68k.D(5))
	b.Bne("loop")
	mark(b)
	progExit(b)
}

// runARQ measures one loss rate: total marked time in usec plus the
// retransmission count and the injector's wire statistics.
func runARQ(rate float64, seed int64, iters int32) (us float64, retx uint32, st fault.Stats, err error) {
	r := NewSynthRig()
	inj := fault.New(fault.Plan{Wire: fault.Wire{Drop: rate}}, seed)
	inj.Attach(r.Machine())
	d, err := runMarks(r, 1, func(b *asmkit.Builder) {
		buildSockARQ(b, iters)
	})
	return d[0], r.Machine().Peek(addrRetx, 4), inj.Stats, err
}

// StormThreshold is the watchdog's storm threshold, in handler
// entries per window, that Table 7 measures. Each entry costs ~150
// cycles, which caps a storm near 50 entries per 500us window
// regardless of its gap, so the threshold sits below that.
const StormThreshold = 32

// stormRecovery measures the watchdog's reaction to an IRQ storm on
// the NIC level: cycles from the first scream to the coalescing
// throttle engaging, and from the last scream to the throttle
// releasing.
func stormRecovery(seed int64) (engageUS, releaseUS float64, err error) {
	r := NewSynthRig()
	m := r.Machine()
	const (
		stormGap   = 80   // cycles between screams: ~100 entries per 500us window
		stormCount = 2000 // 160k cycles of scream
	)
	stormAt := m.Cycles + 20_000
	stormEnd := stormAt + stormCount*stormGap
	inj := fault.New(fault.Plan{Storms: []fault.Storm{
		{Level: m68k.IRQNet, At: stormAt, Count: stormCount, Gap: stormGap},
	}}, seed)
	inj.Attach(m)
	wd := r.IO.InstallWatchdog(StormThreshold)

	// The foreground program just burns cycles long enough for the
	// storm to run its course and the release window to pass.
	b := asmkit.New()
	b.MoveL(m68k.Imm(200_000), m68k.D(5))
	b.Label("spin")
	b.SubL(m68k.Imm(1), m68k.D(5))
	b.Bne("spin")
	progExit(b)
	if err := r.Run(b.Link(m), 50_000_000_000); err != nil {
		return 0, 0, err
	}

	var onAt, offAt uint64
	for _, ev := range wd.Events {
		switch {
		case ev.Kind == "throttle-on" && onAt == 0:
			onAt = ev.Cycle
		case ev.Kind == "throttle-off" && offAt == 0:
			offAt = ev.Cycle
		}
	}
	if onAt == 0 || offAt == 0 {
		return 0, 0, fmt.Errorf("table7: watchdog events = %v, want throttle-on then throttle-off", wd.Events)
	}
	return float64(onAt-stormAt) / m.ClockMHz, float64(offAt-stormEnd) / m.ClockMHz, nil
}

// Table7 generates the fault-recovery table.
func Table7(cfg RunConfig) (Table, error) {
	t := Table{
		Title: "Table 7: Throughput and recovery under injected faults",
		Note: "128-byte datagrams, stop-and-wait ARQ over a seeded lossy loopback wire;\n" +
			"recovery latency is the extra time per lost frame vs the loss-free run",
	}
	iters := cfg.Iters
	if iters <= 0 {
		iters = 200
	}
	seed := cfg.FaultSeed
	if seed == 0 {
		seed = 1
	}

	var baseUS float64
	for i, rate := range lossRates {
		us, retx, st, err := runARQ(rate, seed+int64(i), iters)
		if err != nil {
			return t, err
		}
		if rate == 0 {
			baseUS = us
		}
		fps := float64(iters) * 1e6 / us
		t.Rows = append(t.Rows, Row{
			Name: fmt.Sprintf("throughput @ %2.0f%% frame loss", rate*100), Measured: fps, Unit: "fr/s",
			Note: fmt.Sprintf("%d frames, %d retransmits, wire dropped %d/%d", iters, retx, st.Dropped, st.Frames),
		})
		recovery := 0.0
		if retx > 0 {
			recovery = (us - baseUS) / float64(retx)
		}
		t.Rows = append(t.Rows, Row{
			Name: fmt.Sprintf("recovery latency @ %2.0f%% frame loss", rate*100), Measured: recovery, Unit: "usec",
			Note: "per lost frame, detect + retransmit",
		})
	}

	engage, release, err := stormRecovery(seed)
	if err != nil {
		return t, err
	}
	t.Rows = append(t.Rows,
		Row{Name: "IRQ-storm throttle engage", Measured: engage, Unit: "usec",
			Note: "first scream to coalescing handler installed"},
		Row{Name: "IRQ-storm throttle release", Measured: release, Unit: "usec",
			Note: "last scream to plain handler restored"},
	)
	return t, nil
}
