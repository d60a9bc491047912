package main

import (
	"errors"
	"fmt"
	"time"

	"synthesis/internal/cluster"
	"synthesis/internal/m68k"
	"synthesis/internal/metrics"
)

// fleet_echo: one VM, eight guest echo sockets, thirty-two logical
// connections multiplexed over them by the cluster's one
// load-generator goroutine in a closed loop (one message in flight
// per connection). Two goroutines do the work — the VM driver and the
// load generator — which is the host's two cores; this file's
// goroutine only polls a counter.
const (
	fleetVMs     = 1
	fleetSockets = 8
	fleetConns   = 32
	fleetPayload = 64

	fleetWarmLimit  = 10 * time.Second
	fleetStallLimit = 2 * time.Second
	fleetPoll       = 500 * time.Microsecond
	fleetTraceEvery = 64
	fleetSegments   = 12 // pieces the measured echoes are counted in
)

// fleetRun is what one fleet repeat measured beyond the common
// repeat fields.
type fleetRun struct {
	rep      repeat
	window   metrics.Delta        // registry change from first segment to last, gaps included
	rtt      metrics.HistSnapshot // round-trip times of the measured segments only
	newTime  time.Duration
	warmTime time.Duration
	snapTime time.Duration
	stopTime time.Duration
}

// fleetUp boots a fleet and waits until every connection has
// completed a round trip. The caller stops it.
func fleetUp(o options, tr *tracer, traceEvery int, fr *fleetRun) (*cluster.Cluster, error) {
	var c *cluster.Cluster
	fr.newTime = tr.in("cluster.New", func() {
		c = cluster.New(cluster.Config{
			VMs: fleetVMs, SocketsPerVM: fleetSockets, Conns: fleetConns,
			PayloadBytes: fleetPayload, ChurnEvery: 0, Seed: o.seed,
			// Patient clients: a resend is a failed operation here, so
			// only a frame that is really lost may cause one.
			Timeout:    500 * time.Millisecond,
			TraceEvery: traceEvery,
		})
	})
	var err error
	fr.warmTime = tr.in("cluster.Start to warm", func() {
		// Servers up before clients: step each guest until its echo
		// threads have opened their sockets. Started cold, the load
		// generator's first frames race the opens, lose, and every
		// connection sits out a resend timeout — set-up time would
		// measure that timer, not work.
		for _, vm := range c.VMs() {
			for i := 0; len(vm.IO.NetSockets()) < fleetSockets && i < 1000 && err == nil; i++ {
				if e := vm.K.Run(65536); !errors.Is(e, m68k.ErrCycleLimit) {
					err = fmt.Errorf("vm%d stopped while opening its sockets: %v", vm.ID, e)
				}
			}
		}
		if err != nil {
			return
		}
		c.Start()
		err = awaitReplies(c, fleetWarmLimit, func() bool { return c.ActiveConns() >= fleetConns })
	})
	if err != nil {
		err = fmt.Errorf("fleet_echo: warm-up: %w (%d of %d connections live)", err, c.ActiveConns(), fleetConns)
	}
	return c, err
}

// fleetRepeat boots a fleet, measures the wall time of a fixed number
// of echoes, and stops the fleet — always, also when it wedges: a
// fleet whose reply count stops advancing is reported with its
// unfinished echoes as failures instead of hanging the benchmark.
//
// The echoes are measured in segments with one yardstick slice
// between each two: the fleet keeps both cores busy, so the slice
// takes a core away from it for a few milliseconds; that interval,
// and the refill after it, are not measured.
func fleetRepeat(o options, tr *tracer, host *hostSpeed, traceEvery int) (fleetRun, *cluster.Cluster, error) {
	n := uint64(o.sz.fleetEcho)
	var fr fleetRun
	sp := tr.begin("repeat")
	defer tr.end(sp)

	var c *cluster.Cluster
	var err error
	tr.in("setup", func() { c, err = fleetUp(o, tr, traceEvery, &fr) })
	stopped := false
	stop := func() {
		if !stopped {
			stopped = true
			fr.stopTime = tr.in("cluster.Stop", c.Stop)
		}
	}
	defer stop()
	if err != nil {
		return fr, c, err
	}

	var s0, s1 metrics.Snapshot
	fr.snapTime = tr.in("cluster.Snapshot", func() { s0 = c.Snapshot() })
	h0 := readHost()

	wsp := tr.begin("measured window")
	var echoes, instrs uint64
	var wall time.Duration
	rtt := c.Reg.Hist("cluster.loadgen.rtt_us")
	for seg := uint64(0); seg < fleetSegments && err == nil; seg++ {
		host.slice()
		refilled := c.Replies() + 2*fleetConns
		if err = awaitReplies(c, fleetStallLimit, func() bool { return c.Replies() >= refilled }); err != nil {
			break
		}
		h0, i0, r0, t0 := rtt.Snapshot(), c.GuestInstrs(), c.Replies(), time.Now()
		err = awaitReplies(c, fleetStallLimit, func() bool { return c.Replies()-r0 >= n/fleetSegments })
		echoes += c.Replies() - r0
		wall += time.Since(t0)
		instrs += c.GuestInstrs() - i0
		addHist(&fr.rtt, rtt.Snapshot().Sub(h0))
	}
	host.slice()
	fr.rep.runSlow = host.take()
	tr.count(wsp, "echoes", float64(echoes))
	tr.count(wsp, "guest_instrs", float64(instrs))
	tr.end(wsp)

	fr.rep.host = readHost().sub(h0)
	tr.in("cluster.Snapshot", func() { s1 = c.Snapshot() })
	stop()
	fr.window = s1.Delta(s0)
	fr.rep.reg = region{wall: wall, instrs: instrs}
	fr.rep.ops = int(echoes)

	// Failures: suspected losses, corrupt replies, abandoned
	// connections, and echoes a wedge left undone.
	ctr := fr.window.Counters
	fr.rep.failed = int(ctr["cluster.loadgen.timeouts"] + ctr["cluster.loadgen.bad_sum"] + ctr["cluster.loadgen.gave_up"])
	if echoes < n {
		fr.rep.failed += int(n - echoes)
		fr.rep.ops = int(n)
	}
	if err != nil {
		return fr, c, fmt.Errorf("fleet_echo: wedged after %d of %d echoes: %w", echoes, n, err)
	}
	var verr error
	tr.in("verify", func() {
		if err := c.Err(); err != nil {
			verr = fmt.Errorf("fleet_echo: %w", err)
		} else if got, want := c.Replies(), c.SeqSum(); got != want {
			verr = fmt.Errorf("fleet_echo: %d replies counted but connections acknowledged %d", got, want)
		}
	})
	return fr, c, verr
}

// addHist adds the observations of d into sum.
func addHist(sum *metrics.HistSnapshot, d metrics.HistSnapshot) {
	sum.Count += d.Count
	sum.Sum += d.Sum
	sum.Min, sum.Max = d.Min, d.Max // cumulative extremes, as Sub leaves them
	for len(sum.Buckets) < len(d.Buckets) {
		sum.Buckets = append(sum.Buckets, 0)
	}
	for i, n := range d.Buckets {
		sum.Buckets[i] += n
	}
}

// awaitReplies polls until done holds. It gives up when the fleet
// reports an error or when the reply count has not advanced for the
// given time: progress, not elapsed time, is what a healthy fleet
// owes.
func awaitReplies(c *cluster.Cluster, stall time.Duration, done func() bool) error {
	last, lastAt := c.Replies(), time.Now()
	for !done() {
		time.Sleep(fleetPoll)
		if err := c.Err(); err != nil {
			return err
		}
		if r := c.Replies(); r != last {
			last, lastAt = r, time.Now()
		} else if time.Since(lastAt) > stall {
			return fmt.Errorf("no reply for %v", stall)
		}
	}
	return nil
}

func runFleet(w *workload, o options, allowance float64, tr *tracer, res *result) error {
	host := newHostSpeed()
	setups, err := timedSetups(tr, host, o.sz.setups, func() (func(), error) {
		c, err := fleetUp(o, tr, 0, new(fleetRun))
		return c.Stop, err
	})
	if err != nil {
		return err
	}
	var runs []fleetRun
	tsp := tr.begin("timed repeats")
	reps, heap, err := timedRepeats(allowance, func() (repeat, any, error) {
		fr, c, err := fleetRepeat(o, tr, host, 0)
		runs = append(runs, fr)
		return fr.rep, c, err
	})
	tr.end(tsp)
	if err != nil {
		// A wedged repeat still counts: its unfinished echoes are the
		// failures the run reports.
		if n := len(runs); n > len(reps) {
			res.Attempted += runs[n-1].rep.ops
			res.Failed += runs[n-1].rep.failed
		}
		return err
	}
	summarize(res, reps, setups, heap, false)
	if !o.trace {
		return nil
	}
	fleetLayers(res, runs)
	floor := probeStepFloor(tr, o.sz)
	m := res.Metrics
	m["m68k.step_floor_ns_per_instr"] = floor
	m["host.go_side_ns_per_op"] = 1e9/m["host.ops_per_s_raw"] - m["cluster.guest_instr_per_echo"]*floor
	if err := tracedFleet(o, tr, host, res); err != nil {
		return err
	}
	return runProbes(w.name, o, tr, res)
}

// fleetLayers derives the cluster layer's W metrics: medians over the
// timed repeats' measured windows.
func fleetLayers(res *result, runs []fleetRun) {
	col := func(f func(fr *fleetRun) float64) float64 {
		var xs []float64
		for i := range runs {
			xs = append(xs, f(&runs[i]))
		}
		return median(xs)
	}
	ctr := func(name string) func(*fleetRun) float64 {
		return func(fr *fleetRun) float64 { return float64(fr.window.Counters[name]) }
	}
	rtt := func(fr *fleetRun) metrics.HistSnapshot { return fr.rtt }
	ms := func(d time.Duration) float64 { return float64(d) / 1e6 }

	m := res.Metrics
	m["cluster.rtt_mean_us"] = col(func(fr *fleetRun) float64 { return rtt(fr).Mean() })
	m["cluster.rtt_p50_us"] = col(func(fr *fleetRun) float64 { return rtt(fr).Quantile(0.50) })
	m["cluster.rtt_p99_us"] = col(func(fr *fleetRun) float64 { return rtt(fr).Quantile(0.99) })
	m["cluster.guest_instr_per_echo"] = col(func(fr *fleetRun) float64 { return float64(fr.rep.reg.instrs) / float64(fr.rep.ops) })
	m["cluster.guest_mips"] = m["m68k.guest_mips"]
	m["cluster.timeouts"] = col(ctr("cluster.loadgen.timeouts"))
	m["cluster.resends"] = col(ctr("cluster.loadgen.resends"))
	m["cluster.fabric_dropped"] = col(ctr("cluster.fabric.dropped"))
	m["cluster.stale"] = col(ctr("cluster.loadgen.stale"))
	m["cluster.bad_sum"] = col(ctr("cluster.loadgen.bad_sum"))
	// Little's law on the closed loop: throughput x mean RTT is the
	// number of messages in flight, which the workload fixes at one
	// per connection. Both are raw host time here. A quotient away
	// from 1 means the two clocks (the poll loop's and the load
	// generator's) disagree.
	m["cluster.little_quotient"] = m["host.ops_per_s_raw"] * m["cluster.rtt_mean_us"] / 1e6 / fleetConns
	m["cluster.new_host_ms"] = col(func(fr *fleetRun) float64 { return ms(fr.newTime) })
	m["cluster.warm_ms"] = col(func(fr *fleetRun) float64 { return ms(fr.warmTime) })
	m["cluster.snapshot_ms"] = col(func(fr *fleetRun) float64 { return ms(fr.snapTime) })
	m["cluster.stop_ms"] = col(func(fr *fleetRun) float64 { return ms(fr.stopTime) })
}

// tracedFleet is the fleet's traced repeat: the same work with the
// request-tracing plane sampling one launch in fleetTraceEvery (which
// also attaches the profiler to the VM).
func tracedFleet(o options, tr *tracer, host *hostSpeed, res *result) error {
	sp := tr.begin("traced repeat")
	defer tr.end(sp)
	fr, c, err := fleetRepeat(o, tr, host, fleetTraceEvery)
	if err != nil {
		return err
	}
	m := res.Metrics
	var hopSum float64
	for i := 0; i < cluster.HopCount; i++ {
		h := fr.window.Hists["cluster.trace.hop."+cluster.HopName(i)+"_us"]
		m["cluster.hop."+cluster.HopName(i)+"_p50_us"] = h.Quantile(0.50)
		hopSum += h.Mean()
	}
	if mean := fr.rtt.Mean(); mean > 0 {
		m["cluster.trace_conservation"] = hopSum / mean
	}
	if sampled := fr.window.Counters["cluster.trace.sampled"]; sampled > 0 {
		m["cluster.trace_completed_ratio"] = float64(fr.window.Counters["cluster.trace.completed"]) / float64(sampled)
	}
	m["prof.trace_overhead_x"] = fr.rep.reg.wall.Seconds() / fr.rep.runSlow / float64(fr.rep.ops) * m["ops_per_s"]

	// The fleet is stopped: its one VM's profiler can be read.
	p := c.VMs()[0].K.Prof
	foldProfile(m, p)
	m["prof.irq_net_latency_cycles"] = p.IRQ(m68k.IRQNet).Mean()
	// Every echo is one guest receive and one guest send.
	echoes := float64(c.Replies())
	m["kio.sock_send_instr_per_call"] = float64(regionInstrs(p, ".send")) / echoes
	m["kio.sock_recv_instr_per_call"] = float64(regionInstrs(p, ".recv")) / echoes
	return nil
}
