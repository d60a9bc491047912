package cluster

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"synthesis/internal/asmkit"
	"synthesis/internal/fault"
	"synthesis/internal/kernel"
	"synthesis/internal/kio"
	"synthesis/internal/m68k"
	"synthesis/internal/metrics"
	"synthesis/internal/net"
	"synthesis/internal/prof"
	"synthesis/internal/unixemu"
)

// Fabric geometry and the guest port plan. Guest echo sockets sit at
// guestPortBase+j; their replies target host ports replyPortBase+j.
// Logical connections are multiplexed over the guest sockets (the
// per-kernel socket capacity is kio.MaxSockets) and matched by the
// connection id carried in every payload, so the connection count is
// bounded by the 24-bit payload id space, not the socket table.
const (
	guestPortBase = 0x50
	replyPortBase = 0x900

	// minRingSlots is the least a fabric ring holds (see ringSlots):
	// room for a throttled link's whole queue, released at once, and
	// as many again.
	minRingSlots = 2 * throttleSlots

	chunkCycles = 4096 // guest cycles a driver runs between looks at its ingress ring
	traceKeep   = 512  // completed traces retained for Chrome export
)

// Config parameterizes a cluster.
type Config struct {
	// VMs is the Quamachine count (default 2).
	VMs int
	// SocketsPerVM is the echo sockets (and guest threads) per VM
	// (default 8, capped at kio.MaxSockets).
	SocketsPerVM int
	// Conns is the logical connection count across the whole fleet
	// (default 64). Connections are dealt round-robin over
	// (VM, socket) pairs.
	Conns int
	// PayloadBytes sizes each message (default 64; min 8 for the
	// [conn][seq] header, max net.MTU).
	PayloadBytes int
	// ChurnEvery makes each guest thread close and reopen its socket
	// after that many echoes (0 = no churn). Frames arriving in the
	// gap are stack drops; the load generator's timeout resends.
	ChurnEvery int
	// Timeout is the load generator's initial resend timeout (default
	// 50ms). Each unanswered resend doubles the wait, up to 16x Timeout
	// and at most 2s.
	Timeout time.Duration
	// MaxResends caps resend attempts per message; past the cap the
	// connection gives up (counted in cluster.loadgen.gave_up) and goes
	// silent. 0 means never give up.
	MaxResends int
	// Seed fixes the payload padding generator (and, xored with a
	// plane constant, the fault plane's draws).
	Seed int64
	// Faults is the fault schedule: machine items for every member's
	// injector, per-link fabric rules, scripted partitions, and per-VM
	// plans (see fault.SpecHelp). The zero value injects nothing.
	Faults fault.Plan
	// Metrics is the shared registry; each VM registers under a
	// vm<i>. prefix. A fresh registry is created when nil.
	Metrics *metrics.Registry
	// TraceEvery samples one in N fresh request launches into the
	// fleet trace plane (see trace.go). 0 — the default — disables
	// tracing entirely: the hot paths pay one nil check. Enabling it
	// also attaches the profiler to every VM (the trace plane's IRQ
	// and region hooks ride on it), which slows the interpreter;
	// tracing is an observability mode, not a benchmark default.
	TraceEvery int
	// Flight arms the per-VM flight recorder: the profiler's event
	// ring and program trace, rendered into a dump the moment a VM
	// driver fails (see flight.go).
	Flight bool
}

// ringSlots sizes a fabric ring for n connections. The load generator
// keeps one message in flight per connection, so n slots hold every
// frame a healthy fleet can have queued; the floor and the round up to
// a power of two leave room for resends, duplicates and frames the
// fault plane releases together, and a frame past them is a counted
// drop the generator resends. Each slot holds a whole frame, so a ring
// sized for the worst case would be most of a fleet's heap.
func ringSlots(n int) int {
	s := minRingSlots
	for s < n {
		s <<= 1
	}
	return s
}

func (cfg *Config) setDefaults() {
	if cfg.VMs <= 0 {
		cfg.VMs = 2
	}
	if cfg.VMs > net.MaxNodes {
		cfg.VMs = net.MaxNodes
	}
	if cfg.SocketsPerVM <= 0 {
		cfg.SocketsPerVM = 8
	}
	if cfg.SocketsPerVM > kio.MaxSockets {
		cfg.SocketsPerVM = kio.MaxSockets
	}
	if cfg.Conns <= 0 {
		cfg.Conns = 64
	}
	if cfg.PayloadBytes < 8 {
		cfg.PayloadBytes = 64
	}
	if cfg.PayloadBytes > net.MTU {
		cfg.PayloadBytes = net.MTU
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 50 * time.Millisecond
	}
}

// VM is one fleet member: a booted kernel, its fabric ingress ring,
// and the mutex that serializes execution chunks against snapshots.
type VM struct {
	ID int // 1-based node id
	K  *kernel.Kernel
	IO *kio.IO

	mu      sync.Mutex // held around drain+Run chunks and by Snapshot
	ingress *net.PacketRing
	wire    [net.FrameMax]byte // the frame drainIngress hands the NIC
	err     error
	// clk maps this VM's cycle clock onto the fleet wall clock from
	// sync points the driver records at chunk boundaries, for WriteTrace.
	// Nil unless tracing is on.
	clk *prof.ClockMap
	// The driver's wall time, busy and parked, its chunk count and how
	// often it parked.
	busyNS, parkNS, chunks, parks *metrics.Counter
}

func (vm *VM) setErr(err error) {
	vm.mu.Lock()
	if vm.err == nil {
		vm.err = err
	}
	vm.mu.Unlock()
}

// Err returns the first error the VM's driver hit (nil while healthy).
func (vm *VM) Err() error {
	vm.mu.Lock()
	defer vm.mu.Unlock()
	return vm.err
}

// drainIngress moves fabric frames into the NIC's DMA ring, popping
// the node tag so the synthesized demux sees a plain port. Paced by
// the ring's free space: frames the device can't take stay queued in
// the fabric ring instead of being dropped at the device.
func (c *Cluster) drainIngress(vm *VM) {
	nic := vm.K.Net
	for nic.RxPending() < kio.NetRingSlots {
		f, ok := vm.ingress.Get()
		if !ok {
			break
		}
		f.Dst = net.PortOf(f.Dst)
		nic.Deliver(vm.wire[:net.PutFrame(vm.wire[:], f)])
		if c.tr != nil && c.tr.active.Load() > 0 {
			c.tr.onDeposit(vm.ID, &f, vm.K.M.Clock())
		}
	}
}

// Cluster is a running (or runnable) fleet.
type Cluster struct {
	cfg Config
	// Reg is the shared metrics plane: per-VM kernel and kio metrics
	// under vm<i>. prefixes, fabric and load-generator metrics under
	// cluster.
	Reg *metrics.Registry

	vms      []*VM
	hostRing *net.PacketRing
	fp       *faultPlane
	padSeed  uint64
	start    time.Time
	// tr is the fleet trace plane (nil when TraceEvery == 0); flight
	// holds captured failure dumps (nil when Flight is off).
	tr     *tracer
	flight *flightState

	// lgMu guards the load generator's state; the generator holds it
	// across each pass, probes (AwaitingRecovery, SeqSum) take it
	// briefly. sweepAt is the earliest deadline among the connections:
	// when the generator's next sweep is due. lgBuf is where it builds
	// each payload; the fabric copies what it keeps.
	lgMu    sync.Mutex
	conns   []lgConn
	sweepAt time.Time
	lgBuf   [net.MTU]byte

	// done is closed by Stop: every fleet goroutine waits on it beside
	// whatever wakes it for work.
	done     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
	started  bool
	nActive  atomic.Int64

	mOffered     *metrics.Counter
	mRouted      *metrics.Counter
	mDropped     *metrics.Counter
	mUndecodable *metrics.Counter
	mSent        *metrics.Counter
	mReplies     *metrics.Counter
	mWakes       *metrics.Counter
	mTimeouts    *metrics.Counter
	mResends     *metrics.Counter
	mGaveUp      *metrics.Counter
	mStale       *metrics.Counter
	mBadSum      *metrics.Counter
	hRTT         *metrics.Hist
	hRecovery    *metrics.Hist
}

// New boots a fleet per cfg: VMs each with kio installed, guest echo
// threads spawned (one per socket), NICs attached to the fabric, and
// the load generator's connection table dealt. Nothing executes until
// Start.
func New(cfg Config) *Cluster {
	cfg.setDefaults()
	reg := cfg.Metrics
	if reg == nil {
		reg = metrics.New()
	}
	c := &Cluster{
		cfg:      cfg,
		Reg:      reg,
		hostRing: net.NewPacketRing(ringSlots(cfg.Conns)),
		padSeed:  uint64(cfg.Seed)*0x9e3779b97f4a7c15 + 1,
		start:    time.Now(),
		done:     make(chan struct{}),

		mOffered:     reg.Counter("cluster.fabric.offered"),
		mRouted:      reg.Counter("cluster.fabric.routed"),
		mDropped:     reg.Counter("cluster.fabric.dropped"),
		mUndecodable: reg.Counter("cluster.fabric.undecodable"),
		mSent:        reg.Counter("cluster.loadgen.sent"),
		mReplies:     reg.Counter("cluster.loadgen.replies"),
		mWakes:       reg.Counter("cluster.loadgen.wakes"),
		mTimeouts:    reg.Counter("cluster.loadgen.timeouts"),
		mResends:     reg.Counter("cluster.loadgen.resends"),
		mGaveUp:      reg.Counter("cluster.loadgen.gave_up"),
		mStale:       reg.Counter("cluster.loadgen.stale"),
		mBadSum:      reg.Counter("cluster.loadgen.bad_sum"),
		hRTT:         reg.Hist("cluster.loadgen.rtt_us"),
		hRecovery:    reg.Hist("cluster.loadgen.recovery_ms"),
	}
	c.fp = newFaultPlane(c, cfg.Faults, cfg.Seed)
	if cfg.TraceEvery > 0 {
		c.tr = newTracer(c, cfg.TraceEvery)
	}
	if cfg.Flight {
		c.flight = &flightState{}
	}

	for id := 1; id <= cfg.VMs; id++ {
		c.vms = append(c.vms, c.bootVM(id))
	}

	// Every VM boot bound the plane clock to its own machine; a fleet
	// has no single VM clock, so the cluster re-binds it to wall time
	// in nanoseconds (MHz 1000: Micros = ns/1000, Rate = per wall
	// second) — aggregate throughput is a wall-clock statement.
	reg.SetClock(func() uint64 { return uint64(time.Since(c.start)) }, 1000)

	for i := 0; i < cfg.Conns; i++ {
		vm := 1 + i%cfg.VMs
		sock := (i / cfg.VMs) % cfg.SocketsPerVM
		c.conns = append(c.conns, lgConn{
			vm:   vm,
			port: guestPortBase + uint32(sock),
		})
	}
	return c
}

// bootVM brings up one fleet member: a Sun 3/160-point kernel with
// its metrics under a vm<i>. prefix, the NIC's Tx hook pointed at the
// fabric, and one guest echo thread per socket.
func (c *Cluster) bootVM(id int) *VM {
	// Tracing and the flight recorder both ride the profiler's hooks;
	// neither is a benchmark default, so the plane only attaches (and
	// pays its per-step cost) when asked for.
	observed := c.tr != nil || c.flight != nil
	mcfg := m68k.Sun3Config()
	reg := c.Reg.Sub(fmt.Sprintf("vm%d.", id))
	k := kernel.Boot(kernel.Config{
		Machine:         mcfg,
		ChargeSynthesis: true,
		Profile:         observed,
		Metrics:         reg,
	})
	io := kio.Install(k)
	unixemu.Install(k)

	// Connections are dealt round-robin, so this VM serves every
	// VMs-th one from its own index on.
	conns := (c.cfg.Conns - id + c.cfg.VMs) / c.cfg.VMs
	vm := &VM{ID: id, K: k, IO: io, ingress: net.NewPacketRing(ringSlots(conns)),
		busyNS: reg.Counter("driver.busy_ns"), parkNS: reg.Counter("driver.park_ns"),
		chunks: reg.Counter("driver.chunks"), parks: reg.Counter("driver.parks")}
	if c.flight != nil {
		k.Prof.ArmTrace(flightInstrTail)
	}
	if c.tr != nil {
		vm.clk = prof.NewClockMap(mcfg.ClockMHz)
		k.Prof.OnIRQ = func(level, vec int, raisedAt, takenAt uint64) {
			if level == m68k.IRQNet && c.tr.active.Load() > 0 {
				c.tr.onIRQ(id, takenAt)
			}
		}
		k.Prof.OnRegionEnter = func(name string, at uint64) {
			if c.tr.active.Load() > 0 {
				c.tr.onRegion(id, name, at)
			}
		}
	}
	k.Net.Tx = func(frame []byte) bool { return c.routeRaw(id, frame) }
	c.Reg.SampleGauge(fmt.Sprintf("cluster.fabric.vm%d.ingress_depth", id),
		func() float64 { return float64(vm.ingress.Len()) })

	// The member's own fault injector runs inside the driver goroutine
	// under vm.mu, so its stats are safe to sample from
	// Cluster.Snapshot, which quiesces every VM.
	if plan := c.cfg.Faults.VM(id); !plan.Empty() {
		inj := fault.New(plan, c.cfg.Seed+int64(id))
		inj.Attach(k.M)
		pfx := fmt.Sprintf("vm%d.fault.", id)
		c.Reg.Sample(pfx+"wire_dropped", func() uint64 { return inj.Stats.Dropped })
		c.Reg.Sample(pfx+"wire_corrupted", func() uint64 { return inj.Stats.Corrupted })
		c.Reg.Sample(pfx+"wire_duplicated", func() uint64 { return inj.Stats.Duplicated })
		c.Reg.Sample(pfx+"forced_full", func() uint64 { return inj.Stats.ForcedFull })
	}

	// One guest echo thread per socket. Each thread opens its own
	// socket (the open synthesizes that socket's send/recv code) and
	// echoes forever; under churn it closes and reopens on a period.
	var first *kernel.Thread
	for j := 0; j < c.cfg.SocketsPerVM; j++ {
		b := asmkit.New()
		buildEchoThread(b, guestPortBase+uint32(j), replyPortBase+uint32(j),
			guestBufBase+uint32(j)*guestBufStride, int32(c.cfg.ChurnEvery))
		t := k.SpawnKernel(fmt.Sprintf("echo%d", j), b.Link(k.M))
		if first == nil {
			first = t
		}
	}
	k.Start(first)
	return vm
}

// routeRaw is the NIC Tx hook: wire bytes off a VM into the switch.
// The bytes are a view of the VM's memory, so nothing on the way keeps
// them: the rings and the fault plane copy what they hold.
func (c *Cluster) routeRaw(from int, frame []byte) bool {
	f, ok := net.DecodeFrame(frame)
	if !ok {
		c.mUndecodable.Inc()
		return false
	}
	return c.route(from, f)
}

// route switches one frame by the node byte of its destination. Host-
// bound frames get the source VM's node pushed onto Src (the reverse
// of the tag pop at VM ingress), so the host can tell fleet members
// apart. When the fault plane is armed, the frame transits it first:
// silent losses (drop, partition) still return true — a network does
// not report the frames it eats — while throttle overflow returns
// false, the same transmitter-visible backpressure as a full ring.
// Returns false when the destination ring is full or the node does
// not exist. Every frame lands in exactly one counter family:
//
//	offered == routed + dropped + plane-consumed
func (c *Cluster) route(from int, f net.Frame) bool {
	c.mOffered.Inc()
	node := net.NodeOf(f.Dst)
	if node != net.HostNode && (node < 1 || node > len(c.vms)) {
		c.mDropped.Inc()
		return false
	}
	if node == net.HostNode {
		f.Src = net.MakeAddr(from, net.PortOf(f.Src))
		// A traced reply leaving its VM: stamp the launch before the
		// return fabric transit (fault delays land in fabric_back).
		if c.tr != nil && from != net.HostNode && c.tr.active.Load() > 0 {
			c.tr.onTx(from, &f, c.vms[from-1].K.M.Clock())
		}
	}
	if c.fp.enabled.Load() {
		deliver, ok := c.fp.transit(from, node, &f)
		if !deliver {
			return ok
		}
	}
	return c.deliver(node, f)
}

// deliver puts one frame on its destination ring, counting the
// outcome. The plane's pump and dup paths re-enter here, so held and
// duplicated frames share the routed/dropped accounting.
func (c *Cluster) deliver(node int, f net.Frame) bool {
	var ring *net.PacketRing
	if node == net.HostNode {
		ring = c.hostRing
	} else {
		ring = c.vms[node-1].ingress
	}
	// The trace stamp lands before the Put: once the frame is on the
	// ring the consumer can race ahead of this goroutine, and a later
	// stamp would leave the hop chain wedged behind an event the
	// consumer already tried to record. A stamp on a frame the ring
	// then refuses is harmless — the lost message gets resent, which
	// abandons the trace.
	if c.tr != nil && c.tr.active.Load() > 0 {
		c.tr.onDeliver(node, &f, time.Now())
	}
	if !ring.Put(f) {
		c.mDropped.Inc()
		return false
	}
	c.mRouted.Inc()
	return true
}

// Start launches the per-VM drivers and the load generator.
func (c *Cluster) Start() {
	if c.started {
		return
	}
	c.started = true
	c.fp.mu.Lock()
	c.fp.epoch = time.Now()
	c.fp.mu.Unlock()
	if c.fp.timed {
		c.wg.Add(1)
		go c.faultPump()
	}
	for _, vm := range c.vms {
		c.wg.Add(1)
		go c.drive(vm)
	}
	c.wg.Add(1)
	go c.loadgen()
}

// drive is one VM's goroutine: drain fabric ingress, run a cycle
// chunk, repeat. The VM mutex is held across each drain+run pair so a
// Snapshot never reads VM memory mid-chunk.
//
// After each chunk the driver asks the guest whether it has anything
// to do. A CPU in STOP is the kernel's idle thread — every echo thread
// is blocked on receive — so with the NIC ring and the ingress ring
// both empty nothing is owed, and the driver parks until the ingress
// ring signals a frame (or KillVM, or Stop). Guest time stands still
// meanwhile: no timer interrupt is simulated for a fleet member
// nobody is talking to. Otherwise it runs the next chunk and keeps its
// core; the load generator, readied onto this goroutine's P, mostly
// runs while the driver is parked (DESIGN.md §3a). One clock read per chunk and per wake splits its
// wall time into driver.busy_ns and driver.park_ns; driver.parks
// counts the parks.
func (c *Cluster) drive(vm *VM) {
	defer c.wg.Done()
	last := time.Since(c.start)
	for {
		select {
		case <-c.done:
			return
		default:
		}
		vm.mu.Lock()
		if vm.err != nil {
			vm.mu.Unlock()
			return
		}
		c.drainIngress(vm)
		err := vm.K.Run(chunkCycles)
		parked := vm.K.M.Stopped() && vm.K.Net.RxPending() == 0 && vm.ingress.Len() == 0
		now := time.Since(c.start) // the fleet clock (nowNS)
		vm.busyNS.Add(uint64(now - last))
		vm.chunks.Inc()
		last = now
		if vm.clk != nil {
			// One sync point per chunk: the cycle↔wall relation the
			// merged trace timeline interpolates between.
			vm.clk.Sync(vm.K.M.Clock(), int64(now))
		}
		vm.mu.Unlock()
		if err == nil {
			// Run maps a machine halt to nil: every guest thread exited,
			// which a healthy echo fleet never does.
			c.recordVMErr(vm, fmt.Errorf("cluster: vm%d halted", vm.ID))
			return
		}
		if !errors.Is(err, m68k.ErrCycleLimit) {
			c.recordVMErr(vm, fmt.Errorf("cluster: vm%d: %w", vm.ID, err))
			return
		}
		if !parked {
			continue
		}
		vm.parks.Inc()
		select {
		case <-vm.ingress.Ready():
		case <-c.done:
			return
		}
		now = time.Since(c.start)
		vm.parkNS.Add(uint64(now - last))
		last = now
		if vm.clk != nil {
			// The guest clock stood still while the wall clock ran:
			// re-anchor the same cycle, or the timeline smears the
			// next chunk's events back over the gap.
			vm.clk.Sync(vm.K.M.Clock(), int64(now))
		}
	}
}

func (c *Cluster) recordVMErr(vm *VM, err error) {
	// Capture the flight dump before publishing the error: the rings
	// still hold the failure's tail, and nothing else runs this VM.
	c.captureFlight(vm, err)
	vm.setErr(err)
}

// Stop halts the drivers and the load generator and waits for them;
// a second Stop is a no-op. The cluster can be snapshotted after Stop
// but not restarted.
func (c *Cluster) Stop() {
	if !c.started {
		return
	}
	c.stopOnce.Do(func() {
		close(c.done)
		c.wg.Wait()
		// Only now is nobody routing: a flush while a driver finishes
		// its last chunk would miss the frame that chunk hands the
		// plane, and the conservation identity with it.
		c.fp.flush()
	})
}

// Snapshot takes one registry snapshot covering the whole fleet, with
// every VM quiesced: all VM mutexes are held (in node order) so the
// sampled closures reading VM memory never race a running chunk.
func (c *Cluster) Snapshot() metrics.Snapshot {
	for _, vm := range c.vms {
		vm.mu.Lock()
	}
	s := c.Reg.Snapshot()
	for i := len(c.vms) - 1; i >= 0; i-- {
		c.vms[i].mu.Unlock()
	}
	return s
}

// Err returns the first per-VM driver error, or nil while the whole
// fleet is healthy.
func (c *Cluster) Err() error {
	for _, vm := range c.vms {
		if err := vm.Err(); err != nil {
			return err
		}
	}
	return nil
}

// KillVM injects a fatal guest panic into VM id (1-based): the
// driver, woken if it was parked, surfaces ErrPanic from its next
// chunk, the flight recorder (when armed) captures the dying VM's
// tail, and Err() goes non-nil. A chaos primitive for exercising
// member-death handling end to end — the same path a real guest panic
// trap takes.
func (c *Cluster) KillVM(id int, msg string) {
	if id < 1 || id > len(c.vms) {
		return
	}
	vm := c.vms[id-1]
	vm.mu.Lock()
	vm.K.PanicMsg = msg
	vm.mu.Unlock()
	vm.ingress.Wake()
}

// Replies reports completed echo round trips (host view).
func (c *Cluster) Replies() uint64 { return c.mReplies.Value() }

// ActiveConns reports how many logical connections have completed at
// least one round trip — the fleet-is-warm signal: connections whose
// first frames raced their socket's open sit out a resend timeout, so
// reply counts alone overstate readiness.
func (c *Cluster) ActiveConns() int { return int(c.nActive.Load()) }

// VMs returns the fleet members (host view, for tests).
func (c *Cluster) VMs() []*VM { return c.vms }

// GuestInstrs returns the total guest instructions executed across
// the fleet so far. A delta over a wall-clock window gives aggregate
// fleet MIPS, and over a count of echoes the guest path length
// (fleet_echo's cluster.guest_mips and cluster.guest_instr_per_echo).
func (c *Cluster) GuestInstrs() uint64 {
	var n uint64
	for _, vm := range c.vms {
		vm.mu.Lock()
		n += vm.K.M.Instrs
		vm.mu.Unlock()
	}
	return n
}

// AwaitingRecovery reports how many connections a heal event marked
// that have not yet completed their first post-heal round trip. Zero
// once the fleet has fully recovered.
func (c *Cluster) AwaitingRecovery() int {
	c.lgMu.Lock()
	defer c.lgMu.Unlock()
	n := 0
	for i := range c.conns {
		if c.conns[i].recovering {
			n++
		}
	}
	return n
}

// GaveUpConns reports how many connections hit the resend cap and went
// silent. The chaos soak's liveness invariant demands zero after heal.
func (c *Cluster) GaveUpConns() int {
	c.lgMu.Lock()
	defer c.lgMu.Unlock()
	n := 0
	for i := range c.conns {
		if c.conns[i].gaveUp {
			n++
		}
	}
	return n
}

// SeqSum sums every connection's completed round trips; equal to
// Replies() by construction — the soak asserts the identity to pin
// acked-sequence integrity.
func (c *Cluster) SeqSum() uint64 {
	c.lgMu.Lock()
	defer c.lgMu.Unlock()
	var n uint64
	for i := range c.conns {
		n += uint64(c.conns[i].seq)
	}
	return n
}
