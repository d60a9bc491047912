package main

import (
	"fmt"
	"time"

	"synthesis/internal/alloc"
	"synthesis/internal/asmkit"
	"synthesis/internal/kernel"
	"synthesis/internal/kio"
	"synthesis/internal/m68k"
	"synthesis/internal/metrics"
	"synthesis/internal/net"
	"synthesis/internal/synth"
	"synthesis/internal/unixemu"
)

// Layer probes: fixed-count micro-runs around single public calls of
// one layer. Each belongs to the workload whose end-to-end numbers it
// should move (the table in README.md) and runs in that workload's
// per-layer run; `go run ./benchmark` therefore collects all of them.
// The "det" probes read the cycle clock or a counter and repeat
// exactly; the others are host nanoseconds and carry no bound.

// probe is one micro-run producing one or more metrics.
type probe struct {
	name     string // span name
	workload string // whose per-layer run it belongs to
	run      func(sz sizes, m values) error
}

var probes = []probe{
	{"probe m68k code space", "open_close", probeCodeSpace},
	{"probe asmkit.Link", "open_close", probeLink},
	{"probe synth", "open_close", probeSynth},
	{"probe kio opens", "open_close", probeOpens},
	{"probe fs+alloc", "open_close", probeFSAlloc},
	{"probe kernel.Boot+kio.Install", "compute", probeBoot},
	{"probe unixemu gate", "pipe_rw", probeGate},
	{"probe kio pipe 1 KB", "file_rw", probePipe1K},
	{"probe kernel thread ops", "thread_ops", probeThreadOps},
	{"probe kio socket open", "sock_echo", probeSockOpen},
	{"probe m68k.Net.Deliver", "fleet_echo", probeNetDeliver},
	{"probe kernel.Run idle chunk", "fleet_echo", probeRunChunk},
	{"probe net", "fleet_echo", probeNet},
	{"probe metrics", "fleet_echo", probeMetrics},
}

func runProbes(workload string, o options, tr *tracer, res *result) error {
	for _, p := range probes {
		if p.workload != workload {
			continue
		}
		var err error
		tr.in(p.name, func() { err = p.run(o.sz, res.Metrics) })
		if err != nil {
			return fmt.Errorf("%s: %w", p.name, err)
		}
	}
	return nil
}

// perCall times n calls of fn and returns nanoseconds per call.
func perCall(n int, fn func()) float64 {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		fn()
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(n)
}

func scaled(n int, sz sizes) int { return max(1, n/sz.probeDiv) }

// ---------------------------------------------------------------------
// m68k

// probeStepFloor is the bare step loop: no kernel, no devices, the
// dispatcher's own benchmark mix, translation cache warm. It runs in
// every per-layer run because host.go_side_ns_per_op is defined
// against it.
func probeStepFloor(tr *tracer, sz sizes) float64 {
	var ns float64
	tr.in("probe m68k step floor", func() {
		m := m68k.New(m68k.Config{})
		entry := m68k.EmitBenchProgram(m)
		once := func() {
			m.ClearHalt()
			m.PC = entry
			_ = m.Run(1 << 40) // runs to its HALT; the program cannot fault
		}
		once()
		i0 := m.Instrs
		t0 := time.Now()
		for i := 0; i < scaled(3000, sz); i++ {
			once()
		}
		ns = float64(time.Since(t0).Nanoseconds()) / float64(m.Instrs-i0)
	})
	return ns
}

// probeCodeSpace measures the write side of code space, which
// open_close exercises and compute never does.
func probeCodeSpace(sz sizes, out values) error {
	// First fetch of fresh straight-line code, against its second run.
	slots := scaled(200_000, sz)
	m := m68k.New(m68k.Config{})
	code := make([]m68k.Instr, 0, slots+1)
	for i := 0; i < slots; i++ {
		switch i % 4 {
		case 0:
			code = append(code, m68k.Instr{Op: m68k.ADD, Src: m68k.Imm(int32(i)), Dst: m68k.D(uint8(i % 8))})
		case 1:
			code = append(code, m68k.Instr{Op: m68k.MOVE, Src: m68k.D(0), Dst: m68k.D(1)})
		case 2:
			code = append(code, m68k.Instr{Op: m68k.CMP, Src: m68k.Imm(3), Dst: m68k.D(2)})
		default:
			code = append(code, m68k.Instr{Op: m68k.MOVE, Src: m68k.Imm(0x9000), Dst: m68k.D(3)})
		}
	}
	code = append(code, m68k.Instr{Op: m68k.HALT})
	entry := m.Emit(code)
	runOnce := func() time.Duration {
		m.ClearHalt()
		m.PC = entry
		t0 := time.Now()
		_ = m.Run(1 << 40)
		return time.Since(t0)
	}
	cold, warm := runOnce(), runOnce()
	out["m68k.translate_ns_per_slot"] = float64((cold - warm).Nanoseconds()) / float64(slots)

	// Patch one slot of a hot eight-instruction routine and run it
	// again: invalidate, retranslate, execute.
	pm := m68k.New(m68k.Config{})
	add := m68k.Instr{Op: m68k.ADD, Src: m68k.Imm(1), Dst: m68k.D(0)}
	hot := pm.Emit([]m68k.Instr{add, add, add, add, add, add, add, {Op: m68k.HALT}})
	out["m68k.patch_rerun_ns"] = perCall(scaled(200_000, sz), func() {
		pm.PatchCode(hot+3, add)
		pm.ClearHalt()
		pm.PC = hot
		_ = pm.Run(1 << 40)
	})

	// Grow code space in 64-slot routines up to a million slots (what
	// some twenty thousand opens leave behind).
	am := m68k.New(m68k.Config{})
	block := make([]m68k.Instr, 64)
	emits := scaled(1<<20, sz) / 64
	out["m68k.alloc_code_ns_per_slot"] = perCall(emits, func() { am.Emit(block) }) / 64
	return nil
}

// probeNetDeliver is the NIC's host-side receive path: one 64-byte
// frame DMA'd into the ring and the slot handed back.
func probeNetDeliver(sz sizes, out values) error {
	m := m68k.New(m68k.Config{})
	nic := m68k.NewNet(m)
	m.Attach(nic)
	nic.Store(m68k.NetRegRxBase, 4, 0x20000)
	nic.Store(m68k.NetRegRxSlots, 4, kio.NetRingSlots)
	nic.Store(m68k.NetRegSlotSz, 4, 256)
	nic.Store(m68k.NetRegCtl, 4, 1)
	frame := net.EncodeFrame(net.Frame{Dst: 9, Src: 5, Payload: make([]byte, fleetPayload)})
	delivered := true
	var head uint32
	out["m68k.net_deliver_ns_per_frame"] = perCall(scaled(1_000_000, sz), func() {
		delivered = nic.Deliver(frame) && delivered
		head++
		nic.Store(m68k.NetRegRxTail, 4, head)
	})
	if !delivered {
		return fmt.Errorf("the NIC refused a frame with its ring empty")
	}
	return nil
}

// ---------------------------------------------------------------------
// asmkit, synth

// template32 is the fixed 32-instruction template with four holes the
// synth probes instantiate.
func template32(e *synth.Emitter) {
	e.LeaHole("buf", 1)
	e.LoadHole("len", m68k.D(2))
	e.LoadHole("mask", m68k.D(3))
	e.LoadHole("gauge", m68k.D(4))
	e.Label("loop")
	for i := 0; i < 6; i++ {
		e.MoveL(m68k.PostInc(1), m68k.D(5))
		e.AndL(m68k.D(3), m68k.D(5))
		e.AddL(m68k.D(5), m68k.D(6))
		e.MoveL(m68k.D(6), m68k.Disp(int32(4*i), 1))
	}
	e.SubL(m68k.Imm(1), m68k.D(2))
	e.Bne("loop")
	e.AddL(m68k.Imm(1), m68k.D(4))
	e.Rts()
}

func template32Env() synth.Env {
	return synth.Env{
		"buf": synth.ConstOf(addrBufA), "len": synth.ConstOf(64),
		"mask": synth.ConstOf(0xff), "gauge": synth.ConstOf(0xF100),
	}
}

// program256 is the fixed 256-instruction program the optimizer and
// linker probes run on: sixteen copies of a block with something for
// every peephole pass to find.
func program256() asmkit.Program {
	b := asmkit.New()
	for i := 0; i < 16; i++ {
		next := fmt.Sprintf("n%d", i)
		hop := fmt.Sprintf("h%d", i)
		b.MoveL(m68k.Imm(8), m68k.D(0))
		b.AddL(m68k.Imm(4), m68k.D(0)) // folds into the move
		b.MoveL(m68k.D(0), m68k.D(1))
		b.MoveL(m68k.Imm(0), m68k.D(2)) // dead: overwritten below
		b.MoveL(m68k.Imm(16), m68k.D(2))
		b.Mulu(m68k.Imm(8), m68k.D(2)) // strength-reduces to a shift
		b.MoveL(m68k.Abs(addrBufA), m68k.D(3))
		b.AddL(m68k.D(3), m68k.D(1))
		b.CmpL(m68k.Imm(0), m68k.D(1))
		b.Beq(hop)
		b.MoveL(m68k.D(1), m68k.Abs(addrBufB))
		b.Label(hop)
		b.Bra(next) // a jump to the next block: threaded away
		b.Nop()
		b.Nop()
		b.Label(next)
		b.SubL(m68k.Imm(1), m68k.D(4))
		b.MoveL(m68k.D(4), m68k.Abs(addrBufB+4))
	}
	b.Rts()
	return b.Export()
}

func probeLink(sz sizes, out values) error {
	p := program256()
	b := asmkit.FromProgram(p)
	m := m68k.New(m68k.Config{})
	out["asmkit.link_ns_per_instr"] = perCall(scaled(2000, sz), func() { b.Link(m) }) / float64(b.Len())
	return nil
}

func probeSynth(sz sizes, out values) error {
	// Full pipeline on a booted kernel with synthesis charged: host
	// time per routine, and the guest time the cost model charges.
	k := kernel.Boot(kernel.Config{Machine: m68k.Sun3Config(), ChargeSynthesis: true})
	q := k.C.NewQuaject("probe")
	env := template32Env()
	n := scaled(2000, sz)
	c0 := k.M.Cycles
	out["synth.synthesize_host_us"] = perCall(n, func() { k.C.Synthesize(q, "routine", env, template32) }) / 1e3
	out["synth.synthesize_guest_us"] = float64(k.M.Cycles-c0) / sun3MHz / float64(n)

	p := program256()
	var st synth.OptStats
	out["synth.optimize_ns_per_instr"] = perCall(scaled(1000, sz), func() { _, st = synth.Optimize(p) }) / float64(len(p.Ins))
	out["synth.optimize_removed_ratio"] = float64(st.Removed) / float64(st.InstrsBefore)

	// Collapsing Layers: eight call sites of one leaf spliced inline.
	leaf := asmkit.New()
	leaf.AddL(m68k.Imm(1), m68k.D(0)).MoveL(m68k.D(0), m68k.D(1)).Rts()
	in, err := synth.RegisterInline(leaf.Export())
	if err != nil {
		return err
	}
	const leafAddr, sites = 0x4000, 8
	caller := asmkit.New()
	for i := 0; i < sites; i++ {
		caller.MoveL(m68k.Imm(int32(i)), m68k.D(0)).Jsr(leafAddr)
	}
	caller.Rts()
	cp := caller.Export()
	callees := map[uint32]synth.Inlinable{leafAddr: in}
	spliced := 0
	out["synth.collapse_ns_per_call"] = perCall(scaled(20_000, sz), func() { _, spliced = synth.Collapse(cp, callees) }) / sites
	if spliced != sites {
		return fmt.Errorf("Collapse spliced %d of %d call sites", spliced, sites)
	}
	return nil
}

// ---------------------------------------------------------------------
// kernel, kio, unixemu: set-up costs and cycle-clock path costs

func probeBoot(sz sizes, out values) error {
	n := scaled(20, sz)
	var boots, installs []float64
	for i := 0; i < n; i++ {
		t0 := time.Now()
		k := kernel.Boot(kernel.Config{Machine: m68k.Sun3Config(), ChargeSynthesis: true})
		t1 := time.Now()
		// Boot-time synthesis is not charged to any call, so the guest
		// clock stands where the devices' attach left it.
		out["kernel.boot_guest_us"] = float64(k.M.Cycles) / sun3MHz
		out["kernel.boot_code_slots"] = float64(k.M.CodeTop)
		t2 := time.Now()
		kio.Install(k)
		boots = append(boots, float64(t1.Sub(t0))/1e6)
		installs = append(installs, float64(time.Since(t2))/1e6)
	}
	out["kernel.boot_host_ms"] = median(boots)
	out["kio.install_host_ms"] = median(installs)
	return nil
}

// markedRun boots a rig, runs one program to its exit and returns the
// regions between consecutive mark pairs.
func markedRun(build func(r *rig, b *asmkit.Builder)) ([]region, error) {
	tr := newTracer("probe") // spans of the probe's own rig are not kept
	r := newRig(tr, nil, false, 1)
	b := asmkit.New()
	build(r, b)
	t := r.k.SpawnKernel("probe", b.Link(r.k.M))
	if err := r.run(tr, t, 2_000_000_000); err != nil {
		return nil, err
	}
	if failed := r.k.M.Peek(addrFail, 4); failed != 0 {
		return nil, fmt.Errorf("%d calls returned the wrong value", failed)
	}
	return r.rec.regions()
}

func guestUS(r region) float64 { return float64(r.cycles) / sun3MHz }

// probeGate: lseek is the cheapest UNIX call, so its cost is the cost
// of getting through the emulator gate and the native dispatcher.
func probeGate(sz sizes, out values) error {
	const calls = 32
	regs, err := markedRun(func(r *rig, b *asmkit.Builder) {
		b.MoveL(m68k.Imm(addrNameFile), m68k.D(1))
		unixCall(b, unixemu.SysOpen)
		b.MoveL(m68k.D(0), m68k.D(6))
		progMark(b)
		for i := 0; i < calls; i++ {
			b.MoveL(m68k.D(6), m68k.D(1))
			b.MoveL(m68k.Imm(0), m68k.D(2))
			unixCall(b, unixemu.SysLseek)
		}
		progMark(b)
		progExit(b)
	})
	if err != nil {
		return err
	}
	out["unixemu.lseek_us"] = guestUS(regs[0]) / calls
	return nil
}

// probePipe1K: the synthesized copy loop file_rw shares, through a
// pipe instead of a file.
func probePipe1K(sz sizes, out values) error {
	const rounds = 16
	regs, err := markedRun(func(r *rig, b *asmkit.Builder) {
		unixCall(b, unixemu.SysPipe)
		b.MoveL(m68k.D(0), m68k.D(6))
		b.MoveL(m68k.D(1), m68k.D(7))
		progMark(b)
		for i := 0; i < rounds; i++ {
			rw(b, unixemu.SysWrite, m68k.D(7), addrBufA, 1024)
			rw(b, unixemu.SysRead, m68k.D(6), addrBufB, 1024)
		}
		progMark(b)
		progExit(b)
	})
	if err != nil {
		return err
	}
	out["kio.pipe_1k_guest_us"] = guestUS(regs[0]) / rounds
	return nil
}

// probeOpens: what one open costs on the guest clock and in code
// space, per kind of file.
func probeOpens(sz sizes, out values) error {
	regs, err := markedRun(func(r *rig, b *asmkit.Builder) {
		for _, name := range []uint32{addrNameTTY, addrNameNull} {
			progMark(b)
			b.MoveL(m68k.Imm(int32(name)), m68k.D(1))
			unixCall(b, unixemu.SysOpen)
			progMark(b)
			b.MoveL(m68k.D(0), m68k.D(1))
			unixCall(b, unixemu.SysClose)
		}
		progExit(b)
	})
	if err != nil {
		return err
	}
	out["kio.open_tty_guest_us"] = guestUS(regs[0])
	out["kio.open_tty_code_slots"] = float64(regs[0].slots)
	out["kio.open_null_guest_us"] = guestUS(regs[1])
	return nil
}

// probeSockOpen: a socket open synthesizes the socket's send and
// receive routines and rebuilds the demux handler. Eight opens, the
// fleet VM's socket count.
func probeSockOpen(sz sizes, out values) error {
	regs, err := markedRun(func(r *rig, b *asmkit.Builder) {
		for i := int32(0); i < fleetSockets; i++ {
			progMark(b)
			b.MoveL(m68k.Imm(0x50+i), m68k.D(1))
			b.MoveL(m68k.Imm(0x900+i), m68k.D(2))
			unixCall(b, unixemu.SysSocket)
			progMark(b)
			b.TstL(m68k.D(0))
			b.Bpl(fmt.Sprintf("ok%d", i))
			b.AddL(m68k.Imm(1), m68k.Abs(addrFail))
			b.Label(fmt.Sprintf("ok%d", i))
		}
		progExit(b)
	})
	if err != nil {
		return err
	}
	var host []float64
	for _, r := range regs {
		host = append(host, float64(r.wall.Nanoseconds())/1e3)
	}
	// The first open is the guest-clock figure (later ones rebuild a
	// longer demux chain); the host figure is the median of all.
	out["kio.open_sock_guest_us"] = guestUS(regs[0])
	out["kio.open_sock_code_slots"] = float64(regs[0].slots)
	out["kio.open_sock_host_us"] = median(host)
	return nil
}

// probeThreadOps times the native thread calls one by one, the way
// the paper's Tables 3 and 4 do: mark pairs around each call from a
// driver thread, a parked victim as the target.
func probeThreadOps(sz sizes, out values) error {
	var victim, peer *kernel.Thread
	regs, err := markedRun(func(r *rig, b *asmkit.Builder) {
		k := r.k
		spin := asmkit.New()
		spin.Label("spin").Nop().Bra("spin")
		entry := spin.Link(k.M)
		victim = k.SpawnKernelStopped("victim", entry)
		peer = k.SpawnKernelStopped("peer", entry)

		sys := func(fn int32, d1 m68k.Operand) {
			b.MoveL(m68k.Imm(fn), m68k.D(0))
			b.MoveL(d1, m68k.D(1))
			b.MoveL(m68k.Imm(0), m68k.D(2))
			b.Trap(kernel.TrapSys)
		}
		measured := func(fn int32, d1 m68k.Operand) {
			progMark(b)
			sys(fn, d1)
			progMark(b)
		}
		vt := m68k.Imm(int32(victim.TTE))
		measured(kernel.SysCreate, m68k.Imm(0)) // 0: entry 0, never started
		b.MoveL(m68k.D(0), m68k.D(4))
		measured(kernel.SysDestroy, m68k.D(4)) // 1
		sys(kernel.SysStart, vt)               // runnable once, unmeasured
		measured(kernel.SysStop, vt)           // 2
		measured(kernel.SysStart, vt)          // 3
		sys(kernel.SysStop, vt)                // parked again
		measured(kernel.SysYield, m68k.Imm(0)) // 4: alone in the ring
		// Block and unblock are the ready-ring unlink and insert the
		// wait cells use, on a thread that never runs.
		sys(kernel.SysStart, m68k.Imm(int32(peer.TTE)))
		b.Lea(m68k.Abs(peer.TTE), 0)
		progMark(b)
		b.Jsr(k.UnlinkRoutine()) // 5
		progMark(b)
		b.Lea(m68k.Abs(peer.TTE), 0)
		progMark(b)
		b.Jsr(k.InsertRoutine()) // 6
		progMark(b)
		b.Lea(m68k.Abs(peer.TTE), 0)
		b.Jsr(k.UnlinkRoutine())
		b.MoveL(m68k.Imm(kernel.SysExit), m68k.D(0))
		b.Trap(kernel.TrapSys)
	})
	if err != nil {
		return err
	}
	if len(regs) != 7 {
		return fmt.Errorf("expected 7 marked intervals, got %d", len(regs))
	}
	for i, name := range []string{"create", "destroy", "stop", "start", "yield", "block", "unblock"} {
		out["kernel."+name+"_us"] = guestUS(regs[i])
	}
	out["kernel.create_code_slots"] = float64(regs[0].slots)

	// A quantum-driven full switch between two spinning threads.
	k := kernel.Boot(kernel.Config{Machine: m68k.Sun3Config(), ChargeSynthesis: true})
	kio.Install(k)
	spin := func(cell uint32) *asmkit.Builder {
		b := asmkit.New()
		b.Label("loop").AddL(m68k.Imm(1), m68k.Abs(cell)).Bra("loop")
		return b
	}
	t1 := k.SpawnKernel("s1", spin(addrBufB).Link(k.M))
	k.SpawnKernel("s2", spin(addrBufB+4).Link(k.M))
	k.Start(t1)
	if err := k.M.Run(3_000_000); err != m68k.ErrCycleLimit {
		return fmt.Errorf("two spinning threads stopped: %v", err)
	}
	us := kernel.MeasureSwitchMicros(k)
	if us < 0 {
		return fmt.Errorf("no context switch within the measurement budget")
	}
	out["kernel.ctx_switch_us"] = us

	// The paper's Tables 3 and 4 give the same seven rows: create 142,
	// destroy 11, stop 8, start 8, block 4, unblock 4, full switch 11.
	var ours float64
	for _, name := range []string{"create", "destroy", "stop", "start", "block", "unblock", "ctx_switch"} {
		ours += out["kernel."+name+"_us"]
	}
	out["paper.speedup_gap_x"] = gap(ours, 142+11+8+8+4+4+11)
	return nil
}

// probeRunChunk: what the fleet driver pays to step a VM that has
// nothing to do — every guest thread blocked, the CPU stopped.
func probeRunChunk(sz sizes, out values) error {
	tr := newTracer("probe")
	r := newRig(tr, nil, false, 1)
	b := asmkit.New()
	b.MoveL(m68k.Imm(0x50), m68k.D(1))
	b.MoveL(m68k.Imm(0x900), m68k.D(2))
	unixCall(b, unixemu.SysSocket)
	b.Label("loop")
	rw(b, unixemu.SysRead, m68k.D(0), addrBufB, sockPayload) // blocks for ever: nobody sends
	b.Bra("loop")
	r.k.Start(r.k.SpawnKernel("blocked", b.Link(r.k.M)))
	step := func() error { return r.k.Run(4096) }
	for i := 0; i < 64; i++ { // let the thread reach its blocking read
		if err := step(); err != m68k.ErrCycleLimit {
			return fmt.Errorf("idle kernel stopped: %v", err)
		}
	}
	var err error
	out["kernel.run_chunk_host_ns"] = perCall(scaled(200_000, sz), func() {
		if e := step(); e != m68k.ErrCycleLimit {
			err = e
		}
	})
	if err != nil {
		return fmt.Errorf("idle kernel stopped: %v", err)
	}
	return nil
}

// ---------------------------------------------------------------------
// fs, alloc, net, metrics: the Go-side services

func probeFSAlloc(sz sizes, out values) error {
	k := kernel.Boot(kernel.Config{Machine: m68k.Sun3Config()})
	kio.Install(k)
	found := true
	out["fs.lookup_ns"] = perCall(scaled(1_000_000, sz), func() { found = k.FS.Lookup("/dev/tty") != nil && found })
	if !found {
		return fmt.Errorf("/dev/tty not found")
	}
	h := alloc.New(0x10000, 1<<20)
	var err error
	out["alloc.alloc_free_ns"] = perCall(scaled(1_000_000, sz), func() {
		a, e := h.Alloc(64)
		if e == nil {
			e = h.Free(a)
		}
		if e != nil {
			err = e
		}
	})
	return err
}

func probeNet(sz sizes, out values) error {
	payload := seededPattern(1)[:fleetPayload]
	f := net.Frame{Dst: net.MakeAddr(1, 0x50), Src: net.MakeAddr(net.HostNode, 0x900), Payload: payload}
	f.Sum = net.Checksum(payload)

	ring := net.NewPacketRing(1024)
	ok := true
	out["net.ring_put_get_ns"] = perCall(scaled(2_000_000, sz), func() {
		put := ring.Put(f)
		_, got := ring.Get()
		ok = ok && put && got
	})
	out["net.frame_codec_ns"] = perCall(scaled(2_000_000, sz), func() {
		g, decoded := net.DecodeFrame(net.EncodeFrame(f))
		ok = ok && decoded && g.Sum == f.Sum
	})
	var sum uint32
	out["net.checksum_ns_per_byte"] = perCall(scaled(5_000_000, sz), func() { sum = net.Checksum(payload) }) / fleetPayload
	if !ok || sum != f.Sum {
		return fmt.Errorf("ring, codec or checksum returned a wrong result")
	}
	return nil
}

func probeMetrics(sz sizes, out values) error {
	reg := metrics.New()
	k := kernel.Boot(kernel.Config{Machine: m68k.Sun3Config(), Metrics: reg})
	kio.Install(k)
	unixemu.Install(k)
	c := reg.Counter("benchmark.probe")
	out["metrics.counter_inc_ns"] = perCall(scaled(10_000_000, sz), c.Inc)
	entries := 0
	out["metrics.snapshot_us"] = perCall(scaled(5_000, sz), func() { entries = len(reg.Snapshot().Counters) }) / 1e3
	if entries == 0 {
		return fmt.Errorf("a booted kernel's registry snapshot is empty")
	}
	return nil
}
