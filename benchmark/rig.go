package main

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"synthesis/internal/asmkit"
	"synthesis/internal/kernel"
	"synthesis/internal/kio"
	"synthesis/internal/m68k"
	"synthesis/internal/prof"
	"synthesis/internal/sunos"
	"synthesis/internal/unixemu"
)

// Fixed guest addresses below the kernel heap, shared by the Synthesis
// rig and the sunos baseline so both run the identical binary.
const (
	addrNameTTY  = 0xA000
	addrNameNull = 0xA010
	addrNameFile = 0xA020
	addrBufA     = 0xB000 // 4 KB seeded pattern, the source of every write
	addrBufB     = 0xC000 // 4 KB, the destination of every read
	addrBufC     = 0xD000 // second destination (socket return leg, peer thread)
	addrOut      = 0xE000 // one-byte payload of the byte-at-a-time workloads
	addrFail     = 0xF000 // guest-side mismatch counter
	addrPeerCnt  = 0xF004 // thread_ops: pings the peer thread answered
	bufBytes     = 4096
)

const benchFile = "/bench/data"

// Every guest run is bounded twice: a cycle budget (a wedged guest
// stops on the guest clock) and a wall deadline checked between
// chunks (a wedged host path stops on the host clock). Between chunks
// the harness also times one yardstick slice (calib.go), so the
// host's speed is sampled every few tens of milliseconds all through
// the run.
const (
	runChunkCycles = 4_000_000 // a quarter of a guest second at the SUN 3/160 point
	runWallLimit   = 60 * time.Second
)

// mark is what the harness's measurement service records each time
// the guest executes kcall #SvcMark: both clocks and the machine's
// counters, read at the same instant.
type mark struct {
	wall    time.Time
	calNS   int64 // yardstick time so far, to be left out of the interval
	cycles  uint64
	instrs  uint64
	memrefs uint64
	codeTop uint32
}

// recorder replaces a machine's SvcMark service (a public service id
// on both kernels) so the marked region is timed on the host clock as
// well as the cycle clock, without touching either kernel.
type recorder struct{ marks []mark }

// attach installs the service; host, when set, is the yardstick whose
// slices run between the marks and must be left out of the interval.
func (r *recorder) attach(m *m68k.Machine, host *hostSpeed) {
	m.RegisterService(kernel.SvcMark, func(mm *m68k.Machine) uint64 {
		mk := mark{wall: time.Now(), cycles: mm.Cycles, instrs: mm.Instrs, memrefs: mm.MemRefs, codeTop: mm.CodeTop}
		if host != nil {
			mk.calNS = host.totalNS
		}
		r.marks = append(r.marks, mk)
		return 0
	})
}

// region is the measured interval between one mark pair.
type region struct {
	wall    time.Duration
	cycles  uint64
	instrs  uint64
	memrefs uint64
	slots   uint64 // code-space slots allocated inside the region
}

// regions returns the interval between each consecutive pair of
// marks.
func (r *recorder) regions() ([]region, error) {
	if len(r.marks)%2 != 0 {
		return nil, fmt.Errorf("odd number of marks (%d)", len(r.marks))
	}
	var regs []region
	for i := 0; i < len(r.marks); i += 2 {
		a, b := r.marks[i], r.marks[i+1]
		regs = append(regs, region{
			wall:   b.wall.Sub(a.wall) - time.Duration(b.calNS-a.calNS),
			cycles: b.cycles - a.cycles, instrs: b.instrs - a.instrs,
			memrefs: b.memrefs - a.memrefs, slots: uint64(b.codeTop - a.codeTop),
		})
	}
	return regs, nil
}

// region returns the one marked interval of a workload program.
func (r *recorder) region() (region, error) {
	regs, err := r.regions()
	if err == nil && len(regs) != 1 {
		err = fmt.Errorf("expected one mark pair, got %d marks", len(r.marks))
	}
	if err != nil {
		return region{}, err
	}
	return regs[0], nil
}

// rig is one freshly booted single-machine Synthesis kernel with the
// I/O system and the UNIX emulator installed.
type rig struct {
	k    *kernel.Kernel
	io   *kio.IO
	rec  recorder
	host *hostSpeed
}

// newRig boots the product exactly as a user of the packages would:
// kernel.Boot, kio.Install, unixemu.Install, then the benchmark's
// file, names and seeded buffers.
func newRig(tr *tracer, host *hostSpeed, profile bool, seed int64) *rig {
	cfg := m68k.Sun3Config()
	r := &rig{host: host}
	tr.in("kernel.Boot", func() {
		r.k = kernel.Boot(kernel.Config{Machine: cfg, ChargeSynthesis: true, Profile: profile})
	})
	tr.in("kio.Install", func() { r.io = kio.Install(r.k) })
	tr.in("unixemu.Install", func() { unixemu.Install(r.k) })
	if _, err := r.k.FS.CreateSized(benchFile, make([]byte, 1024), 8192); err != nil {
		panic(err) // a fresh file system cannot be full
	}
	prepareMemory(r.k.M, seed)
	r.rec.attach(r.k.M, host)
	return r
}

// prepareMemory pokes the name strings and the seeded source pattern.
func prepareMemory(m *m68k.Machine, seed int64) {
	pokeString(m, addrNameTTY, "/dev/tty")
	pokeString(m, addrNameNull, "/dev/null")
	pokeString(m, addrNameFile, benchFile)
	m.PokeBytes(addrBufA, seededPattern(seed))
}

func pokeString(m *m68k.Machine, addr uint32, s string) {
	m.PokeBytes(addr, append([]byte(s), 0))
}

// seededPattern is the source buffer every workload writes from: the
// same seed gives the same bytes.
func seededPattern(seed int64) []byte {
	p := make([]byte, bufBytes)
	rand.New(rand.NewSource(seed)).Read(p)
	return p
}

// link installs a guest program and, on a profiled rig, names its
// extent so its cycles do not read as kernel time.
func (r *rig) link(tr *tracer, name string, b *asmkit.Builder) uint32 {
	var entry uint32
	tr.in("asmkit.Link", func() { entry = b.Link(r.k.M) })
	if p := prof.Of(r.k.M); p != nil {
		p.RegisterRegion("bench."+name, entry, b.Len())
	}
	return entry
}

// run starts the thread and steps the kernel until the machine halts,
// within both bounds.
func (r *rig) run(tr *tracer, t *kernel.Thread, budget uint64) error {
	sp := tr.begin("kernel.Run")
	defer tr.end(sp)
	m := r.k.M
	c0, i0 := m.Cycles, m.Instrs
	r.k.Start(t)
	err := r.runBounded(budget)
	tr.count(sp, "guest_cycles", float64(m.Cycles-c0))
	tr.count(sp, "guest_instrs", float64(m.Instrs-i0))
	tr.count(sp, "code_slots", float64(m.CodeTop))
	return err
}

// runBounded steps the kernel in chunks, a yardstick slice between
// each two, until the machine halts (nil), fails, or runs out of
// cycle budget or wall time.
func (r *rig) runBounded(budget uint64) error {
	deadline := time.Now().Add(runWallLimit)
	for spent := uint64(0); spent < budget; spent += runChunkCycles {
		r.host.slice()
		err := r.k.Run(runChunkCycles)
		if !errors.Is(err, m68k.ErrCycleLimit) {
			r.host.slice()
			return err
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("wall deadline of %v passed with the guest still running", runWallLimit)
		}
	}
	return fmt.Errorf("cycle budget of %d exhausted with the guest still running", budget)
}

// sunRig is the traditional baseline kernel on the same machine
// model, for the reference numbers beside every guest number.
type sunRig struct {
	k   *sunos.Kernel
	rec recorder
}

func newSunRig(seed int64) *sunRig {
	r := &sunRig{k: sunos.Boot(m68k.Sun3Config())}
	r.k.CreateFile(benchFile, make([]byte, 1024), 8192)
	prepareMemory(r.k.M, seed)
	r.rec.attach(r.k.M, nil)
	return r
}

// hostCounters are the Go runtime's own counts, read around a run.
type hostCounters struct {
	allocBytes uint64
	gcCycles   uint32
	gcPauseNS  uint64
}

func readHost() hostCounters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return hostCounters{allocBytes: ms.TotalAlloc, gcCycles: ms.NumGC, gcPauseNS: ms.PauseTotalNs}
}

func (a hostCounters) sub(b hostCounters) hostCounters {
	return hostCounters{a.allocBytes - b.allocBytes, a.gcCycles - b.gcCycles, a.gcPauseNS - b.gcPauseNS}
}

// heapLiveMB is the retained heap: HeapAlloc after a forced
// collection. The caller keeps the rig referenced across the call.
func heapLiveMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}
