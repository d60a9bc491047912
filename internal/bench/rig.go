package bench

import (
	"fmt"

	"synthesis/internal/asmkit"
	"synthesis/internal/kernel"
	"synthesis/internal/kio"
	"synthesis/internal/m68k"
	"synthesis/internal/prof"
	"synthesis/internal/sunos"
	"synthesis/internal/unixemu"
)

// Fixed data addresses shared by both rigs so the benchmark binaries
// are identical. All lie below both kernels' heaps, which start at
// 0x10000, so no program writes over a block either kernel hands out.
const (
	addrNameNull = 0xA000
	addrNameTTY  = 0xA010
	addrNameFile = 0xA020
	addrNameProc = 0xA030
	addrBufA     = 0xB000 // 8 KB scratch
	addrBufB     = 0xD000 // 4 KB, the largest read
	addrQArray   = 0xE000 // chaos sequence array, 8 KB
)

const benchFileName = "/bench/data"

// Rig abstracts the two kernels under test.
type Rig interface {
	// Machine returns the rig's Quamachine.
	Machine() *m68k.Machine
	// Run executes a program built with Build until exit.
	Run(entry uint32, budget uint64) error
	// Name identifies the rig in reports.
	Name() string
}

// prepare pokes the shared name strings and the scratch buffer.
func prepare(m *m68k.Machine) {
	poke := func(addr uint32, s string) {
		for i := 0; i < len(s); i++ {
			m.Poke(addr+uint32(i), 1, uint32(s[i]))
		}
		m.Poke(addr+uint32(len(s)), 1, 0)
	}
	poke(addrNameNull, "/dev/null")
	poke(addrNameTTY, "/dev/tty")
	poke(addrNameFile, benchFileName)
	poke(addrNameProc, kio.ProcMetricsPath)
	for i := uint32(0); i < 8192; i += 4 {
		m.Poke(addrBufA+i, 4, 0x55aa1234+i)
	}
}

// SynthRig runs programs on the Synthesis kernel through the UNIX
// emulator (the Table 1 configuration).
type SynthRig struct {
	K  *kernel.Kernel
	IO *kio.IO
}

// NewSynthRig boots Synthesis at the SUN 3/160 point with synthesis
// time charged, plus what cfg attaches (the measurement plane, a
// metrics registry), and readies it for the programs here: kio and
// the UNIX emulator installed, the name strings poked (/proc/metrics
// at 0xA030), the scratch buffer at 0xB000 filled and the 1 KB
// benchmark file created.
func NewSynthRig(cfg kernel.Config) *SynthRig {
	cfg.Machine, cfg.ChargeSynthesis = m68k.Sun3Config(), true
	k := kernel.Boot(cfg)
	io := kio.Install(k)
	unixemu.Install(k)
	if _, err := k.FS.CreateSized(benchFileName, make([]byte, 1024), 8192); err != nil {
		panic(err)
	}
	prepare(k.M)
	return &SynthRig{K: k, IO: io}
}

// Machine implements Rig.
func (r *SynthRig) Machine() *m68k.Machine { return r.K.M }

// Name implements Rig.
func (r *SynthRig) Name() string { return "synthesis" }

// Run implements Rig: the program becomes a kernel thread.
func (r *SynthRig) Run(entry uint32, budget uint64) error {
	t := r.K.SpawnKernel("bench", entry)
	r.K.Start(t)
	return r.K.Run(budget)
}

// SunRig runs the same programs on the traditional baseline.
type SunRig struct {
	K *sunos.Kernel
}

// NewSunRig boots the baseline at the SUN 3/160 point.
func NewSunRig() *SunRig {
	k := sunos.Boot(m68k.Sun3Config())
	k.CreateFile(benchFileName, make([]byte, 1024), 8192)
	prepare(k.M)
	return &SunRig{K: k}
}

// Machine implements Rig.
func (r *SunRig) Machine() *m68k.Machine { return r.K.M }

// Name implements Rig.
func (r *SunRig) Name() string { return "sunos-baseline" }

// Run implements Rig.
func (r *SunRig) Run(entry uint32, budget uint64) error { return r.K.Run(entry, budget) }

// Link links the program in b onto m and returns its entry. On a
// profiled machine it registers the program as the region
// "bench.program": the benchmark binary is raw asmkit, not quaject
// code, so its loop cycles must not read as kernel time.
func Link(m *m68k.Machine, b *asmkit.Builder) uint32 {
	entry := b.Link(m)
	if p := prof.Of(m); p != nil {
		p.RegisterRegion("bench.program", entry, b.Len())
	}
	return entry
}

// synthRig boots Synthesis as the tables run it.
func synthRig() *SynthRig { return NewSynthRig(kernel.Config{}) }

// runaway is the cycle budget that stops a program that never ends:
// 20 minutes of guest time at the SUN 3/160 point, hundreds of times
// what the longest table program needs at its loop count.
const runaway = 20_000_000_000

// meter runs one table's measurements. Each boots its own rig, so they
// are independent; the first error is the table's, and every
// measurement after it runs nothing and reads zero, so a table is its
// list of rows with no checks between them.
type meter struct {
	err error
}

// fail records err unless an earlier error stands.
func (mt *meter) fail(err error) {
	if mt.err == nil {
		mt.err = err
	}
}

// run links the program build emits on r and runs it until it exits,
// and returns its n marked intervals in microseconds; the machine's
// MarkInstrs has them in instructions.
func (mt *meter) run(r Rig, n int, build func(b *asmkit.Builder)) []float64 {
	if mt.err != nil {
		return make([]float64, n)
	}
	b := asmkit.New()
	build(b)
	err := r.Run(Link(r.Machine(), b), runaway)
	if d := r.Machine().MarkMicros(); err == nil && len(d) != n {
		err = errMarks(len(d), n)
	}
	if err != nil {
		mt.fail(fmt.Errorf("%s: %w", r.Name(), err))
	}
	return mt.marks(r.Machine(), n)
}

// one is run's single interval.
func (mt *meter) one(r Rig, build func(b *asmkit.Builder)) float64 {
	return mt.run(r, 1, build)[0]
}

// marks returns m's n marked intervals in microseconds, or n zeros once
// the table has failed.
func (mt *meter) marks(m *m68k.Machine, n int) []float64 {
	if d := m.MarkMicros(); len(d) != n {
		mt.fail(errMarks(len(d), n))
	} else if mt.err == nil {
		return d
	}
	return make([]float64, n)
}

// errMarks reports a mark-count mismatch.
func errMarks(got, want int) error {
	return fmt.Errorf("bench: recorded %d mark intervals, want %d", got, want)
}

// fewest runs a path-length program, whose rounds each mark path a and
// then path b, and returns each path's fewest instructions over the
// rounds: the minimum filters out any quantum interrupt that lands
// inside a bracket.
func (mt *meter) fewest(r Rig, build func(*asmkit.Builder)) (a, b float64) {
	mt.run(r, 2*pathRounds, build)
	d := r.Machine().MarkInstrs()
	if mt.err != nil {
		return 0, 0
	}
	least := func(off int) float64 {
		best := d[off]
		for i := off + 2; i < len(d); i += 2 {
			best = min(best, d[i])
		}
		return float64(best)
	}
	return least(0), least(1)
}
