package bench

import (
	"fmt"

	"synthesis/internal/asmkit"
	"synthesis/internal/fault"
	"synthesis/internal/kernel"
	"synthesis/internal/kio"
	"synthesis/internal/m68k"
	"synthesis/internal/prof"
	"synthesis/internal/sunos"
	"synthesis/internal/unixemu"
)

// Fixed data addresses shared by both rigs so the benchmark binaries
// are identical.
const (
	addrNameNull = 0xA000
	addrNameTTY  = 0xA010
	addrNameFile = 0xA020
	addrNameProc = 0xA030
	addrBufA     = 0xB000 // 8 KB scratch
	addrBufB     = 0xD000
	addrQArray   = 0x20000 // chaos sequence array
)

const benchFileName = "/bench/data"

// Rig abstracts the two kernels under test.
type Rig interface {
	// Machine returns the rig's Quamachine.
	Machine() *m68k.Machine
	// Run executes a program built with Build until exit.
	Run(entry uint32, budget uint64) error
	// Marks returns the microsecond intervals between mark pairs.
	Marks() []float64
	// Name identifies the rig in reports.
	Name() string
}

// attachFaults wires the staged fault schedule (from RunConfig's
// FaultSpec) into a freshly booted rig machine. No-op when the
// current Run has no schedule.
func attachFaults(m *m68k.Machine) {
	if activeFaults != nil {
		fault.New(*activeFaults, activeFaultSeed).Attach(m)
	}
}

// prepare pokes the shared name strings and file contents.
func prepareNames(m *m68k.Machine) {
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

// ---------------------------------------------------------------------

// SynthRig runs programs on the Synthesis kernel through the UNIX
// emulator (the Table 1 configuration).
type SynthRig struct {
	K  *kernel.Kernel
	IO *kio.IO
}

// NewSynthRig boots Synthesis at the SUN 3/160 point with synthesis
// time charged.
func NewSynthRig() *SynthRig { return newSynthRig(false) }

// NewProfiledSynthRig is NewSynthRig with the measurement plane
// attached from boot, so every synthesized routine is attributable.
func NewProfiledSynthRig() *SynthRig { return newSynthRig(true) }

func newSynthRig(profile bool) *SynthRig {
	k := kernel.Boot(kernel.Config{
		Machine:         m68k.Sun3Config(),
		ChargeSynthesis: true,
		Profile:         profile,
	})
	io := kio.Install(k)
	unixemu.Install(k)
	if _, err := k.FS.CreateSized(benchFileName, make([]byte, 1024), 8192); err != nil {
		panic(err)
	}
	prepareNames(k.M)
	attachFaults(k.M)
	return &SynthRig{K: k, IO: io}
}

// Machine implements Rig.
func (r *SynthRig) Machine() *m68k.Machine { return r.K.M }

// Name implements Rig.
func (r *SynthRig) Name() string { return "synthesis" }

// Run implements Rig: the program becomes a kernel thread.
func (r *SynthRig) Run(entry uint32, budget uint64) error {
	r.K.ResetMarks()
	t := r.K.SpawnKernel("bench", entry)
	r.K.Start(t)
	return r.K.Run(budget)
}

// Marks implements Rig.
func (r *SynthRig) Marks() []float64 { return r.K.MarkDeltasMicros() }

// ---------------------------------------------------------------------

// SunRig runs the same programs on the traditional baseline.
type SunRig struct {
	K *sunos.Kernel
}

// NewSunRig boots the baseline at the SUN 3/160 point.
func NewSunRig() *SunRig {
	k := sunos.Boot(m68k.Sun3Config())
	k.CreateFile(benchFileName, make([]byte, 1024), 8192)
	prepareNames(k.M)
	attachFaults(k.M)
	return &SunRig{K: k}
}

// Machine implements Rig.
func (r *SunRig) Machine() *m68k.Machine { return r.K.M }

// Name implements Rig.
func (r *SunRig) Name() string { return "sunos-baseline" }

// Run implements Rig.
func (r *SunRig) Run(entry uint32, budget uint64) error {
	r.K.ResetMarks()
	return r.K.Run(entry, budget)
}

// Marks implements Rig.
func (r *SunRig) Marks() []float64 { return r.K.MarkDeltasMicros() }

// ---------------------------------------------------------------------

// runMarks builds the program on the rig's machine, runs it, and
// returns its n marked intervals. On an error they are zero, so a
// caller may index them before it checks.
func runMarks(r Rig, budget uint64, n int, build func(b *asmkit.Builder)) ([]float64, error) {
	b := asmkit.New()
	build(b)
	entry := b.Link(r.Machine())
	if p := prof.Of(r.Machine()); p != nil {
		// The benchmark binary is raw asmkit, not quaject code, so it
		// registers itself: its loop cycles must not read as kernel
		// time.
		p.RegisterRegion("bench.program", entry, b.Len())
	}
	err := r.Run(entry, budget)
	marks := r.Marks()
	if err == nil && len(marks) != n {
		err = errMarks(len(marks), n)
	}
	if err != nil {
		return make([]float64, n), fmt.Errorf("%s: %w", r.Name(), err)
	}
	return marks, nil
}
