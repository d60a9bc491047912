package bench

import (
	"fmt"

	"synthesis/internal/asmkit"
	"synthesis/internal/kernel"
	"synthesis/internal/m68k"
	"synthesis/internal/unixemu"
)

// Named workloads for `quamon -watch -program <name>`: the Table 1
// programs under their short names, plus "procread", the observability
// demo that makes the kernel read its own metrics. The monitor runs
// whichever program is named under its sampling windows, so any
// benchmark becomes a live metrics source. Finite programs exit and
// end the watch early; "traffic" (the default) and "procread" run
// until the windows are exhausted.

// WatchProgramNames lists the names BuildWatchProgram accepts.
func WatchProgramNames() []string { return programNames(shortName) }

// BuildWatchProgram resolves a -program name to its builder. The
// iteration count applies to the finite Table 1 programs.
func BuildWatchProgram(name string, iters int32) (func(*asmkit.Builder), bool) {
	p, ok := findProgram(name, shortName)
	if !ok {
		return nil, false
	}
	build, _ := p.at(iters)
	return build, true
}

// BuildProcReadLoop emits the observability workload: forever open
// /proc/metrics, read the snapshot to EOF in 256-byte chunks, and
// close. Every round cuts a fresh snapshot and resynthesizes the read
// routine, so a monitor watching the registry sees the kernel
// watching itself (synth.kio.proc.read.calls counts the reads the
// guest performs to learn the value of synth.kio.proc.read.calls).
func BuildProcReadLoop(b *asmkit.Builder) {
	b.Label("again")
	b.MoveL(m68k.Imm(addrNameProc), m68k.D(1))
	unixCall(b, unixemu.SysOpen)
	b.MoveL(m68k.D(0), m68k.D(6))
	b.Label("rd")
	procRead(b, 6)
	b.TstL(m68k.D(0))
	b.Bne("rd")
	b.MoveL(m68k.D(6), m68k.D(1))
	unixCall(b, unixemu.SysClose)
	b.Bra("again")
}

// PrepareWatchKernel readies a booted kernel for the named watch
// workloads (and for assembled -program files using the same
// conventions): it pokes the shared name strings — including
// /proc/metrics at 0xA030 — fills the scratch buffer at 0xB000, and
// creates the 1 KB benchmark file.
func PrepareWatchKernel(k *kernel.Kernel) error {
	if k.FS.Lookup(benchFileName) == nil {
		if _, err := k.FS.CreateSized(benchFileName, make([]byte, 1024), 8192); err != nil {
			return fmt.Errorf("bench: create %s: %w", benchFileName, err)
		}
	}
	prepareNames(k.M)
	return nil
}
