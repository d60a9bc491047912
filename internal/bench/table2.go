package bench

import (
	"fmt"

	"synthesis/internal/asmkit"
	"synthesis/internal/kernel"
	"synthesis/internal/m68k"
	"synthesis/internal/unixemu"
)

// Table 2: file and device I/O in microseconds, native Synthesis
// calls vs the same calls through the UNIX emulator.

// measureSynth runs a marked program on a fresh Synthesis rig and
// returns the marked microseconds.
func measureSynth(build func(*asmkit.Builder)) (float64, error) {
	d, err := runMarks(NewSynthRig(), 200_000_000, 1, build)
	return d[0], err
}

// nativeOpen emits the native Synthesis open (trap #1).
func nativeOpen(b *asmkit.Builder, nameAddr uint32) {
	b.MoveL(m68k.Imm(kernel.SysOpen), m68k.D(0))
	b.MoveL(m68k.Imm(int32(nameAddr)), m68k.D(1))
	b.Trap(kernel.TrapSys)
}

func nativeClose(b *asmkit.Builder, fd int32) {
	b.MoveL(m68k.Imm(kernel.SysClose), m68k.D(0))
	b.MoveL(m68k.Imm(fd), m68k.D(1))
	b.Trap(kernel.TrapSys)
}

func nativeRead(b *asmkit.Builder, fd int, buf, n int32) {
	b.MoveL(m68k.Imm(buf), m68k.D(1))
	b.MoveL(m68k.Imm(n), m68k.D(2))
	b.Trap(uint8(kernel.TrapRead + fd))
}

// Table2 regenerates the file/device I/O measurements.
func Table2() (Table, error) {
	t := Table{
		Title: "Table 2: File and Device I/O (microseconds)",
		Note:  "native Synthesis kernel calls at the SUN 3/160 point; paper column = native",
	}
	add := func(name string, paper float64, us float64, note string) {
		t.Rows = append(t.Rows, Row{Name: name, Paper: paper, Measured: us, Unit: "usec", Note: note})
	}

	// Emulation trap overhead: unix null write minus native null
	// write.
	native, err := measureSynth(func(b *asmkit.Builder) {
		nativeOpen(b, addrNameNull)
		mark(b)
		b.MoveL(m68k.Imm(addrBufA), m68k.D(1))
		b.MoveL(m68k.Imm(1), m68k.D(2))
		b.Trap(kernel.TrapWrite + 0)
		mark(b)
		progExit(b)
	})
	if err != nil {
		return t, err
	}
	emul, err := measureSynth(func(b *asmkit.Builder) {
		nativeOpen(b, addrNameNull)
		mark(b)
		b.MoveL(m68k.Imm(0), m68k.D(1))
		b.MoveL(m68k.Imm(addrBufA), m68k.D(2))
		b.MoveL(m68k.Imm(1), m68k.D(3))
		unixCall(b, unixemu.SysWrite)
		mark(b)
		progExit(b)
	})
	if err != nil {
		return t, err
	}
	add("emulation trap overhead", 2, emul-native, "unix write minus native write")

	// Opens.
	openCase := func(name string, paper float64, nameAddr uint32) error {
		us, err := measureSynth(func(b *asmkit.Builder) {
			mark(b)
			nativeOpen(b, nameAddr)
			mark(b)
			progExit(b)
		})
		if err != nil {
			return err
		}
		add(name, paper, us, "includes charged code synthesis")
		return nil
	}
	if err := openCase("open /dev/null", 43, addrNameNull); err != nil {
		return t, err
	}
	if err := openCase("open /dev/tty", 62, addrNameTTY); err != nil {
		return t, err
	}
	if err := openCase("open file", 73, addrNameFile); err != nil {
		return t, err
	}

	// Close.
	us, err := measureSynth(func(b *asmkit.Builder) {
		nativeOpen(b, addrNameNull)
		mark(b)
		nativeClose(b, 0)
		mark(b)
		progExit(b)
	})
	if err != nil {
		return t, err
	}
	add("close", 18, us, "")

	// read 1 char from file.
	us, err = measureSynth(func(b *asmkit.Builder) {
		nativeOpen(b, addrNameFile)
		mark(b)
		nativeRead(b, 0, addrBufB, 1)
		mark(b)
		progExit(b)
	})
	if err != nil {
		return t, err
	}
	add("read 1 char from file", 9, us, "data in the memory-resident file")

	// read N chars from file: paper says 9*N/8 usec, i.e. 9 usec per
	// 8 characters. Read 1024 and report the per-8-chars figure.
	us, err = measureSynth(func(b *asmkit.Builder) {
		nativeOpen(b, addrNameFile)
		mark(b)
		nativeRead(b, 0, addrBufB, 1024)
		mark(b)
		progExit(b)
	})
	if err != nil {
		return t, err
	}
	add("read N chars from file (per 8 chars)", 9, us*8/1024,
		fmt.Sprintf("1 KB read took %.1f usec total", us))

	// read N from /dev/null.
	us, err = measureSynth(func(b *asmkit.Builder) {
		nativeOpen(b, addrNameNull)
		mark(b)
		nativeRead(b, 0, addrBufB, 1024)
		mark(b)
		progExit(b)
	})
	if err != nil {
		return t, err
	}
	add("read N from /dev/null", 6, us, "constant-time synthesized stub")

	return t, nil
}
