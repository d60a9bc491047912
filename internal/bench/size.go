package bench

import (
	"cmp"
	"fmt"
	"slices"
)

// Section 6.4: kernel size accounting. The paper breaks its 64 KB
// kernel into device drivers, the quaject creator/interfacer, code
// templates, utilities, and the kernel monitor, and argues that the
// per-quaject synthesized code is small ("with 3 processes running,
// the Synthesis kernel occupies only 32K").

// SizeTable reports the synthesized-code accounting of a freshly
// booted Synthesis rig plus the marginal cost of threads and opens.
func SizeTable() (Table, error) {
	t := Table{
		Title: "Section 6.4: Kernel size accounting",
		Note:  "synthesized Quamachine code, encoded-size estimate in bytes",
	}
	rig := NewSynthRig()
	k := rig.K

	bootRoutines := k.C.Routines
	bootBytes := k.C.TotalBytes
	t.Rows = append(t.Rows, Row{
		Name:     "static kernel (boot-time synthesized code)",
		Paper:    32768, // "the Synthesis kernel occupies only 32K"
		Measured: float64(bootBytes),
		Unit:     "bytes",
		Note:     fmt.Sprintf("%d routines", bootRoutines),
	})

	// Marginal thread cost: spawn one and diff.
	preB, preR := k.C.TotalBytes, k.C.Routines
	th := k.SpawnKernelStopped("sizer", 0)
	t.Rows = append(t.Rows, Row{
		Name:     "per-thread synthesized code",
		Measured: float64(k.C.TotalBytes - preB),
		Unit:     "bytes",
		Note: fmt.Sprintf("%d routines (sw_out, sw_in); TTE data adds %d bytes",
			k.C.Routines-preR, 1024),
	})

	// Marginal open cost per kind (through kio's host-side open).
	kinds := []struct{ name, path string }{
		{"per-open /dev/null", "/dev/null"},
		{"per-open /dev/tty", "/dev/tty"},
		{"per-open file", benchFileName},
	}
	for _, kind := range kinds {
		preB = k.C.TotalBytes
		fd := rig.IO.Open(th, kind.path)
		if fd < 0 {
			return t, fmt.Errorf("size: open %s failed", kind.path)
		}
		t.Rows = append(t.Rows, Row{
			Name:     kind.name,
			Measured: float64(k.C.TotalBytes - preB),
			Unit:     "bytes",
			Note:     "synthesized read+write pair",
		})
		rig.IO.Close(th, fd)
	}

	// Largest quajects by synthesized size, for the curious.
	type qsize struct {
		name  string
		bytes int
	}
	var qs []qsize
	for th := range k.Threads() {
		qs = append(qs, qsize{th.Q.Name, th.Q.Bytes})
	}
	// Largest first, equal sizes by name.
	slices.SortFunc(qs, func(a, b qsize) int {
		return cmp.Or(cmp.Compare(b.bytes, a.bytes), cmp.Compare(a.name, b.name))
	})
	for i, q := range qs {
		if i >= 3 {
			break
		}
		t.Rows = append(t.Rows, Row{
			Name:     "quaject " + q.name,
			Measured: float64(q.bytes),
			Unit:     "bytes",
		})
	}
	return t, nil
}
