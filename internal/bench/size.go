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

// sizeTable reports the synthesized-code accounting of a freshly
// booted Synthesis rig plus the marginal cost of a thread and of an
// open of each kind (through kio's host-side open), and the largest
// quajects by synthesized size, for the curious.
func sizeTable(mt *meter) []Row {
	rig := synthRig()
	k := rig.K
	rows := []Row{{"static kernel (boot-time synthesized code)", 32768, // "the Synthesis kernel occupies only 32K"
		float64(k.C.TotalBytes), "bytes", fmt.Sprintf("%d routines", k.C.Routines)}}

	preB, preR := k.C.TotalBytes, k.C.Routines
	th := k.SpawnKernelStopped("sizer", 0)
	rows = append(rows, Row{"per-thread synthesized code", 0, float64(k.C.TotalBytes - preB), "bytes",
		fmt.Sprintf("%d routines (sw_out, sw_in); TTE data adds %d bytes", k.C.Routines-preR, 1024)})
	for _, kind := range []struct{ name, path string }{
		{"per-open /dev/null", "/dev/null"},
		{"per-open /dev/tty", "/dev/tty"},
		{"per-open file", benchFileName},
	} {
		preB = k.C.TotalBytes
		fd := rig.IO.Open(th, kind.path)
		if fd < 0 {
			mt.fail(fmt.Errorf("size: open %s failed", kind.path))
			return rows
		}
		rows = append(rows, Row{kind.name, 0, float64(k.C.TotalBytes - preB), "bytes", "synthesized read+write pair"})
		rig.IO.Close(th, fd)
	}

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
	for _, q := range qs[:min(3, len(qs))] {
		rows = append(rows, Row{"quaject " + q.name, 0, float64(q.bytes), "bytes", ""})
	}
	return rows
}
