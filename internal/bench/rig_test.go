package bench

import (
	"testing"

	"synthesis/internal/alloc"
	"synthesis/internal/kio"
)

// TestFixedAddressesOutsideHeaps: the fixed data ranges the benchmark
// programs write lie outside both kernels' heaps, after boot and for
// good, and apart from each other. A range inside a heap overwrites
// whatever block that kernel hands out there: the SunOS baseline's
// boot blocks once held the chaos array and Table 7's ARQ cells.
func TestFixedAddressesOutsideHeaps(t *testing.T) {
	compute, err := findProgram("compute")
	if err != nil {
		t.Fatal(err)
	}
	ranges := []struct {
		name  string
		at, n uint32
	}{
		{"name strings", addrNameNull, addrNameProc + uint32(len(kio.ProcMetricsPath)) + 1 - addrNameNull},
		{"ARQ cells", addrQBase, addrRetx + 4 - addrQBase},
		{"buffer A", addrBufA, 8192},
		{"buffer B", addrBufB, 4096},
		{"chaos array", addrQArray, uint32(compute.loops+1) * 4},
	}
	heaps := []struct {
		name string
		h    *alloc.Heap
	}{{"synthesis", synthRig().K.Heap}, {"sunos", NewSunRig().K.Heap}}
	for i, r := range ranges {
		for _, k := range heaps {
			if lo, hi := k.h.Base(), k.h.Base()+k.h.Size(); r.at < hi && lo < r.at+r.n {
				t.Errorf("%s [%#x, %#x) lies in the %s heap [%#x, %#x)", r.name, r.at, r.at+r.n, k.name, lo, hi)
			}
		}
		for _, o := range ranges[:i] {
			if r.at < o.at+o.n && o.at < r.at+r.n {
				t.Errorf("%s [%#x, %#x) overlaps %s [%#x, %#x)", r.name, r.at, r.at+r.n, o.name, o.at, o.at+o.n)
			}
		}
	}
}
