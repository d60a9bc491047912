package kio_test

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"synthesis/internal/kernel"
	"synthesis/internal/kio"
	"synthesis/internal/m68k"
	"synthesis/internal/metrics"
)

// churnRig is a kernel with the metrics plane attached and two
// threads on which step opens and closes descriptors of every kind at
// random: files, disk files, the raw tty, pipe ends (a pipe's two ends
// on either thread), /proc and its generic twin, sockets on ports
// 5..8, the tty, /dev/null and the A/D device.
type churnRig struct {
	k       *kernel.Kernel
	io      *kio.IO
	reg     *metrics.Registry
	threads []*kernel.Thread
	rng     *rand.Rand
	pipes   map[uint32]int32 // every pipe queue made, by address: its size
}

func newChurnRig(t *testing.T, seed int64) *churnRig {
	t.Helper()
	reg := metrics.New()
	k := kernel.Boot(kernel.Config{Machine: m68k.Config{MemSize: 1 << 20}, Metrics: reg})
	r := &churnRig{k: k, io: kio.Install(k), reg: reg, rng: rand.New(rand.NewSource(seed)), pipes: map[uint32]int32{}}
	for i := range 4 {
		if _, err := k.FS.CreateSized(fmt.Sprintf("/tmp/%d", i), []byte{byte(i)}, 64); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := r.io.StoreDiskFile("/disk/a", []byte("disk")); err != nil {
		t.Fatal(err)
	}
	r.threads = []*kernel.Thread{k.SpawnKernelStopped("a", 0), k.SpawnKernelStopped("b", 0)}
	return r
}

var churnFiles = []string{"/tmp/0", "/tmp/1", "/tmp/2", "/tmp/3", "/disk/a", "/dev/rawtty",
	kio.ProcMetricsPath, kio.ProcMetricsPromPath, "/dev/tty", "/dev/null", "/dev/ad"}

// warm opens and closes every kind and every port once on each thread,
// so the routines' invocation counters all exist.
func (r *churnRig) warm(t *testing.T) {
	t.Helper()
	for _, th := range r.threads {
		for _, name := range churnFiles {
			if !r.io.Close(th, r.io.Open(th, name)) {
				t.Fatalf("%s: %s did not open", th.Name, name)
			}
		}
		for port := uint32(5); port < 9; port++ {
			if !r.io.Close(th, r.io.OpenSocket(th, port, 9)) {
				t.Fatalf("%s: port %d did not open", th.Name, port)
			}
		}
		proc := r.io.Open(th, kio.ProcMetricsPath)
		twin := r.io.SynthGenericProcRead(th, proc)
		if !r.io.Close(th, twin) || !r.io.Close(th, proc) {
			t.Fatalf("%s: /proc and its generic twin did not open", th.Name)
		}
		q := r.newPipe()
		if !r.io.Close(th, r.io.OpenPipeEnd(th, q, false)) {
			t.Fatalf("%s: pipe end did not open", th.Name)
		}
	}
}

func (r *churnRig) newPipe() *kio.KQueue {
	size := []int32{64, 256, kio.DefaultPipeBytes}[r.rng.Intn(3)]
	q := r.io.NewPipe(size)
	r.pipes[q.Addr] = size
	return q
}

// open returns th's open descriptors, from its slots.
func (r *churnRig) open(th *kernel.Thread) []int32 {
	var fds []int32
	for fd := int32(0); fd < kernel.MaxFD; fd++ {
		if r.k.M.Peek(kernel.FDCell(th.TTE, int(fd), kernel.FDKind), 4) != kio.FDFree {
			fds = append(fds, fd)
		}
	}
	return fds
}

// step makes one random open or close and says what it did. An open
// may fail (a port or the thread's table taken); that is a step too.
func (r *churnRig) step() string {
	th := r.threads[r.rng.Intn(len(r.threads))]
	if fds := r.open(th); len(fds) > 0 && (len(fds) == kernel.MaxFD || r.rng.Intn(2) == 0) {
		fd := fds[r.rng.Intn(len(fds))]
		r.io.Close(th, fd)
		return fmt.Sprintf("%s: close %d", th.Name, fd)
	}
	switch c := r.rng.Intn(len(churnFiles) + 3); c {
	case len(churnFiles):
		port := uint32(5 + r.rng.Intn(4))
		return fmt.Sprintf("%s: socket %d = %d", th.Name, port, r.io.OpenSocket(th, port, 9))
	case len(churnFiles) + 1:
		// A pipe whose write end may land on the other thread.
		q := r.newPipe()
		w := r.threads[r.rng.Intn(len(r.threads))]
		rfd, wfd := r.io.OpenPipeEnd(th, q, false), r.io.OpenPipeEnd(w, q, true)
		if rfd < 0 && wfd < 0 {
			_ = r.k.Heap.Free(q.Addr)
		}
		return fmt.Sprintf("pipe %#x: %s read end %d, %s write end %d", q.Addr, th.Name, rfd, w.Name, wfd)
	case len(churnFiles) + 2:
		for _, fd := range r.open(th) {
			if r.k.M.Peek(kernel.FDCell(th.TTE, int(fd), kernel.FDKind), 4) == kio.FDProc {
				return fmt.Sprintf("%s: generic twin of %d = %d", th.Name, fd, r.io.SynthGenericProcRead(th, fd))
			}
		}
		return fmt.Sprintf("%s: /proc = %d", th.Name, r.io.Open(th, kio.ProcMetricsPath))
	default:
		return fmt.Sprintf("%s: %s = %d", th.Name, churnFiles[c], r.io.Open(th, churnFiles[c]))
	}
}

// TestOpenCloseLeavesRegistryNames: once every kind of descriptor and
// every port has been open once, no open or close registers or
// unregisters a metric. 1,000 opens and closes mixed over every kind
// on two threads, with several descriptors open at a time, leave
// Names exactly as the warm-up did after every single call.
func TestOpenCloseLeavesRegistryNames(t *testing.T) {
	r := newChurnRig(t, 44)
	r.warm(t)
	want := r.reg.Names()
	for i := range 1000 {
		what := r.step()
		if got := r.reg.Names(); !slices.Equal(got, want) {
			t.Fatalf("step %d (%s) changed the registry's names: %d -> %d, first difference %q",
				i, what, len(want), len(got), firstDiff(want, got))
		}
	}
}

// reported returns the names a snapshot of reg reports that start
// with one of prefixes.
func reported(reg *metrics.Registry, prefixes ...string) []string {
	s := reg.Snapshot()
	var out []string
	for _, names := range [][]string{slices.Collect(maps.Keys(s.Counters)), slices.Collect(maps.Keys(s.Gauges))} {
		for _, n := range names {
			if slices.ContainsFunc(prefixes, func(p string) bool { return strings.HasPrefix(n, p) }) {
				out = append(out, n)
			}
		}
	}
	return out
}

// firstDiff returns the first name in one list and not the other.
func firstDiff(a, b []string) string {
	for _, n := range a {
		if !slices.Contains(b, n) {
			return "-" + n
		}
	}
	for _, n := range b {
		if !slices.Contains(a, n) {
			return "+" + n
		}
	}
	return ""
}

// TestSnapshotReadsOpenObjects: a snapshot's kio.sock.*, kio.fd.* and
// kio.pipe.* families are exactly what the socket table and the
// descriptor slots say is open, with their cells' values. At seeded
// points of a random churn every open object's cells get random
// values, and the snapshot is checked against a reading of the tables
// made here: a socket entry's queue cells, each open slot's byte gauge
// (no socket or generic /proc slot has one), and each queue an open
// pipe end names, once, its depth at the size it was made with.
func TestSnapshotReadsOpenObjects(t *testing.T) {
	r := newChurnRig(t, 45)
	m := r.k.M
	checked := map[string]int{} // family -> names checked
	for i := range 600 {
		what := r.step()
		if r.rng.Intn(6) != 0 {
			continue
		}
		counters, gauges := map[string]uint64{}, map[string]float64{}
		for _, s := range r.io.NetSockets() {
			p := fmt.Sprintf("kio.sock.%d.", s.Port)
			for _, c := range []struct {
				name string
				off  uint32
			}{{"rx_drops", kio.NQDrops}, {"rx_errs", kio.NQErrs}, {"tx_fail", kio.NQTxFail}} {
				v := r.rng.Uint32()
				m.Poke(s.Queue+c.off, 4, v)
				counters[p+c.name] = uint64(v)
			}
			head, tail := r.rng.Uint32()%64, r.rng.Uint32()%64
			m.Poke(s.Queue+kio.NQHead, 4, head)
			m.Poke(s.Queue+kio.NQTail, 4, tail)
			counters[p+"rx_frames"] = uint64(head)
			gauges[p+"queue_depth"] = float64(head - tail)
		}
		for _, th := range r.threads {
			for _, fd := range r.open(th) {
				cell := func(off int) uint32 { return kernel.FDCell(th.TTE, int(fd), off) }
				kind := m.Peek(cell(kernel.FDKind), 4)
				if kind == kio.FDSock || kind == kio.FDProcGeneric {
					continue
				}
				v := r.rng.Uint32()
				m.Poke(cell(kernel.FDGauge), 4, v)
				counters[fmt.Sprintf("kio.fd.%s.%d.bytes", th.Name, fd)] = uint64(v)
				if kind != kio.FDPipeR && kind != kio.FDPipeW {
					continue
				}
				q := &kio.KQueue{Addr: m.Peek(cell(kernel.FDAux), 4), Size: r.pipes[m.Peek(cell(kernel.FDAux), 4)]}
				p := fmt.Sprintf("kio.pipe.%d.", q.Addr)
				if _, seen := counters[p+"bytes"]; seen {
					continue
				}
				head, tail, bytes := r.rng.Uint32()%uint32(q.Size), r.rng.Uint32()%uint32(q.Size), r.rng.Uint32()
				m.Poke(q.Addr+kio.KQHead, 4, head)
				m.Poke(q.Addr+kio.KQTail, 4, tail)
				m.Poke(q.Addr+kio.KQGauge, 4, bytes)
				counters[p+"bytes"] = uint64(bytes)
				gauges[p+"depth"] = float64(q.Len(m))
			}
		}

		s := r.reg.Snapshot()
		perObject := func(n string) bool {
			return strings.HasPrefix(n, "kio.sock.") || strings.HasPrefix(n, "kio.fd.") || strings.HasPrefix(n, "kio.pipe.")
		}
		for n, v := range s.Counters {
			if w, ok := counters[n]; perObject(n) && (!ok || v != w) {
				t.Errorf("step %d (%s): counter %s = %d, tables say %d (open %v)", i, what, n, v, w, ok)
			}
		}
		for n, v := range s.Gauges {
			if w, ok := gauges[n]; perObject(n) && (!ok || v != w) {
				t.Errorf("step %d (%s): gauge %s = %g, tables say %g (open %v)", i, what, n, v, w, ok)
			}
		}
		for n := range counters {
			if _, ok := s.Counters[n]; !ok {
				t.Errorf("step %d (%s): counter %s missing from the snapshot", i, what, n)
			}
		}
		for n := range gauges {
			if _, ok := s.Gauges[n]; !ok {
				t.Errorf("step %d (%s): gauge %s missing from the snapshot", i, what, n)
			}
		}
		if t.Failed() {
			t.FailNow()
		}
		for n := range counters {
			checked[strings.SplitN(n, ".", 3)[1]]++
		}
	}
	for _, family := range []string{"sock", "fd", "pipe"} {
		if checked[family] < 20 {
			t.Errorf("the churn checked %d kio.%s names, too few to mean anything", checked[family], family)
		}
	}
}
