package kio_test

import (
	"fmt"
	"math/rand"
	"testing"

	"synthesis/internal/kernel"
	"synthesis/internal/kio"
	"synthesis/internal/m68k"
	"synthesis/internal/metrics"
)

// TestKeyedBuildsMatchTemplates is the soundness check of every
// declared key in this package (synth.Builder.Key): with CheckKeys on,
// a hit also runs its template and panics unless the template emits,
// instruction for instruction, the code installed at the routine the
// key named. A few thousand seeded opens, closes and reopens over
// three threads put every kind of descriptor on every slot in a
// different order each round, with two of everything a key names
// (files, disk files, pipes, peers, snapshot lengths) and more ports
// than the socket table has entries, so a key that left out a value
// its template folds would meet two values under one key; a port that
// reopens on another table entry is driven last. Each key argument was
// removed in turn to see this test fail; it runs with and without the
// metrics plane because the plane's counter cell tells apart what only
// the port tells apart without it. Every routine here
// is one build with two entries, so the counts are one build per
// routine, and after each round every descriptor's UNIX cell must lie
// in the routine its native vector enters (checkUnixCells).
func TestKeyedBuildsMatchTemplates(t *testing.T) {
	for _, plane := range []bool{true, false} {
		t.Run(fmt.Sprintf("plane=%v", plane), func(t *testing.T) { keyedSoak(t, plane) })
	}
}

func keyedSoak(t *testing.T, plane bool) {
	cfg := kernel.Config{Machine: m68k.Config{MemSize: 1 << 20}}
	if plane {
		cfg.Metrics = metrics.New()
	}
	k := kernel.Boot(cfg)
	k.C.CheckKeys = true
	regions := logRegions(k)
	io := kio.Install(k)
	for _, name := range []string{"/tmp/a", "/tmp/b"} {
		if _, err := k.FS.CreateSized(name, []byte(name), 64); err != nil {
			t.Fatal(err)
		}
	}
	for _, name := range []string{"/disk/a", "/disk/b"} {
		if _, err := io.StoreDiskFile(name, []byte(name)); err != nil {
			t.Fatal(err)
		}
	}
	idle := k.C.Synthesize(nil, "idle", nil, exitSeq)
	var threads []*kernel.Thread
	for i := 0; i < 3; i++ {
		threads = append(threads, k.SpawnKernelStopped(fmt.Sprintf("t%d", i), idle))
	}
	kindOf := func(th *kernel.Thread, fd int) uint32 {
		return k.M.Peek(kernel.FDCell(th.TTE, fd, kernel.FDKind), 4)
	}

	rng := rand.New(rand.NewSource(24))
	pick := func(names ...string) string { return names[rng.Intn(len(names))] }
	open := func(th *kernel.Thread, names ...string) bool {
		return io.Open(th, pick(names...)) >= 0
	}
	// Two pipes of different sizes. The last close of a pipe's ends frees
	// its queue, so an end opened after that goes on a fresh pipe, which
	// may land where the other size lived.
	sizes := []int32{64, 128}
	pipes := []*kio.KQueue{io.NewPipe(sizes[0]), io.NewPipe(sizes[1])}
	opened := []bool{false, false}
	openEnd := func(th *kernel.Thread, writeEnd bool) bool {
		i := rng.Intn(2)
		live := false
		for _, th := range threads {
			for fd := range kernel.MaxFD {
				kind := kindOf(th, fd)
				live = live || (kind == kio.FDPipeR || kind == kio.FDPipeW) &&
					k.M.Peek(kernel.FDCell(th.TTE, fd, kernel.FDAux), 4) == pipes[i].Addr
			}
		}
		if opened[i] && !live {
			pipes[i], opened[i] = io.NewPipe(sizes[i]), false
		}
		fd := io.OpenPipeEnd(th, pipes[i], writeEnd)
		opened[i] = opened[i] || fd >= 0
		return fd >= 0
	}
	// What a test can open, and how many keyed routines one open builds
	// (the templates named are the ones it must find by key).
	kinds := []struct {
		kind      uint32 // the FDKind code of the descriptor it makes
		templates string
		keyed     uint64
		open      func(th *kernel.Thread) bool
	}{
		{kio.FDTTY, "cooked_read tty_write", 2, func(th *kernel.Thread) bool { return open(th, "/dev/tty") }},
		{kio.FDFree, "cooked_read rawtty_getchar (layered)", 2, func(th *kernel.Thread) bool { return io.SynthLayeredCookedRead(th) != 0 }},
		{kio.FDRawTTY, "rawtty_read tty_write", 2, func(th *kernel.Thread) bool { return open(th, "/dev/rawtty") }},
		{kio.FDNull, "null_read null_write", 2, func(th *kernel.Thread) bool { return open(th, "/dev/null") }},
		{kio.FDFile, "file_read file_write", 2, func(th *kernel.Thread) bool { return open(th, "/tmp/a", "/tmp/b") }},
		{kio.FDDiskFile, "diskfile_read file_write", 2, func(th *kernel.Thread) bool { return open(th, "/disk/a", "/disk/b") }},
		{kio.FDAD, "ad_read", 1, func(th *kernel.Thread) bool { return open(th, "/dev/ad") }},
		{kio.FDProc, "proc_read", 1, func(th *kernel.Thread) bool {
			return open(th, kio.ProcMetricsPath, kio.ProcMetricsPromPath)
		}},
		{kio.FDPipeR, "pipe_read", 1, func(th *kernel.Thread) bool { return openEnd(th, false) }},
		{kio.FDPipeW, "pipe_write", 1, func(th *kernel.Thread) bool { return openEnd(th, true) }},
		{kio.FDSock, "sock_recv sock_send", 2, func(th *kernel.Thread) bool {
			// More ports than the table has entries, so an entry's queue
			// changes ports and a port changes entries.
			return io.OpenSocket(th, uint32(5+rng.Intn(kio.MaxSockets+4)), uint32(8+rng.Intn(2))) >= 0
		}},
	}
	allHit := make([]int, len(kinds)) // opens that found every routine by key
	op := "boot"
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("after %s: %v", op, r)
		}
	}()
	openKind := func(th *kernel.Thread, i int) {
		op = "an open of " + kinds[i].templates + " on " + th.Name
		before := k.C.CacheHits
		if kinds[i].open(th) && k.C.CacheHits-before == kinds[i].keyed {
			allHit[i]++
		}
	}
	// closeOne closes one of th's descriptors, if it has any, and
	// returns which of kinds it was.
	closeOne := func(th *kernel.Thread) (kind int, ok bool) {
		var fds []int32
		for fd := range kernel.MaxFD {
			if kindOf(th, fd) != kio.FDFree {
				fds = append(fds, int32(fd))
			}
		}
		if len(fds) == 0 {
			return 0, false
		}
		fd := fds[rng.Intn(len(fds))]
		op = fmt.Sprintf("a close of %d on %s", fd, th.Name)
		for i := range kinds {
			if kinds[i].kind == kindOf(th, int(fd)) {
				kind = i
			}
		}
		if !io.Close(th, fd) {
			t.Fatalf("%s failed", op)
		}
		return kind, true
	}
	ops := 0
	for round := 0; round < 40; round++ {
		for step := 0; step < 80; step++ {
			th := threads[rng.Intn(len(threads))]
			switch r := rng.Intn(10); {
			case r < 3:
				closeOne(th)
			case r < 5: // a reopen: what the cache is for
				if kind, ok := closeOne(th); ok {
					openKind(th, kind)
				}
			default:
				openKind(th, rng.Intn(len(kinds)))
			}
			ops++
		}
		// Every open routine's two entries are one build's.
		checkUnixCells(t, k, io, regions)
		// Empty every table, so the next round fills the slots afresh.
		for _, th := range threads {
			for range kernel.MaxFD {
				closeOne(th)
				ops++
			}
		}
	}
	// A port whose table entry another port took reopens on another
	// entry, with its thread, descriptor and peer as before: the socket
	// keys must name the queue. Sixteen other ports fill the table, so
	// one of them takes port 100's entry, and one that did not makes
	// room.
	const port, peer = 100, 8
	queueOf := func(th *kernel.Thread, fd int32) uint32 {
		return k.M.Peek(kernel.FDCell(th.TTE, int(fd), kernel.FDAux), 4)
	}
	op = "the moved port's first open"
	fd := io.OpenSocket(threads[0], port, peer)
	was := queueOf(threads[0], fd)
	io.Close(threads[0], fd)
	type sock struct {
		th *kernel.Thread
		fd int32
	}
	var fill []sock
	for i := range uint32(kio.MaxSockets) {
		th := threads[1+i%2]
		fill = append(fill, sock{th, io.OpenSocket(th, port+1+i, peer)})
	}
	for _, s := range fill {
		if queueOf(s.th, s.fd) != was {
			io.Close(s.th, s.fd)
			break
		}
	}
	op = "the moved port's reopen"
	if fd2 := io.OpenSocket(threads[0], port, peer); fd2 != fd || queueOf(threads[0], fd2) == was {
		t.Errorf("port %d reopened as fd %d on queue %#x, want fd %d on another queue than %#x",
			port, fd2, queueOf(threads[0], fd2), fd, was)
	}
	for i, kind := range kinds {
		if allHit[i] == 0 {
			t.Errorf("%s: no open found its routines by key", kind.templates)
		}
	}
	t.Logf("%d operations: %d hits of %d routines, %d entries",
		ops, k.C.CacheHits, k.C.Routines, k.C.KeyedEntries())
}
