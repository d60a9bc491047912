package kernel_test

import (
	"fmt"
	"math/rand"
	"testing"

	"synthesis/internal/asmkit"
	"synthesis/internal/fs"
	"synthesis/internal/m68k"
)

// TestLookupMatchesDirectory runs the synthesized fs_lookup on seeded
// names and fails wherever it disagrees with fs.Lookup, or leaves a
// register other than its declared scratch (D0, D2, A0, A1) changed.
// The directory holds names of every length from 1 to 40, so every
// len%4 tail of the backwards compare, and groups of names that share
// their length and last four bytes: they hash alike and chain in one
// bucket, so only the compare's later longs and leading bytes tell
// them apart. The queries are every name, misses one byte off at each
// end and in the middle, a byte longer and shorter, short names that
// read like a longer one in their bucket, the empty name, and names
// whose NUL is the last byte of RAM.
func TestLookupMatchesDirectory(t *testing.T) {
	k := boot(t)
	rng := rand.New(rand.NewSource(46))
	nameOf := func(n int) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(1 + rng.Intn(255))
		}
		return b
	}
	var names []string
	for n := 1; n <= 40; n++ {
		for range 3 {
			names = append(names, string(nameOf(n)))
		}
	}
	for _, n := range []int{5, 6, 7, 8, 9, 15, 40} {
		head, tail := nameOf(n-4), "/tty"
		first := fs.Hash(string(head) + tail)
		for i := range 4 {
			head[rng.Intn(len(head))] ^= byte(1 + i)
			name := string(head) + tail
			if fs.Hash(name) != first {
				t.Fatalf("%q and its chain mates hash apart", name)
			}
			names = append(names, name)
		}
	}
	// Names of one to three bytes that read, from their end, like the
	// first stored bytes of a longer name in their bucket: the compare
	// runs clean against it, and only the length check turns them away.
	// (Names of 4 to 63 bytes that share their last four bytes never
	// share a bucket unless they share their length.)
	var lookalikes []string
	for n := 1; n <= 3; n++ {
		for range 2 {
			var long, q []byte
			for q == nil || fs.Hash(string(q)) != fs.Hash(string(long)) {
				long, q = nameOf(4+rng.Intn(5)), make([]byte, n)
				for i := range q {
					q[i] = long[len(long)-4+n-1-i]
				}
			}
			names, lookalikes = append(names, string(long)), append(lookalikes, string(q))
		}
	}
	for _, name := range names {
		if k.FS.Lookup(name) == nil {
			if _, err := k.FS.Create(name, nil); err != nil {
				t.Fatal(err)
			}
		}
	}

	// check calls fs_lookup on name, placed at at, from supervisor
	// state through a stub that JSRs to it and halts.
	stub := asmkit.New().Jsr(k.LookupRoutine()).Halt().Link(k.M)
	stack, err := k.Heap.Alloc(256)
	if err != nil {
		t.Fatal(err)
	}
	m := k.M
	check := func(at uint32, name string) {
		t.Helper()
		m.PokeBytes(at, append([]byte(name), 0))
		var want uint32
		if f := k.FS.Lookup(name); f != nil {
			want = f.Entry
		}
		m.ClearHalt()
		m.PC, m.SR = stub, m68k.FlagS|7<<8
		for i := range m.D {
			m.D[i] = 0x5a5a_0000 + uint32(i)
		}
		for i := range 7 {
			m.A[i] = 0xa5a5_0000 + uint32(i)
		}
		m.A[7], m.D[1] = stack+256, at
		regs := fmt.Sprint(m.D[1], m.D[3:], m.A[2:])
		for steps := 0; ; steps++ {
			err := m.Step()
			if m.Halted() {
				break
			}
			if err != nil || steps > 10_000 {
				t.Fatalf("fs_lookup(%q) ran away at PC %#x: %v", name, m.PC, err)
			}
		}
		if got := fmt.Sprint(m.D[1], m.D[3:], m.A[2:]); got != regs {
			t.Fatalf("fs_lookup(%q) left D1, D3-D7, A2-A7 = %s, want %s", name, got, regs)
		}
		if m.D[0] != want {
			t.Fatalf("fs_lookup(%q) at %#x = %#x, fs.Lookup says %#x", name, at, m.D[0], want)
		}
	}
	buf, err := k.Heap.Alloc(64)
	if err != nil {
		t.Fatal(err)
	}
	check(buf, "")
	for _, q := range lookalikes {
		check(buf, q)
	}
	for _, name := range append(names, "/dev/tty", "/dev/null") {
		check(buf, name)
		b := []byte(name)
		for _, i := range []int{0, len(b) / 2, len(b) - 1} {
			b[i] ^= 0x40
			check(buf, string(b))
			b[i] ^= 0x40
		}
		check(buf, name+"x")
		check(buf, name[:len(name)-1])
	}
	for _, name := range []string{"/dev/tty", "/dev/null", names[0], names[5], names[len(names)-1], "/dev/ttx"} {
		check(k.M.MemSize()-uint32(len(name))-1, name)
	}
}
