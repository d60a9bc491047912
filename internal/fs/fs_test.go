package fs_test

import (
	"testing"
	"testing/quick"

	"synthesis/internal/alloc"
	"synthesis/internal/fs"
	"synthesis/internal/m68k"
)

func newFS(t *testing.T) (*fs.FS, *m68k.Machine) {
	t.Helper()
	m := m68k.New(m68k.Config{MemSize: 1 << 20})
	h := alloc.New(0x1000, 1<<19)
	return fs.New(m, h), m
}

func TestCreateAndLookup(t *testing.T) {
	f, m := newFS(t)
	file, err := f.Create("/etc/motd", []byte("hello"))
	if err != nil {
		t.Fatal(err)
	}
	if got := f.Lookup("/etc/motd"); got != file {
		t.Error("lookup did not find the file")
	}
	if f.Lookup("/etc/motdx") != nil {
		t.Error("lookup found a nonexistent file")
	}
	if got := string(m.PeekBytes(file.Data, 5)); got != "hello" {
		t.Errorf("contents %q", got)
	}
	if f.ByEntry(file.Entry) != file {
		t.Error("ByEntry failed")
	}
	if f.ByEntry(file.Entry+4) != nil {
		t.Error("ByEntry found a file at an address that is no entry")
	}
}

func TestDuplicateRejected(t *testing.T) {
	f, _ := newFS(t)
	if _, err := f.Create("/a", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Create("/a", nil); err == nil {
		t.Error("duplicate create succeeded")
	}
}

func TestNamesStoredBackwards(t *testing.T) {
	f, m := newFS(t)
	// By longs from the end, then the leading len%4 bytes last first:
	// the first stored unit is always the name's end.
	for name, want := range map[string]string{
		"/etc/motd": "motd" + "etc/" + "/",
		"/dev/tty":  "/tty" + "/dev",
		"/ab":       "ba/",
	} {
		file, err := f.Create(name, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got := string(m.PeekBytes(file.Entry+fs.EntName, len(name))); got != want {
			t.Errorf("%s stored as %q, want %q", name, got, want)
		}
	}
}

func TestHashMatchesChainPlacement(t *testing.T) {
	f, m := newFS(t)
	file, err := f.Create("/dev/null", nil)
	if err != nil {
		t.Fatal(err)
	}
	bucket := f.Buckets + fs.Hash("/dev/null")*4
	head := m.Peek(bucket, 4)
	if head != file.Entry {
		t.Errorf("bucket head %#x, want entry %#x", head, file.Entry)
	}
}

func TestCollisionChaining(t *testing.T) {
	f, m := newFS(t)
	// Create many files; verify every one is findable through its
	// bucket chain in machine memory (the exact structure the VM
	// lookup walks).
	names := []string{}
	for i := 0; i < 200; i++ {
		name := "/f/" + string(rune('a'+i%26)) + string(rune('a'+(i/26)%26)) + string(rune('0'+i%10))
		if f.Lookup(name) != nil {
			continue
		}
		if _, err := f.Create(name, []byte(name)); err != nil {
			t.Fatal(err)
		}
		names = append(names, name)
	}
	for _, name := range names {
		file := f.Lookup(name)
		if file == nil {
			t.Fatalf("%s lost", name)
		}
		// Walk the chain the way the kernel does.
		ent := m.Peek(f.Buckets+fs.Hash(name)*4, 4)
		found := false
		for ent != 0 {
			if ent == file.Entry {
				found = true
				break
			}
			ent = m.Peek(ent+fs.EntNext, 4)
		}
		if !found {
			t.Errorf("%s not reachable through its bucket chain", name)
		}
	}
}

func TestCurrentSizeTracksEntryCell(t *testing.T) {
	f, m := newFS(t)
	file, err := f.CreateSized("/data", []byte("abc"), 64)
	if err != nil {
		t.Fatal(err)
	}
	if got := f.CurrentSize(file); got != 3 {
		t.Errorf("size = %d", got)
	}
	// Simulate a synthesized write updating the entry cell.
	m.Poke(file.Entry+fs.EntSize, 4, 40)
	if got := f.CurrentSize(file); got != 40 {
		t.Errorf("size after poke = %d", got)
	}
}

func TestSpecialFiles(t *testing.T) {
	f, _ := newFS(t)
	dev, err := f.CreateSpecial("/dev/null", fs.SpecialNull)
	if err != nil {
		t.Fatal(err)
	}
	if dev.Special != fs.SpecialNull || dev.Data != 0 {
		t.Error("special file shape wrong")
	}
}

// Property: the Go-side Hash agrees with itself under reversal
// structure — names differing only in their last character (the FIRST
// compared byte in backwards storage) land in different buckets more
// often than not, and the hash is always in range.
func TestHashProperties(t *testing.T) {
	inRange := func(s string) bool {
		return fs.Hash(s) < fs.NBuckets
	}
	if err := quick.Check(inRange, nil); err != nil {
		t.Error(err)
	}
	diff := 0
	for c := byte('a'); c <= 'z'; c++ {
		if fs.Hash("/dev/tt"+string(c)) != fs.Hash("/dev/tty") {
			diff++
		}
	}
	if diff < 20 {
		t.Errorf("last-character changes moved only %d/26 names to new buckets", diff)
	}
}

func TestFilesEnumeration(t *testing.T) {
	f, _ := newFS(t)
	f.Create("/a", nil)
	f.Create("/b", nil)
	if got := len(f.Files()); got != 2 {
		t.Errorf("Files() = %d entries, want 2", got)
	}
}
