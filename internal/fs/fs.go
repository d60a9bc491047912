// Package fs is the Synthesis kernel's memory-resident file system.
// Section 6.2 notes "this Synthesis file system is entirely
// memory-resident", and Section 6.3 that open spends about 60% of its
// time finding the file in "hashed string names stored backwards".
//
// The directory lives in Quamachine memory so the kernel's open path
// can hash and compare names as VM code: a bucket table of chained
// entries, each entry carrying the file's metadata and its name
// stored backwards a long at a time (see create): the lookup finds
// the name's end a byte at a time, then hashes and compares by longs
// from there. Storing names backwards makes mismatch detection fast for
// long shared prefixes ("/dev/null" and "/dev/tty" differ at the end,
// i.e. at the first compared long).
//
// File contents also live in VM memory (allocated from the kernel
// heap) so synthesized read routines copy them with machine
// instructions; the disk device backs them for the cache-miss path.
package fs

import (
	"fmt"

	"synthesis/internal/alloc"
	"synthesis/internal/m68k"
)

// NBuckets is the directory hash table width (power of two: the VM
// code masks rather than divides).
const NBuckets = 64

// Directory entry layout (all longs, name bytes trailing).
const (
	EntNext    = 0  // next entry in bucket chain (0 = end)
	EntID      = 4  // file id
	EntData    = 8  // address of contents in VM memory (cache buffer)
	EntSize    = 12 // file size in bytes
	EntSpecial = 16 // special-file kind (SpecialNone for plain files)
	EntBlock   = 20 // first disk block for disk-resident files
	EntNameLen = 24 // name length
	EntName    = 28 // name bytes, stored backwards by longs (see create)
)

// Special file kinds.
const (
	SpecialNone    uint32 = iota
	SpecialNull           // /dev/null
	SpecialTTY            // /dev/tty
	SpecialAD             // /dev/ad: the analog sampler stream
	SpecialDisk           // disk-resident file, demand-loaded into the cache
	SpecialMetrics        // /proc/metrics: snapshot of the observability plane
	SpecialRawTTY         // /dev/rawtty: the tty's raw input queue, no line discipline
)

// File is the Go-side handle on one directory entry. The file's size
// lives only in the entry's EntSize cell (synthesized writes grow it
// there): read it with CurrentSize.
type File struct {
	Name    string
	ID      uint32
	Entry   uint32 // VM address of the directory entry
	Data    uint32 // VM address of contents
	Cap     uint32
	Special uint32
	Block   uint32 // first disk block (disk-resident files)
}

// FS is the file system: Go bookkeeping over VM-resident structures.
type FS struct {
	m       *m68k.Machine
	heap    *alloc.Heap
	Buckets uint32 // VM address of the bucket table
	byName  map[string]*File
	byEntry map[uint32]*File
	nextID  uint32
}

// New allocates the directory structures in machine memory.
func New(m *m68k.Machine, heap *alloc.Heap) *FS {
	b, err := heap.Alloc(NBuckets * 4)
	if err != nil {
		panic("fs: cannot allocate bucket table")
	}
	for i := uint32(0); i < NBuckets*4; i += 4 {
		m.Poke(b+i, 4, 0)
	}
	return &FS{
		m:       m,
		heap:    heap,
		Buckets: b,
		byName:  make(map[string]*File),
		byEntry: make(map[uint32]*File),
		nextID:  1,
	}
}

// Hash is the name hash. Its key is the name's length XOR its last
// four bytes as a big-endian long (a shorter name's bytes
// right-aligned), the long the VM lookup loads from the name's end;
// the fold brings the key's upper bytes down to the bucket bits.
// The VM lookup computes exactly this function.
func Hash(name string) uint32 {
	var h uint32
	for i := max(0, len(name)-4); i < len(name); i++ {
		h = h<<8 | uint32(name[i])
	}
	h ^= uint32(len(name))
	h ^= h >> 16
	h ^= h >> 6
	return h & (NBuckets - 1)
}

// Create adds a plain file with the given contents, rounding its
// capacity up so it can grow a little in place.
func (f *FS) Create(name string, data []byte) (*File, error) {
	return f.create(name, data, uint32(len(data)), SpecialNone)
}

// CreateSized adds a plain file with explicit capacity.
func (f *FS) CreateSized(name string, data []byte, capacity uint32) (*File, error) {
	return f.create(name, data, capacity, SpecialNone)
}

// CreateSpecial adds a device node.
func (f *FS) CreateSpecial(name string, kind uint32) (*File, error) {
	return f.create(name, nil, 0, kind)
}

// CreateOnDisk adds a disk-resident file: its contents live in disk
// blocks starting at startBlock and are demand-loaded into a cache
// buffer of the given capacity by the synthesized read's fault path
// (the disk -> scheduler -> cache-manager pipeline of Section 5.1).
func (f *FS) CreateOnDisk(name string, startBlock, size, capacity uint32) (*File, error) {
	if capacity < size {
		capacity = size
	}
	file, err := f.create(name, nil, capacity, SpecialDisk)
	if err != nil {
		return nil, err
	}
	file.Block = startBlock
	f.m.Poke(file.Entry+EntSize, 4, size)
	f.m.Poke(file.Entry+EntBlock, 4, startBlock)
	return file, nil
}

func (f *FS) create(name string, data []byte, capacity uint32, special uint32) (*File, error) {
	if _, dup := f.byName[name]; dup {
		return nil, fmt.Errorf("fs: %q exists", name)
	}
	if capacity < uint32(len(data)) {
		capacity = uint32(len(data))
	}
	var dataAddr uint32
	if capacity > 0 {
		a, err := f.heap.Alloc(capacity)
		if err != nil {
			return nil, err
		}
		dataAddr = a
		f.m.PokeBytes(dataAddr, data)
	}
	entSize := uint32(EntName + len(name))
	ent, err := f.heap.Alloc(entSize)
	if err != nil {
		return nil, err
	}
	file := &File{
		Name:    name,
		ID:      f.nextID,
		Entry:   ent,
		Data:    dataAddr,
		Cap:     capacity,
		Special: special,
	}
	f.nextID++

	m := f.m
	// Chain into the bucket (at the head).
	bucket := f.Buckets + Hash(name)*4
	m.Poke(ent+EntNext, 4, m.Peek(bucket, 4))
	m.Poke(bucket, 4, ent)
	m.Poke(ent+EntID, 4, file.ID)
	m.Poke(ent+EntData, 4, dataAddr)
	m.Poke(ent+EntSize, 4, uint32(len(data)))
	m.Poke(ent+EntSpecial, 4, special)
	m.Poke(ent+EntBlock, 4, 0)
	m.Poke(ent+EntNameLen, 4, uint32(len(name)))
	// Stored backwards by longs, in the order move.l -(A0) reads the
	// name from its end: its last four bytes first, then the four
	// before them, ...; the leading len%4 bytes follow, last first.
	at, end := ent+EntName, len(name)
	for ; end >= 4; end -= 4 {
		m.PokeBytes(at, []byte(name[end-4:end]))
		at += 4
	}
	for ; end > 0; end-- {
		m.Poke(at, 1, uint32(name[end-1]))
		at++
	}

	f.byName[name] = file
	f.byEntry[ent] = file
	return file, nil
}

// Lookup finds a file by name (Go-side; the kernel's open path does
// the equivalent walk in VM code).
func (f *FS) Lookup(name string) *File { return f.byName[name] }

// ByEntry finds a file by directory-entry address (what the VM lookup
// returns in D0).
func (f *FS) ByEntry(ent uint32) *File { return f.byEntry[ent] }

// CurrentSize reads the file's size from its directory entry in
// machine memory, the only copy (synthesized write routines grow it
// there).
func (f *FS) CurrentSize(file *File) uint32 {
	return f.m.Peek(file.Entry+EntSize, 4)
}

// Files returns all files.
func (f *FS) Files() []*File {
	out := make([]*File, 0, len(f.byName))
	for _, file := range f.byName {
		out = append(out, file)
	}
	return out
}
