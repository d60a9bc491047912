package kernel_test

import (
	"testing"

	"synthesis/internal/kernel"
	"synthesis/internal/kio"
	"synthesis/internal/m68k"
	"synthesis/internal/unixemu"
)

// bootAll boots a kernel and installs the I/O system and the UNIX
// emulator on it, as the benchmark's rig and every fleet VM do.
func bootAll() *kernel.Kernel {
	k := kernel.Boot(kernel.Config{Machine: m68k.Sun3Config(), ChargeSynthesis: true})
	kio.Install(k)
	unixemu.Install(k)
	return k
}

// TestBootReachesLittleMemory holds a booted machine to the memory its
// boot reaches: the boot touches a few pages of the 4 MB RAM and no
// disk block, so it must allocate no more than that.
func TestBootReachesLittleMemory(t *testing.T) {
	k := bootAll()
	t.Logf("boot reached %d bytes of Mem", len(k.M.Mem))
	if n := len(k.M.Mem); n > 128<<10 {
		t.Errorf("boot reached %d bytes of Mem, want at most 128 KB of the %d of RAM", n, k.M.MemSize())
	}
	blocks := 0
	for _, b := range k.Disk.Blocks {
		if b != nil {
			blocks++
		}
	}
	if blocks != 0 {
		t.Errorf("boot created %d disk blocks, want 0", blocks)
	}
}

// BenchmarkBoot prices one boot with the I/O system and the UNIX
// emulator installed: the set-up every benchmark rig and fleet VM pays.
func BenchmarkBoot(b *testing.B) {
	b.ReportAllocs()
	for b.Loop() {
		bootAll()
	}
}
