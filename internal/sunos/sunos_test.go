package sunos_test

import (
	"testing"

	"synthesis/internal/asmkit"
	"synthesis/internal/m68k"
	"synthesis/internal/sunos"
)

// UNIX syscall helper: number in D0, args in D1-D3 (same binary
// convention as the Synthesis UNIX emulator).
func call(b *asmkit.Builder, no int32) {
	b.MoveL(m68k.Imm(no), m68k.D(0))
	b.Trap(0)
}

func exit(b *asmkit.Builder) {
	b.MoveL(m68k.Imm(0), m68k.D(1))
	call(b, 1)
}

func boot(t *testing.T) *sunos.Kernel {
	t.Helper()
	return sunos.Boot(m68k.Config{MemSize: 1 << 20})
}

func pokeName(k *sunos.Kernel, addr uint32, s string) {
	for i := 0; i < len(s); i++ {
		k.M.Poke(addr+uint32(i), 1, uint32(s[i]))
	}
	k.M.Poke(addr+uint32(len(s)), 1, 0)
}

// TestRunHoldsLittleMemory boots the baseline with its default 4 MB of
// RAM and runs a program that only exits: the machine must hold no more
// of its memory than boot reaches, so the stack lies inside it.
func TestRunHoldsLittleMemory(t *testing.T) {
	k := sunos.Boot(m68k.Config{})
	b := asmkit.New()
	exit(b)
	if err := k.Run(b.Link(k.M), 1_000_000); err != nil {
		t.Fatalf("run: %v", err)
	}
	if n := len(k.M.Mem); n >= 256<<10 {
		t.Errorf("an exit reached %d bytes of Mem, want under 256 KB of the %d of RAM", n, k.M.MemSize())
	}
}

func TestNullDeviceThroughLayers(t *testing.T) {
	k := boot(t)
	const nameAddr, res = 0x9100, 0x9000
	pokeName(k, nameAddr, "/dev/null")
	b := asmkit.New()
	b.MoveL(m68k.Imm(int32(nameAddr)), m68k.D(1))
	call(b, 5) // open
	b.MoveL(m68k.D(0), m68k.Abs(res))
	b.MoveL(m68k.Imm(0), m68k.D(1)) // fd
	b.MoveL(m68k.Imm(0x9200), m68k.D(2))
	b.MoveL(m68k.Imm(9), m68k.D(3))
	call(b, 4) // write
	b.MoveL(m68k.D(0), m68k.Abs(res+4))
	b.MoveL(m68k.Imm(0), m68k.D(1))
	call(b, 3) // read
	b.MoveL(m68k.D(0), m68k.Abs(res+8))
	b.MoveL(m68k.Imm(0), m68k.D(1))
	call(b, 6) // close
	b.MoveL(m68k.D(0), m68k.Abs(res+12))
	exit(b)
	entry := b.Link(k.M)
	if err := k.Run(entry, 5_000_000); err != nil {
		t.Fatalf("run: %v", err)
	}
	if got := int32(k.M.Peek(res, 4)); got != 0 {
		t.Fatalf("open = %d", got)
	}
	if got := k.M.Peek(res+4, 4); got != 9 {
		t.Errorf("null write = %d, want 9", got)
	}
	if got := k.M.Peek(res+8, 4); got != 0 {
		t.Errorf("null read = %d, want 0", got)
	}
	if got := int32(k.M.Peek(res+12, 4)); got != 0 {
		t.Errorf("close = %d", got)
	}
}

func TestFileReadThroughBufferCache(t *testing.T) {
	k := boot(t)
	k.CreateFile("/etc/motd", []byte("sunos baseline file"), 64)
	const nameAddr, res, buf = 0x9100, 0x9000, 0x9300
	pokeName(k, nameAddr, "/etc/motd")
	b := asmkit.New()
	b.MoveL(m68k.Imm(int32(nameAddr)), m68k.D(1))
	call(b, 5)
	b.MoveL(m68k.D(0), m68k.Abs(res))
	// Two partial reads.
	b.MoveL(m68k.Imm(0), m68k.D(1))
	b.MoveL(m68k.Imm(buf), m68k.D(2))
	b.MoveL(m68k.Imm(5), m68k.D(3))
	call(b, 3)
	b.MoveL(m68k.D(0), m68k.Abs(res+4))
	b.MoveL(m68k.Imm(0), m68k.D(1))
	b.MoveL(m68k.Imm(buf+5), m68k.D(2))
	b.MoveL(m68k.Imm(100), m68k.D(3))
	call(b, 3)
	b.MoveL(m68k.D(0), m68k.Abs(res+8))
	// Write appends within capacity via a second descriptor.
	b.MoveL(m68k.Imm(int32(nameAddr)), m68k.D(1))
	call(b, 5) // fd 1
	b.MoveL(m68k.Imm(1), m68k.D(1))
	b.MoveL(m68k.Imm(buf), m68k.D(2))
	b.MoveL(m68k.Imm(19), m68k.D(3))
	call(b, 3) // position to EOF
	b.MoveL(m68k.Imm(1), m68k.D(1))
	b.MoveL(m68k.Imm(int32(nameAddr)), m68k.D(2))
	b.MoveL(m68k.Imm(4), m68k.D(3))
	call(b, 4) // append 4 bytes
	b.MoveL(m68k.D(0), m68k.Abs(res+12))
	exit(b)
	entry := b.Link(k.M)
	if err := k.Run(entry, 20_000_000); err != nil {
		t.Fatalf("run: %v", err)
	}
	if got := int32(k.M.Peek(res, 4)); got != 0 {
		t.Fatalf("open = %d", got)
	}
	if got := k.M.Peek(res+4, 4); got != 5 {
		t.Errorf("read1 = %d, want 5", got)
	}
	if got := k.M.Peek(res+8, 4); got != 14 {
		t.Errorf("read2 = %d, want 14", got)
	}
	if got := string(k.M.PeekBytes(buf, 19)); got != "sunos baseline file" {
		t.Errorf("data %q", got)
	}
	if got := k.M.Peek(res+12, 4); got != 4 {
		t.Errorf("append = %d, want 4", got)
	}
	if got := k.FileSize("/etc/motd"); got != 23 {
		t.Errorf("size after append = %d, want 23", got)
	}
}

func TestSocketPipe(t *testing.T) {
	k := boot(t)
	const res, wbuf, rbuf = 0x9000, 0x9300, 0x9700
	k.M.PokeBytes(wbuf, []byte("socketpipe-data-0123456789"))
	b := asmkit.New()
	call(b, 42) // pipe -> D0 rfd, D1 wfd
	b.MoveL(m68k.D(0), m68k.D(6))
	b.MoveL(m68k.D(1), m68k.D(7))
	// Write 26 bytes.
	b.MoveL(m68k.D(7), m68k.D(1))
	b.MoveL(m68k.Imm(wbuf), m68k.D(2))
	b.MoveL(m68k.Imm(26), m68k.D(3))
	call(b, 4)
	b.MoveL(m68k.D(0), m68k.Abs(res))
	// Read them back.
	b.MoveL(m68k.D(6), m68k.D(1))
	b.MoveL(m68k.Imm(rbuf), m68k.D(2))
	b.MoveL(m68k.Imm(26), m68k.D(3))
	call(b, 3)
	b.MoveL(m68k.D(0), m68k.Abs(res+4))
	exit(b)
	entry := b.Link(k.M)
	if err := k.Run(entry, 10_000_000); err != nil {
		t.Fatalf("run: %v", err)
	}
	if got := k.M.Peek(res, 4); got != 26 {
		t.Errorf("pipe write = %d, want 26", got)
	}
	if got := k.M.Peek(res+4, 4); got != 26 {
		t.Errorf("pipe read = %d, want 26", got)
	}
	if got := string(k.M.PeekBytes(rbuf, 26)); got != "socketpipe-data-0123456789" {
		t.Errorf("data %q", got)
	}
}

func TestPipeLargeTransferFragmentsIntoMbufs(t *testing.T) {
	k := boot(t)
	const res, wbuf, rbuf = 0x9000, 0x20000, 0x28000
	payload := make([]byte, 1024)
	for i := range payload {
		payload[i] = byte(i * 13)
	}
	k.M.PokeBytes(wbuf, payload)
	b := asmkit.New()
	call(b, 42)
	b.MoveL(m68k.D(0), m68k.D(6))
	b.MoveL(m68k.D(1), m68k.D(7))
	b.MoveL(m68k.D(7), m68k.D(1))
	b.MoveL(m68k.Imm(wbuf), m68k.D(2))
	b.MoveL(m68k.Imm(1024), m68k.D(3))
	call(b, 4)
	b.MoveL(m68k.D(0), m68k.Abs(res))
	b.MoveL(m68k.D(6), m68k.D(1))
	b.MoveL(m68k.Imm(rbuf), m68k.D(2))
	b.MoveL(m68k.Imm(1024), m68k.D(3))
	call(b, 3)
	b.MoveL(m68k.D(0), m68k.Abs(res+4))
	exit(b)
	entry := b.Link(k.M)
	if err := k.Run(entry, 20_000_000); err != nil {
		t.Fatalf("run: %v", err)
	}
	if got := k.M.Peek(res, 4); got != 1024 {
		t.Errorf("write = %d", got)
	}
	if got := k.M.Peek(res+4, 4); got != 1024 {
		t.Errorf("read = %d", got)
	}
	got := k.M.PeekBytes(rbuf, 1024)
	for i := range payload {
		if got[i] != payload[i] {
			t.Fatalf("byte %d = %#x, want %#x", i, got[i], payload[i])
		}
	}
}

func TestOpenMissingPathFails(t *testing.T) {
	k := boot(t)
	const nameAddr, res = 0x9100, 0x9000
	pokeName(k, nameAddr, "/does/not/exist")
	b := asmkit.New()
	b.MoveL(m68k.Imm(int32(nameAddr)), m68k.D(1))
	call(b, 5)
	b.MoveL(m68k.D(0), m68k.Abs(res))
	exit(b)
	if err := k.Run(b.Link(k.M), 5_000_000); err != nil {
		t.Fatalf("run: %v", err)
	}
	if got := int32(k.M.Peek(res, 4)); got != -1 {
		t.Errorf("open = %d, want -1", got)
	}
}

func TestBaselineSlowerThanItsOwnNullCall(t *testing.T) {
	// Sanity of the layering: a null write must cost much more than
	// the raw trap round-trip (all the layers are real work).
	k := sunos.Boot(m68k.Sun3Config())
	const nameAddr = 0x9100
	pokeName(k, nameAddr, "/dev/null")
	b := asmkit.New()
	b.MoveL(m68k.Imm(int32(nameAddr)), m68k.D(1))
	call(b, 5)
	b.Kcall(m68k.SvcMark)
	b.MoveL(m68k.Imm(0), m68k.D(1))
	b.MoveL(m68k.Imm(0x9200), m68k.D(2))
	b.MoveL(m68k.Imm(1), m68k.D(3))
	call(b, 4)
	b.Kcall(m68k.SvcMark)
	exit(b)
	if err := k.Run(b.Link(k.M), 5_000_000); err != nil {
		t.Fatalf("run: %v", err)
	}
	d := k.M.MarkMicros()
	if len(d) != 1 {
		t.Fatalf("marks %v", d)
	}
	t.Logf("baseline null write: %.2f usec (Synthesis native: ~6)", d[0])
	if d[0] < 10 {
		t.Errorf("baseline null write %.2f usec is implausibly fast for the layered path", d[0])
	}
}

func TestFullSwitchRoutineRuns(t *testing.T) {
	k := sunos.Boot(m68k.Sun3Config())
	b := asmkit.New()
	b.Kcall(m68k.SvcMark)
	b.MoveL(m68k.Imm(1), m68k.D(1))
	b.MoveL(m68k.Imm(1), m68k.D(2)) // switch to self: measurable round trip
	b.Jsr(k.SwitchRoutine())
	b.Kcall(m68k.SvcMark)
	exit(b)
	if err := k.Run(b.Link(k.M), 5_000_000); err != nil {
		t.Fatalf("run: %v", err)
	}
	d := k.M.MarkMicros()
	if len(d) != 1 {
		t.Fatalf("marks %v", d)
	}
	t.Logf("traditional full switch: %.2f usec (Synthesis: ~11-20)", d[0])
	if d[0] < 20 {
		t.Errorf("traditional switch %.2f usec should be well above the synthesized one", d[0])
	}
}

func TestTTYThroughCdevsw(t *testing.T) {
	k := boot(t)
	k.TTYDev.InputString("baseline line\n", 1000, 500)
	const nameAddr, res, buf = 0x9100, 0x9000, 0x9300
	pokeName(k, nameAddr, "/dev/tty")
	b := asmkit.New()
	b.MoveL(m68k.Imm(int32(nameAddr)), m68k.D(1))
	call(b, 5) // open -> fd 0
	b.MoveL(m68k.Imm(0), m68k.D(1))
	b.MoveL(m68k.Imm(buf), m68k.D(2))
	b.MoveL(m68k.Imm(64), m68k.D(3))
	call(b, 3) // read polls until newline
	b.MoveL(m68k.D(0), m68k.Abs(res))
	b.MoveL(m68k.Imm(0), m68k.D(1))
	b.MoveL(m68k.Imm(buf), m68k.D(2))
	b.MoveL(m68k.Imm(4), m68k.D(3))
	call(b, 4) // write the first 4 bytes back out
	exit(b)
	if err := k.Run(b.Link(k.M), 50_000_000); err != nil {
		t.Fatalf("run: %v", err)
	}
	n := k.M.Peek(res, 4)
	if got := string(k.M.PeekBytes(buf, int(n))); got != "baseline line\n" {
		t.Errorf("tty read %q", got)
	}
	if got := string(k.TTYDev.Output()); got != "base" {
		t.Errorf("tty write %q", got)
	}
}

func TestLseekRepositions(t *testing.T) {
	k := boot(t)
	k.CreateFile("/f", []byte("0123456789"), 16)
	const nameAddr, res, buf = 0x9100, 0x9000, 0x9300
	pokeName(k, nameAddr, "/f")
	b := asmkit.New()
	b.MoveL(m68k.Imm(int32(nameAddr)), m68k.D(1))
	call(b, 5)
	b.MoveL(m68k.Imm(0), m68k.D(1))
	b.MoveL(m68k.Imm(5), m68k.D(2))
	call(b, 19) // lseek to 5
	b.MoveL(m68k.Imm(0), m68k.D(1))
	b.MoveL(m68k.Imm(buf), m68k.D(2))
	b.MoveL(m68k.Imm(3), m68k.D(3))
	call(b, 3)
	b.MoveL(m68k.D(0), m68k.Abs(res))
	exit(b)
	if err := k.Run(b.Link(k.M), 10_000_000); err != nil {
		t.Fatalf("run: %v", err)
	}
	if got := k.M.Peek(res, 4); got != 3 {
		t.Fatalf("read after lseek = %d", got)
	}
	if got := string(k.M.PeekBytes(buf, 3)); got != "567" {
		t.Errorf("data %q, want 567", got)
	}
}

func TestSocketLoopbackThroughLayers(t *testing.T) {
	k := boot(t)
	const res, wbuf, rbuf = 0x9000, 0x9300, 0x9700
	k.M.PokeBytes(wbuf, []byte("datagram"))
	b := asmkit.New()
	// socket(local=5, remote=9) -> fd 0
	b.MoveL(m68k.Imm(5), m68k.D(1))
	b.MoveL(m68k.Imm(9), m68k.D(2))
	call(b, 97)
	b.MoveL(m68k.D(0), m68k.Abs(res))
	// socket(local=9, remote=5) -> fd 1
	b.MoveL(m68k.Imm(9), m68k.D(1))
	b.MoveL(m68k.Imm(5), m68k.D(2))
	call(b, 97)
	b.MoveL(m68k.D(0), m68k.Abs(res+4))
	// Duplicate local port must fail.
	b.MoveL(m68k.Imm(5), m68k.D(1))
	b.MoveL(m68k.Imm(33), m68k.D(2))
	call(b, 97)
	b.MoveL(m68k.D(0), m68k.Abs(res+8))
	// write(fd 0): the frame lands in socket 9's ring.
	b.MoveL(m68k.Imm(0), m68k.D(1))
	b.MoveL(m68k.Imm(wbuf), m68k.D(2))
	b.MoveL(m68k.Imm(8), m68k.D(3))
	call(b, 4)
	b.MoveL(m68k.D(0), m68k.Abs(res+12))
	// read(fd 1): the payload comes back out.
	b.MoveL(m68k.Imm(1), m68k.D(1))
	b.MoveL(m68k.Imm(rbuf), m68k.D(2))
	b.MoveL(m68k.Imm(64), m68k.D(3))
	call(b, 3)
	b.MoveL(m68k.D(0), m68k.Abs(res+16))
	// read again (arguments reloaded: the syscall may clobber D1, as
	// pipe's two-result convention allows): empty ring returns 0.
	b.MoveL(m68k.Imm(1), m68k.D(1))
	b.MoveL(m68k.Imm(rbuf), m68k.D(2))
	b.MoveL(m68k.Imm(64), m68k.D(3))
	call(b, 3)
	b.MoveL(m68k.D(0), m68k.Abs(res+20))
	exit(b)
	entry := b.Link(k.M)
	if err := k.Run(entry, 5_000_000); err != nil {
		t.Fatalf("run: %v", err)
	}
	if got := int32(k.M.Peek(res, 4)); got != 0 {
		t.Fatalf("first socket fd = %d, want 0", got)
	}
	if got := int32(k.M.Peek(res+4, 4)); got != 1 {
		t.Fatalf("second socket fd = %d, want 1", got)
	}
	if got := int32(k.M.Peek(res+8, 4)); got != -1 {
		t.Errorf("duplicate port = %d, want -1", got)
	}
	if got := k.M.Peek(res+12, 4); got != 8 {
		t.Errorf("send = %d, want 8", got)
	}
	if got := k.M.Peek(res+16, 4); got != 8 {
		t.Errorf("recv = %d, want 8", got)
	}
	if got := string(k.M.PeekBytes(rbuf, 8)); got != "datagram" {
		t.Errorf("payload %q, want \"datagram\"", got)
	}
	if got := k.M.Peek(res+20, 4); got != 0 {
		t.Errorf("recv on empty ring = %d, want 0", got)
	}
}

// Regression: the socksum layer zero-pads the ragged tail long before
// summing. It must pad the slot copy beyond the payload, never the
// payload bytes themselves — an earlier version cleared the whole
// last long and silently truncated any length not a multiple of 4
// (both ends zeroed identically, so the checksum still matched).
func TestSocketRaggedPayloadSurvivesChecksum(t *testing.T) {
	k := boot(t)
	const res, wbuf, rbuf = 0x9000, 0x9300, 0x9700
	msg := "Hello, Quamachine!" // 18 bytes: len%4 == 2
	k.M.PokeBytes(wbuf, []byte(msg))
	b := asmkit.New()
	b.MoveL(m68k.Imm(5), m68k.D(1))
	b.MoveL(m68k.Imm(9), m68k.D(2))
	call(b, 97)
	b.MoveL(m68k.Imm(9), m68k.D(1))
	b.MoveL(m68k.Imm(5), m68k.D(2))
	call(b, 97)
	b.MoveL(m68k.Imm(0), m68k.D(1))
	b.MoveL(m68k.Imm(wbuf), m68k.D(2))
	b.MoveL(m68k.Imm(int32(len(msg))), m68k.D(3))
	call(b, 4)
	b.MoveL(m68k.D(0), m68k.Abs(res))
	b.MoveL(m68k.Imm(1), m68k.D(1))
	b.MoveL(m68k.Imm(rbuf), m68k.D(2))
	b.MoveL(m68k.Imm(64), m68k.D(3))
	call(b, 3)
	b.MoveL(m68k.D(0), m68k.Abs(res+4))
	exit(b)
	if err := k.Run(b.Link(k.M), 5_000_000); err != nil {
		t.Fatalf("run: %v", err)
	}
	if got := int32(k.M.Peek(res, 4)); got != int32(len(msg)) {
		t.Fatalf("send = %d, want %d", got, len(msg))
	}
	if got := int32(k.M.Peek(res+4, 4)); got != int32(len(msg)) {
		t.Fatalf("recv = %d, want %d", got, len(msg))
	}
	if got := string(k.M.PeekBytes(rbuf, len(msg))); got != msg {
		t.Errorf("payload %q, want %q", got, msg)
	}
}

// Each kernel's marks are its own machine's: a mark pair run on a
// second kernel adds no interval to the first one's.
func TestMarksArePerKernel(t *testing.T) {
	run := func() *sunos.Kernel {
		k := sunos.Boot(m68k.Sun3Config())
		b := asmkit.New()
		b.Kcall(m68k.SvcMark)
		b.Kcall(m68k.SvcMark)
		exit(b)
		if err := k.Run(b.Link(k.M), 5_000_000); err != nil {
			t.Fatalf("run: %v", err)
		}
		return k
	}
	a := run()
	run()
	if d := a.M.MarkMicros(); len(d) != 1 {
		t.Fatalf("kernel A's intervals after kernel B's run: %v, want one", d)
	}
}
