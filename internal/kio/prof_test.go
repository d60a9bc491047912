package kio_test

import (
	"bytes"
	"encoding/json"
	"testing"

	"synthesis/internal/kernel"
	"synthesis/internal/kio"
	"synthesis/internal/m68k"
	"synthesis/internal/synth"
)

// bootProfiled is boot with the measurement plane attached from the
// first synthesized routine.
func bootProfiled(t *testing.T) (*kernel.Kernel, *kio.IO) {
	t.Helper()
	k := kernel.Boot(kernel.Config{
		Machine: m68k.Config{MemSize: 1 << 20},
		Profile: true,
	})
	io := kio.Install(k)
	return k, io
}

// TestInterruptLatencyUnderCombinedLoad drives TTY input and network
// loopback traffic at once and checks the profiler's per-level
// latency histograms: both IRQ sources must be seen, with sane
// latency bounds, while the region attribution stays complete.
func TestInterruptLatencyUnderCombinedLoad(t *testing.T) {
	k, io := bootProfiled(t)
	const nameAddr, res, wbuf, rbuf, lbuf = 0x9100, 0x9000, 0x9300, 0x9700, 0x9500
	pokeName(k, nameAddr, "/dev/tty")
	k.M.PokeBytes(wbuf, []byte("wake"))
	// TTY characters arrive while the socket traffic is in flight, so
	// both IRQ levels (TTY = 5, net = 1) fire during the run.
	k.TTY.InputString("hi!\n", 1000, 2000)

	// The reader parks on its empty socket; the sender transmits
	// (raising the net IRQ via the loopback NIC), then reads a cooked
	// line from the TTY (raising TTY IRQs per character).
	reader := k.C.Synthesize(nil, "reader", nil, func(e *synth.Emitter) {
		e.MoveL(m68k.Imm(rbuf), m68k.D(1))
		e.MoveL(m68k.Imm(64), m68k.D(2))
		e.Trap(kernel.TrapRead + 0)
		e.MoveL(m68k.D(0), m68k.Abs(res))
		exitSeq(e)
	})
	sender := k.C.Synthesize(nil, "sender", nil, func(e *synth.Emitter) {
		e.MoveL(m68k.Imm(wbuf), m68k.D(1))
		e.MoveL(m68k.Imm(4), m68k.D(2))
		e.Trap(kernel.TrapWrite + 0)
		e.MoveL(m68k.D(0), m68k.Abs(res+4))
		emitOpen(e, nameAddr) // fd 1: /dev/tty
		e.MoveL(m68k.Imm(lbuf), m68k.D(1))
		e.MoveL(m68k.Imm(64), m68k.D(2))
		e.Trap(kernel.TrapRead + 1)
		e.MoveL(m68k.D(0), m68k.Abs(res+8))
		exitSeq(e)
	})
	tr := k.SpawnKernel("reader", reader)
	ts := k.SpawnKernel("sender", sender)
	if io.OpenSocket(tr, 9, 5) != 0 {
		t.Fatal("reader socket fd")
	}
	if io.OpenSocket(ts, 5, 9) != 0 {
		t.Fatal("sender socket fd")
	}
	run(t, k, tr, 50_000_000)

	if got := k.M.Peek(res, 4); got != 4 {
		t.Fatalf("socket recv = %d, want 4", got)
	}
	if got := k.M.Peek(res+8, 4); got != 4 {
		t.Fatalf("tty read = %d, want 4 (\"hi!\\n\")", got)
	}

	p := k.Prof
	if p == nil {
		t.Fatal("profiled boot did not attach a profiler")
	}
	tty := p.IRQ(m68k.IRQTTY)
	net := p.IRQ(m68k.IRQNet)
	if tty.Count == 0 {
		t.Error("no TTY interrupts recorded")
	}
	if net.Count == 0 {
		t.Error("no network interrupts recorded")
	}
	// An interrupt can be latched mid-instruction at the earliest, so
	// the maximum latency must be positive; and under this light load
	// nothing should sit pending for more than a handful of
	// instructions plus masked stretches — bound it generously.
	if tty.Max == 0 && tty.Count > 0 {
		t.Error("all TTY latencies zero: raise times are not being captured")
	}
	if tty.Max > 100_000 || net.Max > 100_000 {
		t.Errorf("implausible IRQ latency: tty max %d, net max %d cycles", tty.Max, net.Max)
	}
	// The handlers themselves must appear in the attribution under
	// their registered names.
	seen := map[string]bool{}
	for _, s := range p.Top(0) {
		seen[s.Name] = true
	}
	for _, want := range []string{"kio.tty_intr", "kio.net_intr"} {
		if !seen[want] {
			t.Errorf("region %q missing from attribution: %v", want, p.Top(0))
		}
	}
	if c := p.Coverage(); c < 0.95 {
		t.Errorf("coverage = %.3f, want >= 0.95", c)
	}

	// The per-socket routines are attributable by port name, and the
	// whole run exports as valid monotonic Chrome trace JSON.
	if !seen["kio.sock9.recv"] {
		t.Errorf("per-socket recv region missing: %v", p.Top(0))
	}
	var buf bytes.Buffer
	if err := p.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var out struct {
		TraceEvents []struct {
			Ts float64 `json:"ts"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("trace JSON: %v", err)
	}
	last := -1.0
	for _, ev := range out.TraceEvents {
		if ev.Ts < last {
			t.Fatalf("non-monotonic trace ts: %v after %v", ev.Ts, last)
		}
		last = ev.Ts
	}
}
