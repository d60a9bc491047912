// Procmetrics: the kernel reads its own dashboard. A guest program —
// assembly text run through the asmkit text assembler on the bench
// rig — opens /proc/metrics through the UNIX emulator, reads the
// kernel's metrics snapshot chunk by chunk, and echoes it to the tty.
// The host then checks that the bytes the guest saw are exactly the
// snapshot the kernel cut at open time, and decodes them with the same
// JSON schema the host-side exporters use.
//
//	go run ./examples/procmetrics
package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"synthesis/internal/asmkit"
	"synthesis/internal/bench"
	"synthesis/internal/kernel"
	"synthesis/internal/metrics"
)

// The guest workload in the text-assembler dialect. UNIX trap
// convention: trap #0, syscall number in D0, arguments in D1-D3.
const guestSrc = `
; open the kernel's own metrics snapshot
        move.l  #0xA030, d1     ; name: "/proc/metrics"
        move.l  #5, d0          ; SYS_open
        trap    #0
        move.l  d0, d6          ; proc fd

; open the console
        move.l  #0xA010, d1     ; name: "/dev/tty"
        move.l  #5, d0
        trap    #0
        move.l  d0, d7          ; tty fd

; copy the snapshot to the tty, 256 bytes at a time
loop:   move.l  d6, d1
        move.l  #0xB000, d2
        move.l  #256, d3
        move.l  #3, d0          ; SYS_read
        trap    #0
        tst.l   d0
        beq     done            ; read returned 0: snapshot drained
        move.l  d0, d3          ; echo exactly what we got
        move.l  d7, d1
        move.l  #0xB000, d2
        move.l  #4, d0          ; SYS_write
        trap    #0
        bra     loop

done:   move.l  d6, d1
        move.l  #6, d0          ; SYS_close
        trap    #0
        move.l  #0, d1
        move.l  #1, d0          ; SYS_exit
        trap    #0
`

func main() {
	if err := run(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// run executes the demo, writing the report to w. It returns an error
// instead of exiting so the tier-1 test suite can run the example
// end to end (see main_test.go).
func run(w io.Writer) error {
	// The rig pokes the two names the guest passes to open:
	// "/dev/tty" at 0xA010 and "/proc/metrics" at 0xA030.
	rig := bench.NewSynthRig(kernel.Config{Metrics: metrics.New()})
	prog, err := asmkit.Assemble(guestSrc)
	if err != nil {
		return fmt.Errorf("assemble: %w", err)
	}
	if err := rig.Run(bench.Link(rig.K.M, prog), 50_000_000); err != nil {
		return fmt.Errorf("run: %w", err)
	}

	guest, want := rig.K.TTY.Output(), rig.IO.ProcLast()
	fmt.Fprintf(w, "guest read %d bytes of /proc/metrics through the UNIX emulator\n", len(guest))
	if string(guest) != string(want) {
		return fmt.Errorf("guest bytes differ from the snapshot the open cut (%d vs %d bytes)",
			len(guest), len(want))
	}
	fmt.Fprintln(w, "guest bytes == the snapshot cut at open time, byte for byte")

	var snap metrics.Snapshot
	if err := json.Unmarshal(guest, &snap); err != nil {
		return fmt.Errorf("decode: %w", err)
	}
	fmt.Fprintf(w, "decoded: %d counters, %d gauges at t=%.0f µs simulated\n",
		len(snap.Counters), len(snap.Gauges), snap.Micros())
	for _, name := range []string{
		"unixemu.sys.open.calls", // the guest's own open, as of the snapshot
		"kernel.thread.creates",
		"kio.tty.rx_chars",
	} {
		if v, ok := snap.Counters[name]; ok {
			fmt.Fprintf(w, "  %-28s %d\n", name, v)
		}
	}
	return nil
}
