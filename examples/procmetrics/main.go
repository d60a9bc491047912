// Procmetrics: the kernel reads its own dashboard. The bench list's
// "proc cat", run on the bench rig, opens /proc/metrics through the
// UNIX emulator, reads the kernel's metrics snapshot chunk by chunk,
// and echoes it to the tty. The host then checks that the bytes the
// guest saw are exactly the snapshot the kernel cut at open time, and
// decodes them with the same JSON schema the host-side exporters use.
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
	build, _, err := bench.Program("proc cat", 0)
	if err != nil {
		return err
	}
	rig := bench.NewSynthRig(kernel.Config{Metrics: metrics.New()})
	b := asmkit.New()
	build(b)
	if err := rig.Run(bench.Link(rig.K.M, b), 50_000_000); err != nil {
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
