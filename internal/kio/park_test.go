package kio_test

import (
	"fmt"
	"testing"

	"synthesis/internal/kernel"
	"synthesis/internal/m68k"
	"synthesis/internal/synth"
)

// TestOneByteGetParkWindowEnumerated checks the one-byte get's park by
// enumeration rather than by soak: an empty get re-checks the queue
// with the interrupt level raised, parks on the reader cell and retries
// the get when woken. A raw-tty read takes the same emitQueueRead path
// as a pipe, with the tty interrupt as its producer, so one byte is
// injected at every cycle from the reader's trap entry to its
// switch-out, each on a fresh machine, and every run must hand that
// byte to the reader within a bounded number of cycles, on the
// one-byte path (the profiler counts the read routine's instructions),
// and leave the ready ring whole (Kernel.CheckReadyRing).
//
// Mutations it was checked against (each makes some injection point
// lose the wakeup, so the reader never returns):
//   - the masked re-check of head against tail in the empty path
//     deleted;
//   - the re-check moved before the OrSR that raises the mask.
func TestOneByteGetParkWindowEnumerated(t *testing.T) {
	const res, buf = 0x9000, 0x9300
	const deliverWithin = 5_000 // cycles from the byte's arrival to the reader's return
	// A parked read runs the empty check, the masked re-check and park,
	// then the one-byte get: 29 instructions. A woken read that went
	// through the bulk loop for its one byte would run 76.
	const maxReadInstrs = 32
	boot := func() (*kernel.Kernel, *kernel.Thread) {
		k, _ := enumBoot()
		prog := k.C.Synthesize(nil, "reader", nil, func(e *synth.Emitter) {
			emitOpen(e, ttyName) // fd 0
			e.MoveL(m68k.Imm(buf), m68k.D(1))
			e.MoveL(m68k.Imm(1), m68k.D(2))
			e.Kcall(kernel.SvcMark)
			e.Trap(kernel.TrapRead + 0)
			e.Kcall(kernel.SvcMark)
			e.MoveL(m68k.D(0), m68k.Abs(res))
			exitSeq(e)
		})
		th := k.SpawnKernel("reader", prog)
		k.Start(th)
		return k, th
	}

	// The window: from the mark in front of the trap to the first
	// instruction another thread runs.
	k, th := boot()
	parked := func() bool { return len(k.M.Marks) != 0 && k.CurTTE() != th.TTE }
	if err := stepUntil(k, parked); err != nil || !parked() {
		t.Fatalf("reader never parked on an empty queue: %v", err)
	}
	from, to := k.M.Marks[0].Cycles, k.M.Cycles
	if len(k.M.Marks) != 1 {
		t.Fatalf("the reader returned without a byte")
	}

	enumerate(t, cycles(from, to), func(at uint64) string {
		k, _ := boot()
		k.TTY.InputAt('Q', at)
		err := k.Run(to + 2*deliverWithin)
		switch {
		case err != nil:
			return fmt.Sprintf("the machine stopped: %v", err)
		case len(k.M.Marks) != 2:
			return "the reader never returned"
		case k.M.Peek(res, 4) != 1 || k.M.Peek(buf, 1) != 'Q':
			return "the read did not return the byte"
		case k.M.Marks[1].Cycles > max(at, from)+deliverWithin:
			return fmt.Sprintf("the byte reached the reader more than %d cycles after it arrived", deliverWithin)
		}
		if err := k.CheckReadyRing(); err != nil {
			return err.Error()
		}
		for _, st := range k.Prof.Top(0) {
			if st.Name == "thread:reader.rawtty_read" && st.Instrs > maxReadInstrs {
				return fmt.Sprintf("the read ran more than %d instructions: the woken get left the one-byte path", maxReadInstrs)
			}
		}
		return ""
	})
}
