package bench

import (
	"fmt"

	"synthesis/internal/kernel"
	"synthesis/internal/m68k"
	"synthesis/internal/synth"
)

// Figure 2's queue under contention, where the paper makes its claim:
// kernel threads on one 68020, so contention is a producer preempted
// inside its claim window. N producer threads feed one consumer a
// fixed total of items through pathlen's 64-slot queue, and the table
// compares three puts: the CAS put, the 8-item batch put, and a masked
// twin that claims with interrupts off and no CAS (the locked queue a
// uniprocessor kernel would otherwise use). The consumer logs every
// item it takes; a lost, duplicated or reordered item, or a batch that
// does not arrive contiguous, fails the table.

// contentionItems is the fixed total every run moves, whatever N.
const contentionItems = 1024

// contentionQuantumUS is the quantum of the main sweep: short enough
// that a producer's quantum ends inside its burst of puts into an
// emptied queue, so preemptions land in claim windows.
const contentionQuantumUS = 100

// contentionBatch is the batch put's claim size.
const contentionBatch = 8

// PutKind names one of the three puts.
type PutKind int

const (
	PutCAS PutKind = iota
	PutMasked
	PutBatch
)

var putNames = [...]string{PutCAS: "CAS put", PutMasked: "masked put", PutBatch: "8-item batch put"}

// RunContention moves contentionItems through the queue with n
// producers using put, every thread on a quantum of quantumUS, checks
// what the consumer received (internal/queue's concurrent tests run
// it for that alone), and returns usec per item and failed claims per
// 1,000 items.
func RunContention(kind PutKind, n int, quantumUS float64) (usPerItem, retriesPer1K float64, err error) {
	k := kernel.Boot(kernel.Config{Machine: m68k.Sun3Config()})
	g := newQueueGeom(k, 64)
	g.retries, _ = k.Heap.Alloc(4)
	logBuf, _ := k.Heap.Alloc(contentionItems)
	claims := contentionItems / n // claims per producer
	var put uint32
	if kind == PutBatch {
		put = synthFig2PutBatch(k.C, g, contentionBatch)
		claims /= contentionBatch
	} else {
		put = synthFig2Put(k.C, g, 0, kind == PutMasked)
	}

	yield := func(e *synth.Emitter) {
		e.MoveL(m68k.Imm(kernel.SysYield), m68k.D(0))
		e.Trap(kernel.TrapSys)
	}
	exit := func(e *synth.Emitter) {
		e.MoveL(m68k.Imm(kernel.SysExit), m68k.D(0))
		e.Trap(kernel.TrapSys)
	}
	// The consumer: Figure 2's get, which trusts the slot's flag and
	// not Q_head, logging each item; it yields on an empty slot.
	consumer := k.C.Synthesize(nil, "contention_consumer", nil, func(e *synth.Emitter) {
		e.Kcall(kernel.SvcMark)
		e.MoveL(m68k.Imm(contentionItems), m68k.D(5))
		e.Lea(m68k.Abs(logBuf), 2)
		e.Label("loop")
		emitFig2Get(e, g, m68k.PostInc(2))
		e.SubL(m68k.Imm(1), m68k.D(5))
		e.Bne("loop")
		e.Kcall(kernel.SvcMark)
		exit(e)
		e.Label("empty")
		yield(e)
		e.Bra("loop")
	})
	// Producer i puts the values i, i+n, i+2n, ... (mod 256): the
	// value names its producer and its place in that producer's
	// stream. A full queue makes it yield.
	producer := func(i int) uint32 {
		return k.C.Synthesize(nil, "contention_producer", nil, func(e *synth.Emitter) {
			e.MoveL(m68k.Imm(int32(claims)), m68k.D(5))
			e.MoveL(m68k.Imm(int32(i)), m68k.D(6))
			e.Label("loop")
			e.MoveL(m68k.D(6), m68k.D(1))
			e.Jsr(put)
			e.TstL(m68k.D(0))
			e.Beq("full")
			e.AddL(m68k.Imm(int32(n)), m68k.D(6))
			e.SubL(m68k.Imm(1), m68k.D(5))
			e.Bne("loop")
			exit(e)
			e.Label("full")
			yield(e)
			e.Bra("loop")
		})
	}

	quantum := uint32(quantumUS * k.M.ClockMHz)
	threads := []*kernel.Thread{k.SpawnKernel("consumer", consumer)}
	for i := 0; i < n; i++ {
		threads = append(threads, k.SpawnKernel(fmt.Sprintf("producer%d", i), producer(i)))
	}
	for _, t := range threads {
		k.M.Poke(t.TTE+kernel.TTEQuantum, 4, quantum)
	}
	k.Start(threads[0])
	if err := k.Run(200_000_000); err != nil {
		return 0, 0, err
	}
	if len(k.Marks) != 2 {
		return 0, 0, errMarks(len(k.Marks)/2, 1)
	}
	log := make([]byte, contentionItems)
	for i := range log {
		log[i] = byte(k.M.Peek(logBuf+uint32(i), 1))
	}
	if err := checkContentionLog(log, n, kind == PutBatch); err != nil {
		return 0, 0, fmt.Errorf("queue_contention: %s, %d producers: %w", putNames[kind], n, err)
	}
	return k.MarkDeltasMicros()[0] / contentionItems, float64(k.M.Peek(g.retries, 4)) * 1000 / contentionItems, nil
}

// emitFig2Get emits Figure 2's get: it trusts the tail slot's flag and
// not Q_head, moves the item to dst, clears the flag and advances
// Q_tail; an unflagged slot branches to "empty". Clobbers D0, A0, A1.
func emitFig2Get(e *synth.Emitter, g queueGeom, dst m68k.Operand) {
	e.MoveL(m68k.Abs(g.tail), m68k.D(0))
	e.Lea(m68k.Abs(g.flags), 0)
	e.Tst(1, m68k.Idx(0, 0, 0, 1))
	e.Beq("empty")
	e.Lea(m68k.Abs(g.buf), 1)
	e.MoveB(m68k.Idx(0, 1, 0, 1), dst)
	e.Clr(1, m68k.Idx(0, 0, 0, 1))
	e.AddL(m68k.Imm(1), m68k.D(0))
	e.CmpL(m68k.Imm(g.size), m68k.D(0))
	e.Bne("nowrap")
	e.Clr(4, m68k.D(0))
	e.Label("nowrap")
	e.MoveL(m68k.D(0), m68k.Abs(g.tail))
}

// Fig2Queue lays out this table's queue on k for capacity items and
// synthesizes its routines for calls from Go one at a time
// (internal/queue's conformance tests): the masked put, the get, and
// batch(h), the put of h copies with one claim. A put takes its item
// in D1's low byte and the get returns it there; each returns 1 in D0
// on success and 0 on a full or empty queue.
func Fig2Queue(k *kernel.Kernel, capacity int32) (put, get uint32, batch func(h int32) uint32) {
	g := newQueueGeom(k, capacity+1)
	get = k.C.Synthesize(nil, "fig2_qget", nil, func(e *synth.Emitter) {
		emitFig2Get(e, g, m68k.D(1))
		e.MoveL(m68k.Imm(1), m68k.D(0))
		e.Rts()
		e.Label("empty")
		e.Clr(4, m68k.D(0))
		e.Rts()
	})
	return synthFig2Put(k.C, g, 0, true), get, func(h int32) uint32 { return synthFig2PutBatch(k.C, g, h) }
}

// checkContentionLog checks the consumer's log: every claim's items
// arrive exactly once and in each producer's order, and with batches
// every batch arrives as one contiguous run of its value.
func checkContentionLog(log []byte, n int, batched bool) error {
	per := 1
	if batched {
		per = contentionBatch
	}
	next := make([]int, n) // claims seen from each producer
	for at := 0; at < len(log); at += per {
		v := int(log[at])
		for j := at + 1; j < at+per; j++ {
			if log[j] != log[at] {
				return fmt.Errorf("batch at item %d not contiguous: %d inside a batch of %d", at, log[j], v)
			}
		}
		p := v % n
		if want := next[p] * n % 256; v-p != want {
			return fmt.Errorf("item %d: producer %d sent %d, want %d: lost, duplicated or reordered", at, p, v, want+p)
		}
		next[p]++
	}
	for p, got := range next {
		if want := len(log) / per / n; got != want {
			return fmt.Errorf("producer %d: %d claims arrived, want %d", p, got, want)
		}
	}
	return nil
}

// QueueContention is the queue_contention table.
func QueueContention() (Table, error) {
	t := Table{
		Title: "Figure 2 under contention: N producer threads, one consumer, 64-slot queue",
		Note: fmt.Sprintf("%d items in total per run, %d usec quantum unless named; "+
			"a retry is a CAS that lost its claim to a producer that ran while this one was preempted",
			contentionItems, contentionQuantumUS),
	}
	measure := func(kind PutKind, n int, quantumUS float64, label string) (float64, error) {
		us, retries, err := RunContention(kind, n, quantumUS)
		if err != nil {
			return 0, err
		}
		name := fmt.Sprintf("%s, N=%d%s", putNames[kind], n, label)
		t.Rows = append(t.Rows, Row{Name: name, Measured: us, Unit: "usec", Note: "per item"})
		if kind != PutMasked {
			t.Rows = append(t.Rows, Row{Name: name + ": retries", Measured: retries, Unit: "per 1k"})
		}
		return us, nil
	}
	for _, n := range []int{1, 8, 64} {
		cas, err := measure(PutCAS, n, contentionQuantumUS, "")
		if err != nil {
			return t, err
		}
		masked, err := measure(PutMasked, n, contentionQuantumUS, "")
		if err != nil {
			return t, err
		}
		last := &t.Rows[len(t.Rows)-1]
		last.Note += fmt.Sprintf("; %.3fx the CAS put", masked/cas)
		if _, err := measure(PutBatch, n, contentionQuantumUS, ""); err != nil {
			return t, err
		}
	}
	for _, q := range []float64{50, 500} {
		if _, err := measure(PutCAS, 8, q, fmt.Sprintf(", %g usec quantum", q)); err != nil {
			return t, err
		}
	}
	return t, nil
}
