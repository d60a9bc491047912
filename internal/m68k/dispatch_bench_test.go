package m68k

import "testing"

// BenchmarkStepLoop measures host nanoseconds per simulated
// instruction through the full Run path (devices polled, interrupts
// checked) on the canonical mixed program (EmitBenchProgram) — the
// number benchmark/ tracks as m68k.step_floor_ns_per_instr. The committed
// pre-dispatch measurement was 31.64 ns/instr (switch interpreter,
// commit b5e4f6b).
func BenchmarkStepLoop(b *testing.B) {
	m := New(Config{})
	entry := EmitBenchProgram(m)
	b.ResetTimer()
	var instrs uint64
	for i := 0; i < b.N; i++ {
		m.ClearHalt()
		m.stopped = false
		m.PC = entry
		i0 := m.Instrs
		if err := m.Run(1 << 40); err != ErrHalted {
			b.Fatal(err)
		}
		instrs += m.Instrs - i0
	}
	b.StopTimer()
	if instrs > 0 {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(instrs), "ns/instr")
	}
}
