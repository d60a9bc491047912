package main

import (
	"strings"

	"synthesis/internal/m68k"
	"synthesis/internal/prof"
)

// The per-layer side of a run. Three kinds of number live here:
//
//   - the traced repeat: the same fixed work on a rig booted with
//     kernel.Config{Profile: true}; the profiler's per-region cycles
//     are folded into layers by the rule table below;
//   - the reference kernel (bench.go: sunReference);
//   - the probes (probes.go): fixed-count micro-runs around single
//     public calls of one layer.
//
// Everything is taken from outside the product: timed or counted
// around public calls, or read from the profiler the product already
// has.

// shareLayers are the layers guest cycles are attributed to, in
// report order. "other" takes named regions no rule matches, so the
// shares always sum to the profiler's coverage.
var shareLayers = []string{"program", "unixemu", "kernel", "kio", "synthesis", "idle", "other"}

// layerRules maps profiler region names to layers, first match wins.
// The names are the ones the product registers (synth.Builder.Named,
// "<quaject>.<entry>", or the bare entry for free-standing routines).
var layerRules = []struct {
	prefix string
	layer  string
}{
	{"bench.", "program"},
	{"unix_gate", "unixemu"},
	{"(idle)", "idle"},
	{"idle", "idle"},
	{"(synthesis", "synthesis"},
	{"kio.", "kio"},
	{"kernel-shared.", "kernel"},
	{"boot-handoff", "kernel"},
}

// kioEntries are the per-descriptor routines open synthesizes into
// the opening thread's quaject ("thread:<name>.<entry>"): they belong
// to the I/O layer, while the thread's switch code belongs to the
// kernel.
var kioEntries = []string{
	"pipe_", "file_", "null_", "tty_", "rawtty_", "cooked_", "ad_", "diskfile_", "proc_", "sock", "net",
}

func layerOf(region string) string {
	if strings.HasPrefix(region, "thread:") {
		entry := region[strings.LastIndex(region, ".")+1:]
		for _, p := range kioEntries {
			if strings.HasPrefix(entry, p) {
				return "kio"
			}
		}
		return "kernel"
	}
	for _, r := range layerRules {
		if strings.HasPrefix(region, r.prefix) {
			return r.layer
		}
	}
	return "other"
}

// tracedSingle is the traced repeat of a single-machine workload.
func tracedSingle(w *workload, o options, tr *tracer, host *hostSpeed, res *result) error {
	sp := tr.begin("traced repeat")
	defer tr.end(sp)
	rep, r, err := single(w, o, tr, host, true)
	if err != nil {
		return err
	}
	if rep.failed > 0 {
		res.problem("traced repeat: %d of %d operations failed", rep.failed, rep.ops)
	}
	m := res.Metrics
	p := r.k.Prof
	foldProfile(m, p)
	if c := m["prof.coverage"]; c < 0.95 {
		res.problem("traced repeat: only %.3f of the guest cycles fall in named regions, want 0.95", c)
	}
	m["prof.irq_net_latency_cycles"] = p.IRQ(m68k.IRQNet).Mean()
	m["prof.trace_overhead_x"] = rep.reg.wall.Seconds() / rep.runSlow * m["ops_per_s"] / float64(rep.ops)

	if w.name == "sock_echo" {
		// One operation is one send and one receive on each socket.
		send, recv := regionInstrs(p, ".send"), regionInstrs(p, ".recv")
		m["kio.sock_send_instr_per_call"] = float64(send) / float64(2*rep.ops)
		m["kio.sock_recv_instr_per_call"] = float64(recv) / float64(2*rep.ops)
	}
	return nil
}

// foldProfile turns the profiler's per-region cycles into the
// prof.share.* metrics. The shares sum to prof.coverage by
// construction: every attributed region lands in exactly one layer.
func foldProfile(m values, p *prof.Profiler) {
	window := float64(p.Window())
	cycles := make(map[string]uint64)
	for _, st := range p.Top(0) {
		if st.Name == "(unattributed)" {
			continue
		}
		cycles[layerOf(st.Name)] += st.Cycles
	}
	for _, l := range shareLayers {
		m["prof.share."+l] = float64(cycles[l]) / window
	}
	m["prof.coverage"] = p.Coverage()
}

// regionInstrs sums the instructions charged to the kio socket
// regions with the given suffix ("kio.sock<port>.send").
func regionInstrs(p *prof.Profiler, suffix string) uint64 {
	var n uint64
	for _, st := range p.Top(0) {
		if strings.HasPrefix(st.Name, "kio.sock") && strings.HasSuffix(st.Name, suffix) {
			n += st.Instrs
		}
	}
	return n
}
