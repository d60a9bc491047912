package cluster

import (
	"fmt"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"synthesis/internal/net"
)

// TestDiag is a manual diagnostic, enabled via CLUSTER_DIAG="vms conns".
func TestDiag(t *testing.T) {
	spec := os.Getenv("CLUSTER_DIAG")
	if spec == "" {
		t.Skip("set CLUSTER_DIAG=\"<vms> <conns>\" to run")
	}
	var vms, conns int
	fmt.Sscanf(spec, "%d %d", &vms, &conns)
	_ = strconv.IntSize
	c := New(Config{
		VMs: vms, SocketsPerVM: 8, Conns: conns, PayloadBytes: 64, Seed: 1,
		Timeout: 500 * time.Millisecond,
	})
	var mu sync.Mutex
	logged := 0
	var arm atomic.Bool
	for _, vm := range c.VMs() {
		vm := vm
		orig := vm.K.Net.Tx
		vm.K.Net.Tx = func(b []byte) bool {
			mu.Lock()
			if arm.Load() && logged < 40 {
				f, ok := net.DecodeFrame(b)
				t.Logf("tx vm%d ok=%v dst=%08x src=%08x plen=%d pfx=% x",
					vm.ID, ok, f.Dst, f.Src, len(f.Payload), f.Payload[:min(12, len(f.Payload))])
				logged++
			}
			mu.Unlock()
			return orig(b)
		}
	}
	c.Start()
	time.Sleep(900 * time.Millisecond)
	arm.Store(true)
	time.Sleep(100 * time.Millisecond)
	for snap := 0; snap < 4; snap++ {
		for _, vm := range c.VMs() {
			vm.mu.Lock()
			t.Logf("vm%d nic: rxPend=%d txLaunched=%d drops=%d ingress=%d",
				vm.ID, vm.K.Net.RxPending(), vm.K.Net.TxLaunched(), vm.K.Net.Dropped(), vm.ingress.Len())
			for _, s := range vm.IO.NetSockets() {
				m := vm.K.M
				t.Logf("  sock %#x q=%#x head=%d tail=%d gauge=%d drops=%d errs=%d txfail=%d",
					s.Port, s.Queue,
					m.Peek(s.Queue+0, 4), m.Peek(s.Queue+4, 4),
					m.Peek(s.Queue+12, 4), m.Peek(s.Queue+16, 4),
					m.Peek(s.Queue+20, 4), m.Peek(s.Queue+24, 4))
			}
			vm.mu.Unlock()
		}
		time.Sleep(50 * time.Millisecond)
	}
	s0 := c.Snapshot()
	time.Sleep(500 * time.Millisecond)
	s1 := c.Snapshot()
	c.Stop()
	if err := c.Err(); err != nil {
		t.Log("ERR:", err)
	}
	d := s1.Delta(s0)
	var names []string
	for n := range s1.Counters {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		t.Logf("%-44s total=%-10d delta=%d", n, s1.Counters[n], d.Counters[n])
	}
	rtt := d.Hists["cluster.loadgen.rtt_us"]
	t.Logf("rtt count=%d p50=%.0f p99=%.0f", rtt.Count, rtt.Quantile(0.50), rtt.Quantile(0.99))
}
