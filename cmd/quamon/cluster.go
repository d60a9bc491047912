// Cluster mode: `quamon -cluster` boots an N-Quamachine fleet on the
// switch fabric (internal/cluster), drives it with the host load
// generator, and streams wall-clock metric windows in the same format
// as -watch. With -listen the live fleet is scrapeable over HTTP
// while it runs:
//
//	GET /metrics       Prometheus text exposition
//	GET /metrics.json  the same snapshot as JSON
//	GET /healthz       200 while the fleet is healthy, 503 with the error after a VM dies
//	GET /trace.json    the merged fleet Chrome trace (load in ui.perfetto.dev)
//
// Cluster windows are wall time, not simulated time: the fleet runs
// on real goroutines and the load generator stamps RTTs with the host
// clock. With -windows 0 the fleet runs until interrupted (^C), which
// is the mode to pair with -listen and an external scraper.
//
// -trace-every N arms the fleet trace plane (1-in-N request
// sampling); -trace-json then writes the merged Chrome trace at exit,
// and /trace.json serves it live. -flight arms the per-VM flight
// recorder: if a guest dies, its dump goes to stderr.
package main

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"time"

	"synthesis/internal/cluster"
	"synthesis/internal/fault"
)

// clusterOpts carries the -cluster flag set.
type clusterOpts struct {
	vms, conns, churn int
	seed              int64
	listen            string
	intervalUS        float64
	windows           int
	metricsJSON, prom string
	faults            fault.Plan
	timeout           time.Duration
	maxResends        int
	traceEvery        int
	traceJSON         string
	flight            bool
}

// clusterMux serves the live cluster's observability surface.
// Snapshot() quiesces each VM briefly, so every scrape is a coherent
// fleet-wide view; WriteTrace holds the same locks per VM while
// mapping its timeline.
func clusterMux(c *cluster.Cluster) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := c.Snapshot().WritePrometheus(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if err := c.Snapshot().WriteJSON(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if err := c.Err(); err != nil {
			http.Error(w, fmt.Sprintf("unhealthy: %v", err), http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/trace.json", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if err := c.WriteTrace(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	return mux
}

func runCluster(o clusterOpts) int {
	// Long-running monitoring defaults to patient clients for the same
	// reason the cluster bench table does: under heavy load the
	// queueing RTT can exceed an impatient resend timeout, and the
	// resulting resend storm is congestion collapse, not insight.
	// -timeout and -max-resends override for fault experiments.
	c := cluster.New(cluster.Config{
		VMs:        o.vms,
		Conns:      o.conns,
		Timeout:    o.timeout,
		MaxResends: o.maxResends,
		ChurnEvery: o.churn,
		Seed:       o.seed,
		Faults:     o.faults,
		TraceEvery: o.traceEvery,
		Flight:     o.flight,
	})
	c.Start()
	defer c.Stop()

	if o.listen != "" {
		srv := &http.Server{Addr: o.listen, Handler: clusterMux(c)}
		go func() {
			if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				fmt.Fprintf(os.Stderr, "quamon: -listen: %v\n", err)
			}
		}()
		// Drain in-flight scrapes before exiting — a scraper mid-GET
		// at shutdown gets its response, not a reset connection.
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			if err := srv.Shutdown(ctx); err != nil {
				srv.Close()
			}
		}()
		fmt.Printf("serving fleet metrics on http://%s/metrics (also /metrics.json /healthz /trace.json)\n", o.listen)
	}

	// finish exports the final snapshot and, when armed, the merged
	// fleet trace — every exit path (window count, ^C, VM death) runs
	// through it so a traced run never loses its trace.
	finish := func(rc int) int {
		if o.traceJSON != "" {
			f, err := os.Create(o.traceJSON)
			if err != nil {
				fmt.Fprintf(os.Stderr, "quamon: %v\n", err)
				return 1
			}
			err = c.WriteTrace(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "quamon: trace export: %v\n", err)
				return 1
			}
			sampled, completed, _, _ := c.TraceCounts()
			fmt.Printf("merged fleet trace written to %s (%d/%d sampled requests completed; load in ui.perfetto.dev)\n",
				o.traceJSON, completed, sampled)
		}
		if erc := exportSnapshot(c.Snapshot(), o.metricsJSON, o.prom); erc != 0 {
			return erc
		}
		return rc
	}

	interrupt := make(chan os.Signal, 1)
	signal.Notify(interrupt, os.Interrupt)
	defer signal.Stop(interrupt)

	interval := time.Duration(o.intervalUS) * time.Microsecond
	if interval <= 0 {
		interval = 500 * time.Millisecond
	}
	if o.windows > 0 {
		fmt.Printf("cluster: %d VM(s), %d connection(s), %d windows of %v wall\n\n",
			o.vms, o.conns, o.windows, interval)
	} else {
		fmt.Printf("cluster: %d VM(s), %d connection(s), windows of %v wall until interrupted\n\n",
			o.vms, o.conns, interval)
	}

	tick := time.NewTicker(interval)
	defer tick.Stop()
	prev := c.Snapshot()
	for w := 1; o.windows <= 0 || w <= o.windows; w++ {
		select {
		case <-tick.C:
		case <-interrupt:
			fmt.Println("interrupted")
			return finish(0)
		}
		if err := c.Err(); err != nil {
			fmt.Fprintf(os.Stderr, "quamon: cluster: %v\n", err)
			if o.flight {
				// The flight recorder captured the dying VM's tail at
				// the moment of failure; the post-mortem goes with the
				// error, not into a file the operator must know about.
				c.DumpFlight(os.Stderr)
			}
			finish(1)
			return 1
		}
		snap := c.Snapshot()
		printWindow(w, snap, snap.Delta(prev))
		prev = snap
	}
	return finish(0)
}
