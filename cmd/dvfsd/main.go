// Command dvfsd serves the DVFS strategy pipeline over HTTP: operator
// traces in, generated frequency strategies with predicted
// energy/perf deltas out. See internal/server for the API and
// DESIGN.md §8 for how the endpoints map onto the paper's Fig. 1
// pipeline.
//
// Usage:
//
//	dvfsd -addr 127.0.0.1:7077 -workers 2
//	dvfsd -addr 127.0.0.1:0 -addr-file /tmp/dvfsd.addr -load-models resnet50.models.json
//	dvfsd -addr 127.0.0.1:7071 -ring ring.json -node-id n1 -store /var/lib/dvfsd/n1
//
// With -ring and -node-id the daemon joins a consistent-hash cluster:
// it serves the strategies the ring assigns to it and proxies the rest
// to their owners (DESIGN.md §12). With -store it persists every
// acknowledged job to disk and re-enqueues unfinished ones on restart.
//
// The daemon shuts down gracefully on SIGINT/SIGTERM: it stops
// accepting jobs, drains in-flight searches up to -drain, then
// force-cancels whatever remains (searches unwind at GA generation
// boundaries, within milliseconds).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	_ "net/http/pprof" // /debug/pprof handlers on the -pprof listener
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"npudvfs/internal/cluster/jobstore"
	"npudvfs/internal/cluster/ring"
	"npudvfs/internal/pipeline"
	"npudvfs/internal/server"
	"npudvfs/internal/traceio"
)

// Connection hygiene for a daemon that faces clients it does not
// control: a peer that never finishes its request headers, or parks an
// idle keep-alive connection, is dropped. There is deliberately no
// ReadTimeout/WriteTimeout — those would cut an MB-scale trace upload
// or strategy download on a slow link mid-body.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7077", "listen address (port 0 picks a free port)")
	addrFile := flag.String("addr-file", "", "write the bound address to this file once listening")
	workers := flag.Int("workers", 2, "concurrent strategy searches")
	queue := flag.Int("queue", 16, "queued jobs beyond the workers before submissions get 503")
	cacheSize := flag.Int("cache", 128, "strategy LRU capacity")
	timeout := flag.Duration("timeout", 10*time.Minute, "default per-job search deadline")
	drain := flag.Duration("drain", time.Minute, "shutdown drain budget before force-cancelling")
	loadModels := flag.String("load-models", "",
		"comma-separated model bundle files (dvfs-run -save-models); jobs for these workloads skip calibration and profiling")
	pprofAddr := flag.String("pprof", "",
		"serve net/http/pprof on this address (e.g. 127.0.0.1:6060); empty disables profiling")
	ringFile := flag.String("ring", "", "cluster ring file (ring.Save format); empty runs single-node")
	nodeID := flag.String("node-id", "", "this daemon's ring member ID; required with -ring")
	storeDir := flag.String("store", "", "durable job-store directory; empty keeps jobs in memory only")
	flag.Parse()

	if *pprofAddr != "" {
		pln, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			fatal(fmt.Errorf("pprof listener: %w", err))
		}
		fmt.Printf("dvfsd: pprof on http://%s/debug/pprof/\n", pln.Addr())
		// The profiling listener lives for the whole process; it is
		// torn down by process exit, not by the drain sequence.
		//lint:allow goleak process-lifetime pprof listener; profiling must outlive the drain to observe it
		go func() {
			// net/http/pprof registers on http.DefaultServeMux.
			if err := http.Serve(pln, nil); err != nil && !errors.Is(err, net.ErrClosed) {
				fmt.Fprintln(os.Stderr, "dvfsd: pprof server:", err)
			}
		}()
	}

	bundles, err := loadBundles(*loadModels)
	if err != nil {
		fatal(err)
	}

	var r *ring.Ring
	if *ringFile != "" {
		r, err = ring.Load(*ringFile)
		if err != nil {
			fatal(err)
		}
	}
	var store jobstore.Store
	if *storeDir != "" {
		prefix := ""
		if *nodeID != "" {
			prefix = *nodeID + "-"
		}
		store, err = jobstore.OpenFS(*storeDir, server.Retention(*workers, *queue), prefix)
		if err != nil {
			fatal(err)
		}
		if n := len(store.Pending()); n > 0 {
			fmt.Printf("dvfsd: recovered %d unfinished job(s) from %s\n", n, *storeDir)
		}
	}

	srv, err := server.New(server.Config{
		Workers:        *workers,
		QueueDepth:     *queue,
		CacheSize:      *cacheSize,
		DefaultTimeout: *timeout,
		Lab:            pipeline.NewLab(),
		Bundles:        bundles,
		Ring:           r,
		NodeID:         *nodeID,
		Store:          store,
	})
	if err != nil {
		fatal(err)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	bound := ln.Addr().String()
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(bound), 0o644); err != nil {
			fatal(err)
		}
	}
	fmt.Printf("dvfsd: listening on %s (%d workers, queue %d, cache %d)\n",
		bound, *workers, *queue, *cacheSize)
	if r != nil {
		fmt.Printf("dvfsd: cluster node %s in a %d-node ring\n", *nodeID, r.Len())
	}
	for name := range bundles {
		fmt.Printf("dvfsd: warm models loaded for %s\n", name)
	}

	httpSrv := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case s := <-sig:
		fmt.Printf("dvfsd: %s, draining (budget %s)\n", s, *drain)
	case err := <-serveErr:
		fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	_ = httpSrv.Shutdown(ctx)
	if err := srv.Shutdown(ctx); err != nil {
		fmt.Println("dvfsd: drain budget exceeded; in-flight searches force-cancelled")
	} else {
		fmt.Println("dvfsd: drained cleanly")
	}
	if err := <-serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fatal(err)
	}
}

func loadBundles(paths string) (map[string]*traceio.ModelBundle, error) {
	if strings.TrimSpace(paths) == "" {
		return nil, nil
	}
	out := make(map[string]*traceio.ModelBundle)
	for _, p := range strings.Split(paths, ",") {
		p = strings.TrimSpace(p)
		if p == "" {
			continue
		}
		b, err := traceio.LoadModels(p)
		if err != nil {
			return nil, fmt.Errorf("loading models %s: %w", p, err)
		}
		if b.Workload == "" {
			return nil, fmt.Errorf("bundle %s names no workload", p)
		}
		out[strings.ToLower(b.Workload)] = b
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dvfsd:", err)
	os.Exit(1)
}
