// Command repose-serve runs the HTTP/JSON query gateway over a
// repose index: bounded-concurrency admission control, per-client
// rate limiting, a generation-keyed answer cache, and request
// coalescing in front of the engine (package repose/internal/serve).
//
// Usage:
//
//	repose-serve -dataset T-drive -scale 0.002 -addr :8080
//	repose-serve -data rides.csv -measure Frechet -addr :8080
//	repose-serve -dataset Xian -workers 127.0.0.1:7701,127.0.0.1:7702
//
// Endpoints:
//
//	POST /search   {"points":[[x,y],...],"k":10}
//	POST /radius   {"points":[[x,y],...],"radius":0.05}
//	GET  /healthz
//	GET  /metrics
//
// SIGINT/SIGTERM drains gracefully: new queries get 503 while
// in-flight requests finish (bounded by -drain-timeout).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repose"
	"repose/internal/dataset"
	"repose/internal/dist"
	"repose/internal/geo"
	"repose/internal/serve"
)

func main() {
	var (
		addr        = flag.String("addr", "127.0.0.1:8080", "HTTP listen address")
		data        = flag.String("data", "", "CSV dataset path (id,x1,y1,x2,y2,...)")
		dsName      = flag.String("dataset", "", "generate a synthetic dataset instead of -data")
		scale       = flag.Float64("scale", 1.0/512, "synthetic dataset scale")
		measureName = flag.String("measure", "Hausdorff", "Hausdorff|Frechet|DTW|LCSS|EDR|ERP")
		delta       = flag.Float64("delta", 0, "grid cell side δ (0 = span/64)")
		partitions  = flag.Int("partitions", 0, "partitions (0 = one per core)")
		workers     = flag.String("workers", "", "comma-separated worker addresses (empty = in-process)")
		replication = flag.Int("replication", 0, "remote replication factor (0/1 = off)")
		layoutName  = flag.String("layout", "", "per-partition index layout: pointer|compressed (empty = pointer)")

		maxConcurrent = flag.Int("max-concurrent", 0, "executing-query bound (0 = 2×NumCPU)")
		maxQueue      = flag.Int("max-queue", 0, "admission queue depth (0 = 4×max-concurrent)")
		rate          = flag.Float64("rate", 0, "per-client sustained requests/second (0 = unlimited)")
		burst         = flag.Int("burst", 0, "per-client burst size (0 = 2×rate)")
		cacheEntries  = flag.Int("cache-entries", 4096, "answer cache capacity (-1 disables)")
		batchWindow   = flag.Duration("batch-window", 2*time.Millisecond, "micro-batch collection window (-1ns disables batching)")
		maxBatch      = flag.Int("max-batch", 32, "dispatch a micro-batch early at this size")
		queryTimeout  = flag.Duration("query-timeout", 30*time.Second, "per-engine-call deadline")
		drainTimeout  = flag.Duration("drain-timeout", 30*time.Second, "graceful shutdown bound")
	)
	flag.Parse()
	log.SetPrefix("repose-serve: ")

	m, err := dist.ParseMeasure(*measureName)
	if err != nil {
		fail(err)
	}
	ds, err := loadData(*data, *dsName, *scale)
	if err != nil {
		fail(err)
	}

	layout, err := repose.ParseLayout(*layoutName)
	if err != nil {
		fail(err)
	}
	opts := repose.Options{Measure: m, Delta: *delta, Partitions: *partitions, Layout: layout}
	start := time.Now()
	var idx *repose.Index
	if *workers != "" {
		idx, err = repose.BuildRemote(ds, opts, strings.Split(*workers, ","), repose.WithReplication(*replication))
	} else {
		idx, err = repose.Build(ds, opts)
	}
	if err != nil {
		fail(err)
	}
	defer idx.Close()
	st := idx.Stats()
	log.Printf("built %s index (%v layout): %d trajectories, %d partitions, %.2f MB in %v",
		idx.Engine(), st.Layout, st.Trajectories, st.Partitions, float64(st.IndexBytes)/(1<<20), time.Since(start).Round(time.Millisecond))

	gw := serve.New(idx, serve.Config{
		MaxConcurrent: *maxConcurrent,
		MaxQueue:      *maxQueue,
		RatePerClient: *rate,
		Burst:         *burst,
		CacheEntries:  *cacheEntries,
		BatchWindow:   *batchWindow,
		MaxBatch:      *maxBatch,
		QueryTimeout:  *queryTimeout,
	})

	srv := &http.Server{Addr: *addr, Handler: gw.Handler()}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() {
		log.Printf("serving on http://%s (measure %v)", *addr, m)
		errc <- srv.ListenAndServe()
	}()

	select {
	case err := <-errc:
		fail(err)
	case <-ctx.Done():
	}

	log.Print("draining")
	dctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := gw.Shutdown(dctx); err != nil {
		log.Printf("drain incomplete: %v", err)
	}
	if err := srv.Shutdown(dctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("http shutdown: %v", err)
	}
	log.Print("stopped")
}

func loadData(path, name string, scale float64) ([]*geo.Trajectory, error) {
	switch {
	case path != "":
		return dataset.Load(path)
	case name != "":
		spec, err := dataset.ByName(name, scale)
		if err != nil {
			return nil, err
		}
		return dataset.Generate(spec), nil
	default:
		return nil, fmt.Errorf("one of -data or -dataset is required")
	}
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "repose-serve: %v\n", err)
	os.Exit(1)
}
