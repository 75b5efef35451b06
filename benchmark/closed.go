package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"repose"
	"repose/internal/geo"
)

// The operations a closed-loop client sends.
const (
	opSearch = "search"
	opRadius = "radius"
	opBatch  = "batch"
)

// batchSize is the number of queries in one SearchBatch operation.
const batchSize = 4

// clusterAgg accumulates the engine's QueryReports of top-k searches.
type clusterAgg struct {
	wall, max, sum, dispatch []time.Duration
	imbalance                []float64
}

func (a *clusterAgg) add(rep repose.QueryReport) {
	a.wall = append(a.wall, rep.Wall)
	a.max = append(a.max, rep.MaxPartition)
	a.sum = append(a.sum, rep.SumPartition)
	a.dispatch = append(a.dispatch, rep.Wall-rep.MaxPartition)
	a.imbalance = append(a.imbalance, rep.Imbalance())
}

// report sets the cluster.* metrics; on a remote engine the partition
// times are the workers' own, so Wall − MaxPartition is the RPC and
// driver-side overhead.
func (a *clusterAgg) report(r *run, remote bool) {
	r.set("cluster.wall_ms_p50", ms(pct(a.wall, 0.5)))
	r.set("cluster.scan_sum_ms", ms(mean(a.sum)))
	r.set("cluster.scan_max_ms", ms(pct(a.max, 0.5)))
	var imb float64
	for _, x := range a.imbalance {
		imb += x
	}
	r.set("cluster.imbalance", ratio(imb, float64(len(a.imbalance))))
	r.set("cluster.dispatch_ms", ms(pct(a.dispatch, 0.5)))
	if remote {
		r.set("cluster.rpc_overhead_ms", ms(pct(a.dispatch, 0.5)))
	}
}

// closedLoad is one closed-loop phase's outcome.
type closedLoad struct {
	search   []timed // each answered top-k Search op
	answered []timed // each answered op; a batch answers batchSize queries
	queries  int64   // queries answered
	topk     int64   // top-k queries answered (Search and batch members)
	sent     int64
	failed   int64
	elapsed  time.Duration
	mallocs  uint64
	clusters clusterAgg // from QueryReport, traced phases only
}

// closedLoop runs one client that sends its next operation only when
// the previous one has returned, for dur. mix picks each operation;
// queries are drawn uniformly from held. The first sample[kind]
// answers of each kind are appended to checks for the oracle. With a
// tracer every facade call is a span with per-partition children.
func (r *run) closedLoop(idx *repose.Index, held []*geo.Trajectory, mix func(*rand.Rand) string, dur time.Duration, tr *tracer, salt int64, sample map[string]int, checks *[]check) closedLoad {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(r.seed*31 + salt))
	var out closedLoad
	taken := map[string]int{}
	keep := func(kind string, op int, q *geo.Trajectory, got []repose.Result) {
		if taken[kind] < sample[kind] {
			*checks = append(*checks, check{kind: kind, op: op, q: q, got: got})
		}
	}
	fail := func(op int, kind string, err error) {
		out.failed++
		r.op(err)
		if out.failed <= 3 {
			fmt.Printf("FAILED workload=%s seed=%d op=%d kind=%s: %v\n", r.workload, r.seed, op, kind, err)
		}
	}

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	deadline := start.Add(dur)
	for op := 0; time.Now().Before(deadline); op++ {
		kind := mix(rng)
		out.sent++
		var rep repose.QueryReport
		var qopts []repose.QueryOption
		if tr != nil {
			qopts = append(qopts, repose.WithReport(&rep))
		}
		switch kind {
		case opSearch:
			q := held[rng.Intn(len(held))]
			t0 := time.Now()
			res, err := idx.Search(ctx, q, k, qopts...)
			t1 := time.Now()
			if err != nil {
				fail(op, kind, err)
				continue
			}
			r.op(nil)
			out.search = append(out.search, timed{at: t1.Sub(start), lat: t1.Sub(t0), n: 1})
			out.answered = append(out.answered, timed{at: t1.Sub(start), n: 1})
			out.queries++
			out.topk++
			keep(kind, op, q, res)
			if tr != nil {
				id := tr.newID()
				tr.record(id, 0, id, "cluster.search", t0, t1)
				tr.partitions(id, id, t0, rep.PartitionTimes)
				out.clusters.add(rep)
			}
		case opRadius:
			q := held[rng.Intn(len(held))]
			t0 := time.Now()
			res, err := idx.SearchRadius(ctx, q, radius, qopts...)
			t1 := time.Now()
			if err != nil {
				fail(op, kind, err)
				continue
			}
			r.op(nil)
			out.answered = append(out.answered, timed{at: t1.Sub(start), n: 1})
			out.queries++
			keep(kind, op, q, res)
			if tr != nil {
				id := tr.newID()
				tr.record(id, 0, id, "cluster.radius", t0, t1)
				tr.partitions(id, id, t0, rep.PartitionTimes)
			}
		case opBatch:
			qs := make([]*geo.Trajectory, batchSize)
			for i := range qs {
				qs[i] = held[rng.Intn(len(held))]
			}
			t0 := time.Now()
			res, err := idx.SearchBatch(ctx, qs, k)
			t1 := time.Now()
			if err != nil {
				fail(op, kind, err)
				continue
			}
			r.op(nil)
			out.answered = append(out.answered, timed{at: t1.Sub(start), n: batchSize})
			out.queries += batchSize
			out.topk += batchSize
			if taken[kind] < sample[kind] {
				for i, q := range qs {
					*checks = append(*checks, check{kind: opSearch, op: op, q: q, got: res[i]})
				}
			}
			if tr != nil {
				id := tr.newID()
				tr.record(id, 0, id, "cluster.batch", t0, t1)
			}
		}
		taken[kind]++
	}
	out.elapsed = time.Since(start)
	runtime.ReadMemStats(&ms1)
	out.mallocs = ms1.Mallocs - ms0.Mallocs
	return out
}

// merge adds ld, a phase that started off into the merged phases, to a.
func (a *closedLoad) merge(ld closedLoad, off time.Duration) {
	for _, t := range ld.search {
		t.at += off
		a.search = append(a.search, t)
	}
	for _, t := range ld.answered {
		t.at += off
		a.answered = append(a.answered, t)
	}
	a.queries += ld.queries
	a.topk += ld.topk
	a.sent += ld.sent
	a.failed += ld.failed
	a.elapsed += ld.elapsed
	a.mallocs += ld.mallocs
	c := &a.clusters
	c.wall = append(c.wall, ld.clusters.wall...)
	c.max = append(c.max, ld.clusters.max...)
	c.sum = append(c.sum, ld.clusters.sum...)
	c.dispatch = append(c.dispatch, ld.clusters.dispatch...)
	c.imbalance = append(c.imbalance, ld.clusters.imbalance...)
}

// queryWorkload runs the closed-loop load of the local and remote
// workloads. An untraced run measures the whole time. A traced run
// alternates untraced and traced windows (see tracePairs), takes the
// per-layer metrics from the traced ones and the latency and rate
// figures from the untraced ones. Sampled answers are checked against
// the oracle after the load.
func (r *run) queryWorkload(idx *repose.Index, in *inputs, mix func(*rand.Rand) string, sample map[string]int, remote bool) error {
	var checks []check
	var base closedLoad
	dur := r.dur
	if !r.traced {
		base = r.closedLoop(idx, in.held, mix, dur, nil, 1, sample, &checks)
	} else {
		tr := newTracer()
		win := r.dur / (2 * tracePairs)
		dur = win * tracePairs
		var traced closedLoad
		var diffs []float64
		for p := 0; p < tracePairs; p++ {
			var off, on closedLoad
			for _, traceOn := range pairOrder(p) {
				salt := int64(10 + p) // the same queries in both windows
				if traceOn {
					on = r.closedLoop(idx, in.held, mix, win, tr, salt, nil, nil)
					continue
				}
				want := sample
				if p > 0 {
					want = nil
				}
				off = r.closedLoop(idx, in.held, mix, win, nil, salt, want, &checks)
			}
			diffs = append(diffs, ms(windowPct(on.search, win, 0.5))-ms(windowPct(off.search, win, 0.5)))
			base.merge(off, time.Duration(p)*win)
			traced.merge(on, time.Duration(p)*win)
		}
		r.set("trace.overhead_ms", median(diffs))
		traced.clusters.report(r, remote)
		if remote {
			// Counted over the untraced windows: span recording allocates.
			r.set("cluster.rpc_allocs_per_search", ratio(float64(base.mallocs), float64(base.topk)))
		}
		if err := r.finishTrace(tr); err != nil {
			return err
		}
	}
	r.set("query_p50_ms", ms(windowPct(base.search, dur, 0.5)))
	r.set("query_p99_ms", ms(windowPct(base.search, dur, 0.99)))
	r.set("qps", windowRate(base.answered, dur))
	r.set("loadgen.sent", float64(base.sent))
	r.set("loadgen.succeeded", float64(base.sent-base.failed))
	r.set("loadgen.failed", float64(base.failed))
	fmt.Printf("load: %d ops, %d queries, %d failed in %.2fs (closed loop, 1 client)\n", base.sent, base.queries, base.failed, base.elapsed.Seconds())
	if r.traced {
		if err := r.probeLayers(idx, in); err != nil {
			return err
		}
	}
	r.verify(in.opts.Measure, in.params, in.indexed, checks)
	return nil
}
