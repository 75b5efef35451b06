package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"testing"
	"time"

	"repose"
	"repose/internal/dataset"
	"repose/internal/dist"
	"repose/internal/geo"
	"repose/internal/grid"
	"repose/internal/pivot"
	"repose/internal/rptrie"
	"repose/internal/topk"
)

// attachBenchTimes timestamps three quarters of the dataset with a
// deterministic ascending clock (sample j of trajectory i gets
// i*7 + j*60), leaving every fourth trajectory untimestamped so the
// windowed benchmarks also exercise the never-matches path.
func attachBenchTimes(ds []*geo.Trajectory) {
	for i, tr := range ds {
		if i%4 == 3 {
			continue
		}
		ts := make([]int64, len(tr.Points))
		for j := range ts {
			ts[j] = int64(i%7) + int64(j)*60
		}
		tr.Times = ts
	}
}

// runBenchSub runs the refined-query micro-benchmark suite —
// subtrajectory top-k, time-windowed top-k, and their combination —
// at the engine level plus the single-partition trie hot path per
// measure, writing BENCH_subtraj.json in the same shape as the plain
// -benchjson report (so -baseline works across the two suites).
func runBenchSub(outPath, baselinePath, dsName string, scale float64, k int) error {
	spec, err := dataset.ByName(dsName, scale)
	if err != nil {
		return err
	}
	ds := dataset.Generate(spec)
	attachBenchTimes(ds)
	queries := dataset.Queries(ds, 10, 999)
	region := spec.Region()
	delta := dataset.DefaultDelta(dsName)

	// The window spans the middle of every timestamped trajectory's
	// clock: refinement does real work instead of degenerating to
	// all-match or none-match.
	const winFrom, winTo = 120, 900

	idx, err := repose.Build(ds, repose.Options{Partitions: 8, Delta: delta})
	if err != nil {
		return err
	}
	defer idx.Close()

	g, err := grid.New(region, delta)
	if err != nil {
		return err
	}
	params := dist.Params{Epsilon: dist.DefaultParams(region).Epsilon, Gap: region.Min}
	buildTrie := func(m dist.Measure) (*rptrie.Index, error) {
		var pivots []*geo.Trajectory
		if m.IsMetric() {
			pivots = pivot.Select(ds, 5, pivot.DefaultGroups, m, params, 13)
		}
		return rptrie.Build(rptrie.Config{
			Measure: m, Params: params, Grid: g, Pivots: pivots,
			Optimize: m.OrderIndependent(),
		}, ds)
	}

	ctx := context.Background()
	report := benchFile{
		Generated: time.Now().UTC().Format(time.RFC3339),
		Dataset:   dsName,
		Scale:     scale,
		K:         k,
		Queries:   len(queries),
	}

	record := func(name string, queriesPerOp int, fn func(b *testing.B)) {
		r := testing.Benchmark(fn)
		ns := float64(r.NsPerOp())
		res := benchResult{
			Name:        name,
			NsPerOp:     ns,
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
		}
		if ns > 0 {
			res.QPS = float64(queriesPerOp) * 1e9 / ns
		}
		report.Benchmarks = append(report.Benchmarks, res)
		fmt.Fprintf(os.Stderr, "%-32s %12.0f ns/op %8d allocs/op %10.0f qps\n",
			name, ns, res.AllocsPerOp, res.QPS)
	}

	record("SearchSub/engine", 1, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			q := queries[i%len(queries)]
			if _, err := idx.SearchSub(ctx, q, k); err != nil {
				b.Fatal(err)
			}
		}
	})
	record("SearchSub+window/engine", 1, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			q := queries[i%len(queries)]
			if _, err := idx.SearchSub(ctx, q, k, repose.WithTimeWindow(winFrom, winTo)); err != nil {
				b.Fatal(err)
			}
		}
	})
	record("Search+window/engine", 1, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			q := queries[i%len(queries)]
			if _, err := idx.Search(ctx, q, k, repose.WithTimeWindow(winFrom, winTo)); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, m := range dist.Measures() {
		trie, err := buildTrie(m)
		if err != nil {
			return err
		}
		ref := rptrie.NewRefiner(m, params, rptrie.RefineSpec{Sub: true})
		record("SearchSub/trie/"+m.String(), 1, func(b *testing.B) {
			opt := rptrie.SearchOptions{Refiner: ref}
			var out []topk.Item
			var err error
			for _, q := range queries { // warm the pooled scratch
				if out, err = trie.SearchAppendContext(ctx, out[:0], q.Points, k, opt); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				q := queries[i%len(queries)]
				if out, err = trie.SearchAppendContext(ctx, out[:0], q.Points, k, opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}

	if baselinePath != "" {
		if err := annotateBaseline(&report, baselinePath); err != nil {
			fmt.Fprintf(os.Stderr, "repose-bench: baseline %s ignored: %v\n", baselinePath, err)
		}
	}
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(outPath, append(data, '\n'), 0o644)
}
