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
)

// benchResult is one micro-benchmark measurement. BaselineNsPerOp and
// Speedup are filled when a baseline file provides a result of the
// same name.
type benchResult struct {
	Name            string  `json:"name"`
	NsPerOp         float64 `json:"ns_per_op"`
	AllocsPerOp     int64   `json:"allocs_per_op"`
	BytesPerOp      int64   `json:"bytes_per_op"`
	QPS             float64 `json:"qps"`
	BaselineNsPerOp float64 `json:"baseline_ns_per_op,omitempty"`
	Speedup         float64 `json:"speedup,omitempty"`
}

// benchFile is the machine-readable bench report (BENCH_search.json).
type benchFile struct {
	Generated  string        `json:"generated"`
	Dataset    string        `json:"dataset"`
	Scale      float64       `json:"scale"`
	K          int           `json:"k"`
	Queries    int           `json:"queries"`
	Benchmarks []benchResult `json:"benchmarks"`
}

// runBenchJSON runs the query micro-benchmark suite on a synthetic
// dataset and writes the results as JSON. A baseline file (a previous
// run, or hand-recorded pre-change numbers) annotates each matching
// result with its old ns/op and the speedup factor.
func runBenchJSON(outPath, baselinePath, dsName string, scale float64, k int) error {
	spec, err := dataset.ByName(dsName, scale)
	if err != nil {
		return err
	}
	ds := dataset.Generate(spec)
	queries := dataset.Queries(ds, 10, 999)
	region := spec.Region()
	delta := dataset.DefaultDelta(dsName)

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
	radius := region.Max.Dist(region.Min) / 8
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
		fmt.Fprintf(os.Stderr, "%-28s %12.0f ns/op %8d allocs/op %10.0f qps\n",
			name, ns, res.AllocsPerOp, res.QPS)
	}

	record("Search/engine", 1, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			q := queries[i%len(queries)]
			if _, err := idx.Search(ctx, q, k); err != nil {
				b.Fatal(err)
			}
		}
	})
	record("SearchRadius/engine", 1, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			q := queries[i%len(queries)]
			if _, err := idx.SearchRadius(ctx, q, radius); err != nil {
				b.Fatal(err)
			}
		}
	})
	record("SearchBatch/engine", len(queries), func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := idx.SearchBatch(ctx, queries, k); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, m := range dist.Measures() {
		trie, err := buildTrie(m)
		if err != nil {
			return err
		}
		record("Search/trie/"+m.String(), 1, func(b *testing.B) {
			var out []repose.Result
			for _, q := range queries { // warm the pooled scratch
				out = trie.SearchAppend(out[:0], q.Points, k)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				q := queries[i%len(queries)]
				out = trie.SearchAppend(out[:0], q.Points, k)
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

// annotateBaseline fills baseline ns/op and speedup from an earlier
// report, matching results by name.
func annotateBaseline(report *benchFile, path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var base benchFile
	if err := json.Unmarshal(data, &base); err != nil {
		return err
	}
	byName := make(map[string]benchResult, len(base.Benchmarks))
	for _, r := range base.Benchmarks {
		byName[r.Name] = r
	}
	for i := range report.Benchmarks {
		b, ok := byName[report.Benchmarks[i].Name]
		if !ok || b.NsPerOp <= 0 {
			continue
		}
		report.Benchmarks[i].BaselineNsPerOp = b.NsPerOp
		if report.Benchmarks[i].NsPerOp > 0 {
			report.Benchmarks[i].Speedup = b.NsPerOp / report.Benchmarks[i].NsPerOp
		}
	}
	return nil
}
