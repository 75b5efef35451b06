package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"testing"
	"time"

	"repose/internal/dataset"
	"repose/internal/dist"
	"repose/internal/geo"
	"repose/internal/grid"
	"repose/internal/pivot"
	"repose/internal/rptrie"
	"repose/internal/topk"
)

// memFile is the BENCH_memory.json shape: per-layout footprint and
// latency over one shared dataset, plus the headline ratios.
type memFile struct {
	Generated string  `json:"generated"`
	Dataset   string  `json:"dataset"`
	Scale     float64 `json:"scale"`
	Delta     float64 `json:"delta"`
	K         int     `json:"k"`
	Queries   int     `json:"queries"`
	Nodes     int     `json:"trie_nodes"`

	Layouts []memLayout `json:"layouts"`
	Ratios  memRatios   `json:"ratios"`
}

type memLayout struct {
	Layout string `json:"layout"`
	// IndexBytes is the live in-memory footprint of the index
	// structure (SizeBytes, excluding raw trajectories).
	IndexBytes int `json:"index_bytes"`
	// ImageBytes is the Save image size — what a Snapshot/Restore
	// failover transfer or a durable checkpoint ships.
	ImageBytes        int     `json:"image_bytes"`
	SearchNsPerOp     float64 `json:"search_ns_per_op"`
	SearchAllocsPerOp int64   `json:"search_allocs_per_op"`
	// BitIdentical reports that this layout answered every query with
	// exactly the pointer layout's results.
	BitIdentical bool `json:"bit_identical_to_pointer"`
}

type memRatios struct {
	IndexPointerOverCompressed  float64 `json:"index_pointer_over_compressed"`
	ImagePointerOverCompressed  float64 `json:"image_pointer_over_compressed"`
	SearchCompressedOverPointer float64 `json:"search_compressed_over_pointer"`
}

// runBenchMemory builds the same partition under both layouts and
// records index bytes, snapshot image bytes, and top-k search latency
// (BENCH_memory.json). Every layout's results are checked query by
// query against the pointer layout: the memory savings come at zero
// answer drift, which is what makes the layouts interchangeable.
//
// delta sets the grid cell size; 0 means the dataset's experiment
// default. The default for -memjson is finer than DefaultDelta: index
// layout only matters in the fine-grid regime where the trie is a
// material fraction of the partition, which is exactly when an
// operator would reach for LayoutCompressed.
func runBenchMemory(outPath, dsName string, scale, delta float64, k int) error {
	spec, err := dataset.ByName(dsName, scale)
	if err != nil {
		return err
	}
	ds := dataset.Generate(spec)
	queries := dataset.Queries(ds, 10, 999)
	region := spec.Region()
	if delta == 0 {
		delta = dataset.DefaultDelta(dsName)
	}
	g, err := grid.New(region, delta)
	if err != nil {
		return err
	}
	params := dist.Params{Epsilon: dist.DefaultParams(region).Epsilon, Gap: region.Min}
	cfg := rptrie.Config{
		Measure: dist.Hausdorff, Params: params, Grid: g,
		Pivots:   pivot.Select(ds, 5, pivot.DefaultGroups, dist.Hausdorff, params, 13),
		Optimize: true,
	}

	trie, err := rptrie.Build(cfg, ds)
	if err != nil {
		return err
	}
	cmp, err := rptrie.CompressTST(trie)
	if err != nil {
		return err
	}

	// The pointer layout's answers are the reference.
	want := make([][]topk.Item, len(queries))
	for i, q := range queries {
		want[i] = trie.Search(q.Points, k)
	}

	report := memFile{
		Generated: time.Now().UTC().Format(time.RFC3339),
		Dataset:   dsName,
		Scale:     scale,
		Delta:     delta,
		K:         k,
		Queries:   len(queries),
		Nodes:     cmp.NumNodes(),
	}

	type layoutCase struct {
		name   string
		size   func() int
		save   func(io.Writer) error
		search func(dst []topk.Item, pts []geo.Point, k int) []topk.Item
	}
	cases := []layoutCase{
		{"pointer", trie.SizeBytes, trie.Save, trie.SearchAppend},
		{"compressed", cmp.SizeBytes, cmp.Save, cmp.SearchAppend},
	}

	byName := map[string]*memLayout{}
	for _, c := range cases {
		var image bytes.Buffer
		if err := c.save(&image); err != nil {
			return fmt.Errorf("%s: save: %w", c.name, err)
		}
		identical := true
		var out []topk.Item
		for i, q := range queries {
			out = c.search(out[:0], q.Points, k)
			if len(out) != len(want[i]) {
				identical = false
				break
			}
			for j := range out {
				if out[j] != want[i][j] {
					identical = false
					break
				}
			}
		}
		r := testing.Benchmark(func(b *testing.B) {
			var out []topk.Item
			for _, q := range queries { // warm the pooled scratch
				out = c.search(out[:0], q.Points, k)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				q := queries[i%len(queries)]
				out = c.search(out[:0], q.Points, k)
			}
		})
		l := memLayout{
			Layout:            c.name,
			IndexBytes:        c.size(),
			ImageBytes:        image.Len(),
			SearchNsPerOp:     float64(r.NsPerOp()),
			SearchAllocsPerOp: r.AllocsPerOp(),
			BitIdentical:      identical,
		}
		report.Layouts = append(report.Layouts, l)
		byName[c.name] = &report.Layouts[len(report.Layouts)-1]
		fmt.Fprintf(os.Stderr, "%-10s index %9d B  image %9d B  search %10.0f ns/op %4d allocs/op  bit-identical=%v\n",
			c.name, l.IndexBytes, l.ImageBytes, l.SearchNsPerOp, l.SearchAllocsPerOp, identical)
	}

	p, c := byName["pointer"], byName["compressed"]
	report.Ratios = memRatios{
		IndexPointerOverCompressed:  ratio(p.IndexBytes, c.IndexBytes),
		ImagePointerOverCompressed:  ratio(p.ImageBytes, c.ImageBytes),
		SearchCompressedOverPointer: c.SearchNsPerOp / p.SearchNsPerOp,
	}
	fmt.Fprintf(os.Stderr, "index pointer/compressed = %.2fx  image pointer/compressed = %.2fx  search compressed/pointer = %.2fx\n",
		report.Ratios.IndexPointerOverCompressed, report.Ratios.ImagePointerOverCompressed,
		report.Ratios.SearchCompressedOverPointer)

	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(outPath, append(data, '\n'), 0o644)
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
