package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repose/internal/dataset"
	"repose/internal/dist"
	"repose/internal/grid"
	"repose/internal/pivot"
	"repose/internal/rptrie"
)

// runBenchStorage measures the three ways a partition comes back after
// its process dies, for each trie layout (BENCH_storage.json):
//
//   - coldstart/rebuild: reindex the dataset from trajectories already
//     in memory — what a non-durable worker pays on every restart,
//     assuming something else preserved the data.
//   - coldstart/walreplay: rptrie.OpenDurable on a data directory —
//     load the newest checkpoint image and replay the WAL tail. This
//     is the -data-dir restart path.
//   - coldstart/restore: decode a peer's Save image — the receiver
//     side of the PR 5 Snapshot/Restore heal (shipping the bytes over
//     the wire comes on top of this).
//
// Every measurement includes one warm-up query so partially built
// lazy state cannot hide in the numbers.
func runBenchStorage(outPath, dsName string, scale float64, k int) error {
	spec, err := dataset.ByName(dsName, scale)
	if err != nil {
		return err
	}
	ds := dataset.Generate(spec)
	queries := dataset.Queries(ds, 4, 999)
	region := spec.Region()

	g, err := grid.New(region, dataset.DefaultDelta(dsName))
	if err != nil {
		return err
	}
	params := dist.Params{Epsilon: dist.DefaultParams(region).Epsilon, Gap: region.Min}
	cfg := rptrie.Config{
		Measure: dist.Hausdorff, Params: params, Grid: g,
		Pivots:   pivot.Select(ds, 5, pivot.DefaultGroups, dist.Hausdorff, params, 13),
		Optimize: true,
	}

	// The mutation tail a restart must replay: half the build set is
	// inserted after the initial checkpoint, in small batches, so the
	// WAL carries a realistic record count instead of one fat batch.
	half := len(ds) / 2
	base, tail := ds[:half], ds[half:]

	report := benchFile{
		Generated: time.Now().UTC().Format(time.RFC3339),
		Dataset:   dsName,
		Scale:     scale,
		K:         k,
		Queries:   len(queries),
	}
	record := func(name string, fn func(b *testing.B)) {
		r := testing.Benchmark(fn)
		ns := float64(r.NsPerOp())
		res := benchResult{
			Name:        name,
			NsPerOp:     ns,
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
		}
		report.Benchmarks = append(report.Benchmarks, res)
		fmt.Fprintf(os.Stderr, "%-34s %14.0f ns/op %10d allocs/op\n", name, ns, res.AllocsPerOp)
	}

	tmp, err := os.MkdirTemp("", "repose-bench-storage-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)

	for _, layout := range []struct {
		name   string
		layout rptrie.Layout
	}{
		{"trie", rptrie.LayoutPointer},
		{"compressed", rptrie.LayoutCompressed},
	} {
		opts := rptrie.DurableOptions{Layout: layout.layout, NoCheckpointOnCompact: true}

		// Stage the durable directory once: build on the first half,
		// then journal the tail as insert batches.
		dir := filepath.Join(tmp, layout.name)
		d, err := rptrie.BuildDurable(dir, cfg, base, opts)
		if err != nil {
			return err
		}
		const batch = 32
		for i := 0; i < len(tail); i += batch {
			j := i + batch
			if j > len(tail) {
				j = len(tail)
			}
			if err := d.Insert(tail[i:j]...); err != nil {
				return err
			}
		}
		var image bytes.Buffer
		if err := d.Save(&image); err != nil {
			return err
		}
		wantLen := d.Len()
		if err := d.Close(); err != nil {
			return err
		}

		record("coldstart/walreplay/"+layout.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				r, err := rptrie.OpenDurable(dir, opts)
				if err != nil {
					b.Fatal(err)
				}
				if r.Len() != wantLen {
					b.Fatalf("replayed %d trajectories, want %d", r.Len(), wantLen)
				}
				r.Search(queries[0].Points, k)
				if err := r.Close(); err != nil {
					b.Fatal(err)
				}
			}
		})
		record("coldstart/rebuild/"+layout.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				idx, err := rptrie.BuildLayout(cfg, ds, layout.layout)
				if err != nil {
					b.Fatal(err)
				}
				idx.Search(queries[0].Points, k)
			}
		})
		record("coldstart/restore/"+layout.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				idx, err := rptrie.Read(layout.layout, bytes.NewReader(image.Bytes()))
				if err != nil {
					b.Fatal(err)
				}
				idx.Search(queries[0].Points, k)
			}
		})
	}

	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(outPath, append(data, '\n'), 0o644)
}
