package cluster

import (
	"context"
	"encoding/gob"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repose/internal/dataset"
	"repose/internal/geo"
	"repose/internal/leakcheck"
	"repose/internal/oracle"
	"repose/internal/rptrie"
	"repose/internal/storage"
)

// TestLocalDurableBuildOpen: the local engine's disk-backed mode, both
// layouts. Build installs every partition under the data directory,
// mutations journal, Close flushes, and OpenLocalDurable recovers the
// engine — routing directory included — to bit-identical answers, with
// mutation routing still working after recovery. A directory built
// with the retired succinct layout opens as compressed.
func TestLocalDurableBuildOpen(t *testing.T) {
	t.Run("layout=succinct", testLegacySuccinctDir)
	for _, layout := range []rptrie.Layout{rptrie.LayoutPointer, rptrie.LayoutCompressed} {
		t.Run(fmt.Sprintf("layout=%v", layout), func(t *testing.T) {
			base := leakcheck.Base()
			defer leakcheck.Settle(t, base)
			dir := t.TempDir()
			ds, parts, spec := testWorld(t, 150, 3)
			spec.Layout = layout
			ctx := context.Background()

			eng, err := BuildLocalDurable(spec, parts, 4, dir)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(9))
			adds := freshTrajs(rng, 600_000, 8)
			if _, err := eng.Insert(ctx, adds, MutateOptions{}); err != nil {
				t.Fatal(err)
			}
			if n, _, err := eng.Delete(ctx, []int{ds[2].ID, ds[9].ID}, MutateOptions{}); err != nil || n != 2 {
				t.Fatalf("delete: n=%d err=%v", n, err)
			}
			if _, err := eng.Compact(ctx, nil); err != nil {
				t.Fatalf("compact: %v", err)
			}
			q := dataset.Queries(ds, 2, 77)[0]
			want, _, err := eng.Search(ctx, q.Points, 7, QueryOptions{})
			if err != nil {
				t.Fatal(err)
			}
			wantRad, _, err := eng.SearchRadius(ctx, q.Points, 0.8, QueryOptions{})
			if err != nil {
				t.Fatal(err)
			}
			wantLen := eng.Len()
			if err := eng.Close(); err != nil {
				t.Fatal(err)
			}

			re, err := OpenLocalDurable(spec, len(parts), 0, dir)
			if err != nil {
				t.Fatalf("OpenLocalDurable: %v", err)
			}
			defer re.Close()
			if re.NumPartitions() != len(parts) || re.Len() != wantLen {
				t.Fatalf("recovered %d partitions / %d trajectories, want %d / %d",
					re.NumPartitions(), re.Len(), len(parts), wantLen)
			}
			if re.BuildTime() <= 0 {
				t.Fatal("recovery reported a zero build time")
			}
			got, _, err := re.Search(ctx, q.Points, 7, QueryOptions{})
			if err != nil {
				t.Fatal(err)
			}
			assertBitIdentical(t, "recovered local search", 9, got, want)
			gotRad, _, err := re.SearchRadius(ctx, q.Points, 0.8, QueryOptions{})
			if err != nil {
				t.Fatal(err)
			}
			assertBitIdentical(t, "recovered local radius", 9, gotRad, wantRad)

			// The rebuilt routing directory still targets existing ids:
			// an upsert of a build-time trajectory must not duplicate
			// it, and a delete of an inserted one must land on its
			// partition.
			if _, err := re.Upsert(ctx, []*geo.Trajectory{ds[4]}, MutateOptions{}); err != nil {
				t.Fatal(err)
			}
			if re.Len() != wantLen {
				t.Fatalf("upsert of an existing id changed Len to %d, want %d", re.Len(), wantLen)
			}
			if n, _, err := re.Delete(ctx, []int{adds[0].ID}, MutateOptions{}); err != nil || n != 1 {
				t.Fatalf("delete of recovered insert: n=%d err=%v", n, err)
			}
		})
	}
}

// testLegacySuccinctDir opens the repository's frozen durable
// directory: two partitions written with the retired succinct layout,
// each a checkpoint plus WAL records. Both recover as compressed at
// their logged generations, answer exactly like the oracle over the
// recorded live set, and keep taking mutations.
func testLegacySuccinctDir(t *testing.T) {
	base := leakcheck.Base()
	defer leakcheck.Settle(t, base)
	src := filepath.Join("..", "..", "testdata")
	live, err := dataset.Load(filepath.Join(src, "legacy_succinct_live.csv"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	copyTree(t, filepath.Join(src, "legacy_succinct_durable"), dir)
	f, err := os.Open(filepath.Join(dir, "MANIFEST"))
	if err != nil {
		t.Fatal(err)
	}
	var manifest struct{ Spec IndexSpec } // the engine half of the facade's manifest
	err = gob.NewDecoder(f).Decode(&manifest)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	spec := manifest.Spec
	eng, err := OpenLocalDurable(spec, 2, 2, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	for pid, idx := range eng.Indexes() {
		if l := idx.(*rptrie.Index).Layout(); l != rptrie.LayoutCompressed {
			t.Fatalf("partition %d recovered as %v", pid, l)
		}
	}
	if g := eng.Generations(); g[0] == 0 || g[1] == 0 {
		t.Fatalf("generations %v: the logged mutations were not replayed", g)
	}
	if eng.Len() != len(live) {
		t.Fatalf("recovered %d trajectories, live set has %d", eng.Len(), len(live))
	}
	ctx := context.Background()
	for _, q := range dataset.Queries(live, 3, 5) {
		got, _, err := eng.Search(ctx, q.Points, 6, QueryOptions{})
		if err != nil {
			t.Fatal(err)
		}
		assertBitIdentical(t, "legacy search", 1, got, oracle.TopK(spec.Measure, spec.Params, live, q.Points, 6))
		gotRad, _, err := eng.SearchRadius(ctx, q.Points, 0.8, QueryOptions{})
		if err != nil {
			t.Fatal(err)
		}
		assertBitIdentical(t, "legacy radius", 1, gotRad, oracle.Radius(spec.Measure, spec.Params, live, q.Points, 0.8))
	}
	if _, err := eng.Upsert(ctx, []*geo.Trajectory{live[0]}, MutateOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Compact(ctx, nil); err != nil {
		t.Fatal(err)
	}
	if eng.Len() != len(live) {
		t.Fatalf("after upsert+compact: %d trajectories, want %d", eng.Len(), len(live))
	}
}

// copyTree copies the regular files under src to dst.
func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestLocalDurableBaselineAndErrors: baseline algorithms have no
// persistence, so BuildLocalDurable passes them through without
// creating stores; and the build/open paths surface real failures —
// an unusable data-dir path, a corrupted page store, and a directory
// holding more partitions than the engine expects.
func TestLocalDurableBaselineAndErrors(t *testing.T) {
	_, parts, spec := testWorld(t, 60, 2)

	dir := t.TempDir()
	bspec := spec
	bspec.Algorithm = LS
	eng, err := BuildLocalDurable(bspec, parts, 2, dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenLocalDurable(bspec, len(parts), 2, dir); err == nil {
		t.Fatal("baseline engine left recoverable stores behind")
	}

	blocked := filepath.Join(t.TempDir(), "blocked")
	if err := os.WriteFile(blocked, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := BuildLocalDurable(spec, parts, 2, blocked); err == nil {
		t.Fatal("build into a regular-file data dir succeeded")
	}

	dir2 := t.TempDir()
	eng2, err := BuildLocalDurable(spec, parts, 2, dir2)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng2.Close(); err != nil {
		t.Fatal(err)
	}
	junk := make([]byte, 4096)
	for i := range junk {
		junk[i] = 0x5a
	}
	if err := os.WriteFile(filepath.Join(dir2, partDirName(0), storage.PagesFileName), junk, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenLocalDurable(spec, len(parts), 2, dir2); err == nil {
		t.Fatal("open over a corrupted page store succeeded")
	}

	dir3 := t.TempDir()
	eng3, err := BuildLocalDurable(spec, parts, 2, dir3)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng3.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenLocalDurable(spec, 1, 2, dir3); err == nil {
		t.Fatal("open with fewer partitions than the directory holds succeeded")
	}
}

// TestOpenLocalDurableMissingPartition: recovery is all-or-nothing —
// a data directory missing one partition's store must fail the open
// rather than serve partial answers.
func TestOpenLocalDurableMissingPartition(t *testing.T) {
	dir := t.TempDir()
	_, parts, spec := testWorld(t, 80, 2)
	eng, err := BuildLocalDurable(spec, parts, 2, dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenLocalDurable(spec, len(parts)+1, 2, dir); err == nil {
		t.Fatal("open with a missing partition store succeeded")
	}
	if _, err := OpenLocalDurable(spec, 0, 2, dir); err == nil {
		t.Fatal("open with zero partitions succeeded")
	}
}
