package repose

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repose/internal/dataset"
	"repose/internal/dist"
	"repose/internal/oracle"
	"repose/internal/topk"
)

// TestDurableBuildReopen is the public-API acceptance test for the
// disk-backed mode: an index built with WithDurableDir, mutated, and
// closed must come back from OpenDurable with bit-identical answers
// — no dataset in hand — and keep accepting durable mutations. The
// succinct case reopens a directory frozen by the last build that
// could write that retired layout.
func TestDurableBuildReopen(t *testing.T) {
	ds := testData(t, 140)
	ctx := context.Background()
	t.Run("layout=succinct", testReopenLegacySuccinct)
	for _, layout := range []Layout{LayoutPointer, LayoutCompressed} {
		t.Run(fmt.Sprintf("layout=%v", layout), func(t *testing.T) {
			dir := t.TempDir()
			idx, err := Build(ds, Options{Partitions: 3}, WithDurableDir(dir), WithLayout(layout))
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(17))
			adds := make([]*Trajectory, 5)
			for i := range adds {
				adds[i] = freshTraj(rng, 700_000+i)
			}
			if err := idx.Insert(ctx, adds); err != nil {
				t.Fatal(err)
			}
			if n, err := idx.Delete(ctx, []int{ds[3].ID, ds[7].ID}); err != nil || n != 2 {
				t.Fatalf("delete: n=%d err=%v", n, err)
			}
			probe := adds[0]
			want, err := idx.Search(ctx, probe, 8)
			if err != nil {
				t.Fatal(err)
			}
			wantStats := idx.Stats()
			wantRadius, err := idx.SearchRadius(ctx, probe, 0.5)
			if err != nil {
				t.Fatal(err)
			}
			if err := idx.Close(); err != nil {
				t.Fatal(err)
			}

			re, err := OpenDurable(dir)
			if err != nil {
				t.Fatalf("OpenDurable: %v", err)
			}
			defer re.Close()
			got, err := re.Search(ctx, probe, 8)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("recovered search differs:\n got %v\nwant %v", got, want)
			}
			if st := re.Stats(); st.Trajectories != wantStats.Trajectories {
				t.Fatalf("recovered Stats.Trajectories = %d, want %d", st.Trajectories, wantStats.Trajectories)
			}
			gr, err := re.SearchRadius(ctx, probe, 0.5)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(gr, wantRadius) {
				t.Fatalf("recovered radius search differs:\n got %v\nwant %v", gr, wantRadius)
			}

			// The recovered index keeps journaling: insert, reopen
			// again, and the new trajectory must still be there.
			late := freshTraj(rng, 800_000)
			if err := re.Insert(ctx, []*Trajectory{late}); err != nil {
				t.Fatalf("insert on recovered index: %v", err)
			}
			if err := re.Close(); err != nil {
				t.Fatal(err)
			}
			re2, err := OpenDurable(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer re2.Close()
			res, err := re2.Search(ctx, late, 1)
			if err != nil {
				t.Fatal(err)
			}
			if len(res) != 1 || res[0].ID != late.ID || res[0].Dist != 0 {
				t.Fatalf("post-recovery insert lost across reopen: %v", res)
			}
		})
	}
}

// TestOpenDurableMissing: a directory with no manifest is not a
// durable index, and the error must say so rather than panic or
// return an empty index.
func TestOpenDurableMissing(t *testing.T) {
	if _, err := OpenDurable(t.TempDir()); err == nil {
		t.Fatal("OpenDurable on an empty directory succeeded")
	}
}

// testReopenLegacySuccinct opens testdata/legacy_succinct_durable: 24
// trajectories in 2 partitions, built with the retired succinct layout
// through the deprecated Options.Succinct flag, followed by an insert,
// a delete and an upsert that live only in the write-ahead logs. The
// fixture is frozen and never regenerated; legacy_succinct_live.csv is
// its live set. It must recover as LayoutCompressed with every query
// mode bit-identical to the oracle, and keep taking mutations.
func testReopenLegacySuccinct(t *testing.T) {
	live, err := dataset.Load(filepath.Join("testdata", "legacy_succinct_live.csv"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	copyTree(t, filepath.Join("testdata", "legacy_succinct_durable"), dir)
	idx, err := OpenDurable(dir)
	if err != nil {
		t.Fatal(err)
	}
	st := idx.Stats()
	if st.Layout != LayoutCompressed || st.Partitions != 2 || st.Trajectories != len(live) {
		t.Fatalf("recovered layout=%v partitions=%d trajectories=%d, want compressed, 2, %d",
			st.Layout, st.Partitions, st.Trajectories, len(live))
	}
	ctx := context.Background()
	m, p := idx.opts.Measure, dist.Params{Epsilon: idx.opts.Epsilon, Gap: idx.region.Min}
	sub := oracle.Spec{Sub: true}
	for _, q := range dataset.Queries(live, 4, 3) {
		got, err := idx.Search(ctx, q, 5)
		if err != nil {
			t.Fatal(err)
		}
		assertOracle(t, "search", got, oracle.TopK(m, p, live, q.Points, 5))
		got, err = idx.SearchRadius(ctx, q, 0.6)
		if err != nil {
			t.Fatal(err)
		}
		assertOracle(t, "radius", got, oracle.Radius(m, p, live, q.Points, 0.6))
		got, err = idx.SearchSub(ctx, q, 5)
		if err != nil {
			t.Fatal(err)
		}
		assertOracle(t, "sub", got, oracle.TopKRefined(m, p, live, q.Points, 5, sub))
	}
	late := &Trajectory{ID: 990_000, Points: append([]Point(nil), live[3].Points...)}
	if err := idx.Insert(ctx, []*Trajectory{late}); err != nil {
		t.Fatal(err)
	}
	if err := idx.CompactNow(ctx); err != nil {
		t.Fatal(err)
	}
	if err := idx.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := OpenDurable(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if st := re.Stats(); st.Layout != LayoutCompressed || st.Trajectories != len(live)+1 {
		t.Fatalf("reopened layout=%v trajectories=%d, want compressed, %d", st.Layout, st.Trajectories, len(live)+1)
	}
	res, err := re.Search(ctx, late, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 || res[0].Dist != 0 || res[1].Dist != 0 {
		t.Fatalf("insert after legacy recovery lost across reopen: %v", res)
	}
}

// TestManifestRetiredLayoutReadsCompressed: a manifest recording the
// retired succinct layout's value opens with LayoutCompressed, the
// layout its partitions recover in.
func TestManifestRetiredLayoutReadsCompressed(t *testing.T) {
	dir := t.TempDir()
	var m durableManifest
	m.Opts.Layout, m.Spec.Layout = 1, 1
	if err := writeManifest(dir, m); err != nil {
		t.Fatal(err)
	}
	got, err := readManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got.Opts.Layout != LayoutCompressed || got.Spec.Layout != LayoutCompressed {
		t.Fatalf("layouts read as %v / %v, want compressed", got.Opts.Layout, got.Spec.Layout)
	}
}

// assertOracle fails unless got matches the oracle's items exactly.
func assertOracle(t *testing.T, what string, got []Result, want []topk.Item) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, oracle %d", what, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s rank %d: %+v, oracle %+v", what, i, got[i], want[i])
		}
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
