package repose

import (
	"context"
	"errors"
	"math"
	"sort"
	"strings"
	"testing"

	"repose/internal/dataset"
	"repose/internal/dist"
)

func testData(t *testing.T, n int) []*Trajectory {
	t.Helper()
	return dataset.Generate(dataset.Spec{
		Name: "t", Cardinality: n, AvgLen: 20, SpanX: 4, SpanY: 4, Hotspots: 5, Seed: 4,
	})
}

func TestBuildAndSearchDefaults(t *testing.T) {
	ds := testData(t, 200)
	idx, err := Build(ds, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if idx.Engine().String() != "local" {
		t.Errorf("engine = %v", idx.Engine())
	}
	q := ds[17]
	res, err := idx.Search(context.Background(), q, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 5 {
		t.Fatalf("got %d results", len(res))
	}
	// Searching for an indexed trajectory finds it at distance 0.
	if res[0].ID != q.ID || res[0].Dist != 0 {
		t.Errorf("self search top hit = %+v", res[0])
	}
	// Ascending distances.
	if !sort.SliceIsSorted(res, func(i, j int) bool { return res[i].Dist < res[j].Dist }) {
		// Equal distances permitted; verify non-decreasing.
		for i := 1; i < len(res); i++ {
			if res[i].Dist < res[i-1].Dist {
				t.Errorf("results not sorted: %v", res)
			}
		}
	}
	st := idx.Stats()
	if st.Trajectories != 200 || st.Partitions <= 0 || st.IndexBytes <= 0 || st.BuildTime <= 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestAllMeasuresEndToEnd(t *testing.T) {
	ds := testData(t, 150)
	q := ds[3]
	for _, m := range dist.Measures() {
		idx, err := Build(ds, Options{Measure: m, Partitions: 4})
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		res, err := idx.Search(context.Background(), q, 3)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if len(res) != 3 {
			t.Fatalf("%v: %d results", m, len(res))
		}
		// Verify reported distances are the true distances.
		byID := map[int]*Trajectory{}
		for _, tr := range ds {
			byID[tr.ID] = tr
		}
		for _, r := range res {
			want := DistanceWith(m, q, byID[r.ID], idx.opts.Epsilon, Point{X: idx.region.Min.X, Y: idx.region.Min.Y})
			if math.Abs(r.Dist-want) > 1e-9 {
				t.Errorf("%v: id %d dist %v want %v", m, r.ID, r.Dist, want)
			}
		}
	}
}

func TestBuildErrors(t *testing.T) {
	if _, err := Build(nil, Options{}); err == nil {
		t.Error("empty dataset should fail")
	}
}

func TestSentinelErrors(t *testing.T) {
	ds := testData(t, 50)
	idx, err := Build(ds, Options{Partitions: 2})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := idx.Search(ctx, nil, 3); !errors.Is(err, ErrEmptyQuery) {
		t.Errorf("nil query: %v", err)
	}
	if _, err := idx.Search(ctx, &Trajectory{}, 3); !errors.Is(err, ErrEmptyQuery) {
		t.Errorf("empty query: %v", err)
	}
	if _, err := idx.Search(ctx, ds[0], 0); !errors.Is(err, ErrBadK) {
		t.Errorf("k=0: %v", err)
	}
	if _, err := idx.SearchRadius(ctx, ds[0], -1); !errors.Is(err, ErrBadRadius) {
		t.Errorf("negative radius: %v", err)
	}
	if _, err := idx.SearchRadius(ctx, ds[0], math.NaN()); !errors.Is(err, ErrBadRadius) {
		t.Errorf("NaN radius: %v", err)
	}
	if _, err := idx.SearchBatch(ctx, []*Trajectory{ds[0], nil}, 3); !errors.Is(err, ErrEmptyQuery) {
		t.Errorf("nil batch query: %v", err)
	}
	if _, err := idx.SearchBatch(ctx, []*Trajectory{ds[0]}, -2); !errors.Is(err, ErrBadK) {
		t.Errorf("batch k<0: %v", err)
	}

	// Every query path reports ErrClosed after Close, idempotently.
	if err := idx.Close(); err != nil {
		t.Fatal(err)
	}
	if err := idx.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
	if _, err := idx.Search(ctx, ds[0], 3); !errors.Is(err, ErrClosed) {
		t.Errorf("search after close: %v", err)
	}
	if _, err := idx.SearchRadius(ctx, ds[0], 1); !errors.Is(err, ErrClosed) {
		t.Errorf("radius after close: %v", err)
	}
	if _, err := idx.SearchBatch(ctx, []*Trajectory{ds[0]}, 3); !errors.Is(err, ErrClosed) {
		t.Errorf("batch after close: %v", err)
	}
}

func TestOptionVariants(t *testing.T) {
	ds := testData(t, 120)
	q := ds[9]
	ctx := context.Background()
	base, err := Build(ds, Options{Partitions: 3})
	if err != nil {
		t.Fatal(err)
	}
	want, err := base.Search(ctx, q, 7)
	if err != nil {
		t.Fatal(err)
	}
	variants := []Options{
		{Partitions: 3, Strategy: Homogeneous},
		{Partitions: 3, Strategy: Random},
		{Partitions: 3, NoRearrange: true},
		{Partitions: 3, Layout: LayoutCompressed},
		{Partitions: 3, Pivots: -1},
		{Partitions: 3, Pivots: 2},
		{Partitions: 5, Delta: 0.03},
	}
	for i, o := range variants {
		idx, err := Build(ds, o)
		if err != nil {
			t.Fatalf("variant %d: %v", i, err)
		}
		got, err := idx.Search(ctx, q, 7)
		if err != nil {
			t.Fatalf("variant %d: %v", i, err)
		}
		if len(got) != len(want) {
			t.Fatalf("variant %d: len %d want %d", i, len(got), len(want))
		}
		for j := range got {
			if math.Abs(got[j].Dist-want[j].Dist) > 1e-9 {
				t.Fatalf("variant %d rank %d: dist %v want %v", i, j, got[j].Dist, want[j].Dist)
			}
		}
	}
}

func TestQueryOptions(t *testing.T) {
	ds := testData(t, 150)
	idx, err := Build(ds, Options{Partitions: 4})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	q := ds[25]
	want, err := idx.Search(ctx, q, 6)
	if err != nil {
		t.Fatal(err)
	}

	// WithReport captures per-partition execution, including each
	// partition's index footprint.
	var rep QueryReport
	got, err := idx.Search(ctx, q, 6, WithReport(&rep))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.PartitionTimes) != 4 || rep.Wall <= 0 || rep.Imbalance() < 1 {
		t.Errorf("report = %+v (imbalance %v)", rep, rep.Imbalance())
	}
	if len(rep.IndexBytes) != 4 {
		t.Errorf("report.IndexBytes has %d entries, want 4", len(rep.IndexBytes))
	}
	for pid, b := range rep.IndexBytes {
		if b <= 0 {
			t.Errorf("report.IndexBytes[%d] = %d", pid, b)
		}
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("rank %d: %+v want %+v", i, got[i], want[i])
		}
	}

	// WithoutPivots changes pruning, never results.
	got, err = idx.Search(ctx, q, 6, WithoutPivots())
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("no-pivots rank %d: %+v want %+v", i, got[i], want[i])
		}
	}

	// WithPartitions restricts the query; the subset report shows it.
	var subRep QueryReport
	if _, err := idx.Search(ctx, q, 6, WithPartitions(0, 2), WithReport(&subRep)); err != nil {
		t.Fatal(err)
	}
	if len(subRep.PartitionTimes) != 2 {
		t.Errorf("subset report %d partitions", len(subRep.PartitionTimes))
	}
	if _, err := idx.Search(ctx, q, 6, WithPartitions(99)); err == nil {
		t.Error("out-of-range partition should fail")
	}

	// WithBatchReport captures the batch makespan.
	var brep BatchReport
	batch, err := idx.SearchBatch(ctx, ds[:5], 3, WithBatchReport(&brep))
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != 5 || brep.Makespan <= 0 || len(brep.PerQuery) != 5 {
		t.Errorf("batch report = %+v", brep)
	}
	for i, q := range ds[:5] {
		single, err := idx.Search(ctx, q, 3)
		if err != nil {
			t.Fatal(err)
		}
		for j := range single {
			if batch[i][j] != single[j] {
				t.Fatalf("batch query %d rank %d: %+v want %+v", i, j, batch[i][j], single[j])
			}
		}
	}
}

// TestStatsMemoryAccounting: Stats reports the layout, a footprint
// per partition, and their sum as IndexBytes — and the compressed
// layout's total is materially below the pointer trie's on the same
// dataset (the headline bench ratio lives in BENCH_memory.json; this
// guards the accounting plumbing).
func TestStatsMemoryAccounting(t *testing.T) {
	ds := testData(t, 200)
	totals := map[Layout]int{}
	for _, layout := range []Layout{LayoutPointer, LayoutCompressed} {
		idx, err := Build(ds, Options{Partitions: 3}, WithLayout(layout))
		if err != nil {
			t.Fatal(err)
		}
		st := idx.Stats()
		if st.Layout != layout {
			t.Errorf("Stats.Layout = %v, want %v", st.Layout, layout)
		}
		if len(st.PartitionIndexBytes) != st.Partitions {
			t.Fatalf("%v: %d per-partition sizes for %d partitions", layout, len(st.PartitionIndexBytes), st.Partitions)
		}
		sum := 0
		for pid, b := range st.PartitionIndexBytes {
			if b <= 0 {
				t.Errorf("%v: PartitionIndexBytes[%d] = %d", layout, pid, b)
			}
			sum += b
		}
		if sum != st.IndexBytes {
			t.Errorf("%v: per-partition sum %d != IndexBytes %d", layout, sum, st.IndexBytes)
		}
		totals[layout] = st.IndexBytes
	}
	if totals[LayoutCompressed] >= totals[LayoutPointer] {
		t.Errorf("footprints not ordered: pointer=%d compressed=%d", totals[LayoutPointer], totals[LayoutCompressed])
	}
}

func TestDistanceHelpers(t *testing.T) {
	a := &Trajectory{ID: 1, Points: []Point{{X: 0, Y: 0}, {X: 1, Y: 0}}}
	b := &Trajectory{ID: 2, Points: []Point{{X: 0, Y: 3}, {X: 1, Y: 3}}}
	if got := Distance(Hausdorff, a, b); math.Abs(got-3) > 1e-9 {
		t.Errorf("Hausdorff = %v", got)
	}
	if got := DistanceWith(LCSS, a, b, 5, Point{}); got != 0 {
		t.Errorf("LCSS with huge eps = %v", got)
	}
}

// TestBuildRejectsUnknownLayout: a layout value that names no
// supported layout — the retired succinct layout's 1 or a value never
// assigned — fails the build, locally with ErrUnknownLayout and on
// loopback workers with their refusal, instead of silently building
// pointer tries. The layout names are validated the same way.
func TestBuildRejectsUnknownLayout(t *testing.T) {
	ds := testData(t, 60)
	addrs := startTestWorkers(t, 2)
	for _, l := range []Layout{Layout(1), Layout(7)} {
		if _, err := Build(ds, Options{Partitions: 2, Layout: l}); !errors.Is(err, ErrUnknownLayout) {
			t.Errorf("Build with %v: %v, want ErrUnknownLayout", l, err)
		}
		if _, err := Build(ds, Options{Partitions: 2}, WithLayout(l), WithDurableDir(t.TempDir())); !errors.Is(err, ErrUnknownLayout) {
			t.Errorf("durable Build with %v: %v, want ErrUnknownLayout", l, err)
		}
		idx, err := BuildRemote(ds, Options{Partitions: 2, Layout: l}, addrs)
		if err == nil {
			idx.Close()
			t.Errorf("BuildRemote with %v succeeded", l)
		} else if !strings.Contains(err.Error(), "unknown layout") {
			t.Errorf("BuildRemote with %v: %v, want the workers' unknown-layout refusal", l, err)
		}
	}
	_, err := ParseLayout("succinct")
	if !errors.Is(err, ErrUnknownLayout) || !strings.Contains(err.Error(), "pointer|compressed") {
		t.Errorf(`ParseLayout("succinct") = %v, want ErrUnknownLayout naming pointer|compressed`, err)
	}
	werr := ServeWorkerOptions(context.Background(), "127.0.0.1:0", WorkerOptions{Layout: "succinct"}, nil)
	if !errors.Is(werr, ErrUnknownLayout) {
		t.Errorf("worker -layout succinct: %v, want ErrUnknownLayout", werr)
	}
}
