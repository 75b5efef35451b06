package rptrie

import (
	"fmt"
	"math/rand"
	"testing"

	"repose/internal/dist"
	"repose/internal/geo"
	"repose/internal/grid"
	"repose/internal/oracle"
	"repose/internal/topk"
)

// Differential testing of the refined query modes: subtrajectory
// search, time-windowed search, and their composition answer seeded
// random queries over seeded random timestamped datasets, interleaved
// with mutations, and every answer is pinned BIT-IDENTICALLY to
// internal/oracle's brute-force references — distances, ids, and
// matched [Start, End) segments all must agree exactly, across every
// measure and all three layouts. Failure messages lead with the case
// seed.

// attachTimes timestamps roughly two thirds of ds in place: ascending
// starts with occasional repeats (vehicles stop), leaving the rest
// untimestamped so windowed queries exercise the never-matches rule.
func attachTimes(rng *rand.Rand, ds []*geo.Trajectory) {
	for _, tr := range ds {
		if rng.Intn(3) == 0 {
			tr.Times = nil
			continue
		}
		ts := make([]int64, len(tr.Points))
		cur := rng.Int63n(500)
		for i := range ts {
			ts[i] = cur
			cur += rng.Int63n(40)
		}
		tr.Times = ts
	}
}

// randomSpec draws one refined query mode: subtrajectory, windowed,
// or both composed.
func randomSpec(rng *rand.Rand) RefineSpec {
	var sp RefineSpec
	switch rng.Intn(3) {
	case 0:
		sp.Sub = true
	case 1:
		sp.Window = true
	default:
		sp.Sub, sp.Window = true, true
	}
	if sp.Sub {
		sp.MinSeg = rng.Intn(4)     // 0 exercises the ≥1 normalization
		sp.MaxSeg = rng.Intn(9) - 1 // -1..7; ≤0 means unbounded
	}
	if sp.Window {
		from := rng.Int63n(900) - 50
		sp.From = from
		sp.To = from + rng.Int63n(400)
	}
	return sp
}

func specOracle(sp RefineSpec) oracle.Spec {
	return oracle.Spec{Sub: sp.Sub, MinSeg: sp.MinSeg, MaxSeg: sp.MaxSeg, Window: sp.Window, From: sp.From, To: sp.To}
}

func TestDifferentialRefinedVsOracle(t *testing.T) {
	datasets := diffDatasetsFull
	if testing.Short() {
		datasets = diffDatasetsShort
	}
	p := dist.Params{Epsilon: 0.5, Gap: geo.Point{}}
	region := geo.Rect{Min: geo.Point{X: 0, Y: 0}, Max: geo.Point{X: 8, Y: 8}}
	for _, m := range dist.Measures() {
		m := m
		t.Run(m.String(), func(t *testing.T) {
			t.Parallel()
			for _, layout := range dynLayouts {
				cases := 0
				for di := 0; di < datasets; di++ {
					seed := int64(0x5EEDF + 1000*int(m) + di)
					cases += runRefinedCase(t, layout, m, p, region, seed)
				}
				if cases < 1000 && !testing.Short() {
					t.Fatalf("layout %s ran only %d refined cases, want ≥ 1000", layout, cases)
				}
			}
		})
	}
}

// runRefinedCase runs one timestamped dataset's script — refined
// queries before, during, and after mutations — and returns how many
// query cases it compared.
func runRefinedCase(t *testing.T, layout string, m dist.Measure, p dist.Params, region geo.Rect, seed int64) int {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g, err := grid.NewWithBits(region, 3+rng.Intn(3))
	if err != nil {
		t.Fatal(err)
	}
	ds := randomDataset(rng, 30+rng.Intn(30))
	attachTimes(rng, ds)
	cfg := Config{
		Measure:  m,
		Params:   p,
		Grid:     g,
		Optimize: rng.Intn(2) == 0 && m.OrderIndependent(),
	}
	idx := buildDyn(t, layout, cfg, ds)
	mirror := oracle.NewSet(ds)
	nextID := 1000
	cases := 0

	label := func(phase string, i int) string {
		return fmt.Sprintf("seed=%d layout=%s measure=%v %s[%d]", seed, layout, m, phase, i)
	}
	compare := func(ctx string) {
		q := randomDataset(rng, 1)[0]
		k := 1 + rng.Intn(12)
		sp := randomSpec(rng)
		opt := SearchOptions{Refiner: NewRefiner(m, p, sp)}
		if rng.Intn(4) == 0 {
			opt.RefineWorkers = 2 + rng.Intn(3) // parallel leaves must stay bit-identical
		}
		got, err := idx.SearchContext(nil, q.Points, k, opt)
		if err != nil {
			t.Fatalf("%s: SearchContext: %v", ctx, err)
		}
		want := mirror.TopKRefined(m, p, q.Points, k, specOracle(sp))
		assertRefinedTopK(t, ctx+fmt.Sprintf(" spec=%+v k=%d", sp, k), m, p, mirror, q.Points, specOracle(sp), got, want)
		if rng.Intn(4) == 0 {
			radius := 0.2 + rng.Float64()*3
			gotR, err := idx.SearchRadiusContext(nil, q.Points, radius, opt)
			if err != nil {
				t.Fatalf("%s: SearchRadiusContext: %v", ctx, err)
			}
			wantR := mirror.RadiusRefined(m, p, q.Points, radius, specOracle(sp))
			assertRefinedItems(t, ctx+fmt.Sprintf(" spec=%+v radius=%g", sp, radius), gotR, wantR)
		}
		cases++
	}

	for i := 0; i < diffPreQueries; i++ {
		compare(label("pre", i))
	}
	for step := 0; step < diffMutSteps; step++ {
		switch r := rng.Intn(10); {
		case r < 4:
			n := 1 + rng.Intn(3)
			fresh := randomFresh(rng, nextID, n)
			attachTimes(rng, fresh)
			nextID += n
			if err := idx.Insert(fresh...); err != nil {
				t.Fatalf("%s: insert: %v", label("mut", step), err)
			}
			mirror.Insert(fresh...)
		case r < 8:
			ids := mirror.IDs()
			if len(ids) == 0 {
				continue
			}
			victims := []int{ids[rng.Intn(len(ids))]}
			got := idx.Delete(victims...)
			want := mirror.Delete(victims...)
			if got != want {
				t.Fatalf("%s: delete removed %d, oracle %d", label("mut", step), got, want)
			}
		case r < 9:
			ids := mirror.IDs()
			if len(ids) == 0 {
				continue
			}
			repl := randomFresh(rng, ids[rng.Intn(len(ids))], 1)
			attachTimes(rng, repl)
			if err := idx.Upsert(repl...); err != nil {
				t.Fatalf("%s: upsert: %v", label("mut", step), err)
			}
			mirror.Insert(repl...)
		default:
			if err := idx.Compact(); err != nil {
				t.Fatalf("%s: compact: %v", label("mut", step), err)
			}
		}
		if step%2 == 1 {
			compare(label("mut", step))
		}
	}
	if err := idx.Compact(); err != nil {
		t.Fatalf("seed=%d: final compact: %v", seed, err)
	}
	for i := 0; i < diffPostQueries; i++ {
		compare(label("post", i))
	}
	return cases
}

// assertRefinedTopK pins a refined top-k answer to the oracle:
// bit-identical distance profile (no epsilon — the index and the
// brute-force reference share the segment-sweep kernels), and every
// reported item's (Dist, Start, End) must equal the oracle's
// tie-broken refinement of that exact trajectory. Result sets may
// differ from the oracle only inside tied-distance groups, the same
// caveat the whole-trajectory differential test documents (subtree
// pruning at lb ≥ dk may drop a tied candidate the oracle keeps).
func assertRefinedTopK(t *testing.T, ctx string, m dist.Measure, p dist.Params, mirror *oracle.Set, q []geo.Point, sp oracle.Spec, got, want []topk.Item) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: got %d results, want %d\ngot  %v\nwant %v", ctx, len(got), len(want), got, want)
	}
	seen := make(map[int]bool, len(got))
	for i := range got {
		if got[i].Dist != want[i].Dist {
			t.Fatalf("%s: rank %d distance %v, oracle %v\ngot  %v\nwant %v", ctx, i, got[i].Dist, want[i].Dist, got, want)
		}
		if seen[got[i].ID] {
			t.Fatalf("%s: duplicate id %d in results %v", ctx, got[i].ID, got)
		}
		seen[got[i].ID] = true
		tr := mirror.Get(got[i].ID)
		if tr == nil {
			t.Fatalf("%s: result id %d is not live", ctx, got[i].ID)
		}
		d, s, e := sp.Refine(m, p, q, tr)
		if d != got[i].Dist || s != got[i].Start || e != got[i].End {
			t.Fatalf("%s: id %d reported (%v, [%d, %d)), oracle refinement (%v, [%d, %d))",
				ctx, got[i].ID, got[i].Dist, got[i].Start, got[i].End, d, s, e)
		}
	}
}

// assertRefinedItems pins got to the oracle item-for-item, bit-exact
// — the radius and same-index comparisons, where no tied-group caveat
// applies (every eligible candidate must appear).
func assertRefinedItems(t *testing.T, ctx string, got, want []topk.Item) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: got %d results, want %d\ngot  %v\nwant %v", ctx, len(got), len(want), got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: rank %d = %+v, oracle %+v\ngot  %v\nwant %v", ctx, i, got[i], want[i], got, want)
		}
	}
}

// TestWholeRefinerMatchesNilPath: the default refiner expressed
// through the interface must answer byte-identically to the inline
// nil-refiner fast path, top-k and radius.
func TestWholeRefinerMatchesNilPath(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	region := geo.Rect{Min: geo.Point{X: 0, Y: 0}, Max: geo.Point{X: 8, Y: 8}}
	g, err := grid.NewWithBits(region, 3)
	if err != nil {
		t.Fatal(err)
	}
	p := dist.Params{Epsilon: 0.5}
	for _, m := range dist.Measures() {
		ds := randomDataset(rng, 40)
		cfg := Config{Measure: m, Params: p, Grid: g}
		for _, layout := range dynLayouts {
			idx := buildDyn(t, layout, cfg, ds)
			for i := 0; i < 20; i++ {
				q := randomDataset(rng, 1)[0]
				plain, err := idx.SearchContext(nil, q.Points, 5, SearchOptions{})
				if err != nil {
					t.Fatal(err)
				}
				viaRefiner, err := idx.SearchContext(nil, q.Points, 5, SearchOptions{Refiner: WholeRefiner(m, p)})
				if err != nil {
					t.Fatal(err)
				}
				assertRefinedItems(t, fmt.Sprintf("measure=%v layout=%s i=%d", m, layout, i), viaRefiner, plain)
				radius := 0.5 + rng.Float64()*2
				plainR, err := idx.SearchRadiusContext(nil, q.Points, radius, SearchOptions{})
				if err != nil {
					t.Fatal(err)
				}
				refR, err := idx.SearchRadiusContext(nil, q.Points, radius, SearchOptions{Refiner: WholeRefiner(m, p)})
				if err != nil {
					t.Fatal(err)
				}
				assertRefinedItems(t, fmt.Sprintf("radius measure=%v layout=%s i=%d", m, layout, i), refR, plainR)
			}
		}
	}
}
