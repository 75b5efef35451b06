package rptrie

import (
	"math"
	"math/rand"
	"testing"

	"repose/internal/dist"
	"repose/internal/geo"
	"repose/internal/grid"
	"repose/internal/pivot"
	"repose/internal/storage/failpoint"
)

// radiusHandles are the index shapes a radius query runs through: the
// pointer layout, the compressed one, and a pointer index made durable
// on an in-memory filesystem. The radius walk is one DFS over every
// core, so all three must answer identically.
var radiusHandles = []struct {
	name  string
	build func(t *testing.T, cfg Config, ds []*geo.Trajectory) *Index
}{
	{"pointer", func(t *testing.T, cfg Config, ds []*geo.Trajectory) *Index {
		return buildDyn(t, "pointer", cfg, ds)
	}},
	{"compressed", func(t *testing.T, cfg Config, ds []*geo.Trajectory) *Index {
		return buildDyn(t, "compressed", cfg, ds)
	}},
	{"durable", func(t *testing.T, cfg Config, ds []*geo.Trajectory) *Index {
		t.Helper()
		x, err := BuildDurable("part", cfg, ds, DurableOptions{VFS: failpoint.New(1)})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { x.Close() })
		return x
	}},
}

// TestSearchRadiusMatchesBruteForce: range results must be exactly
// the trajectories within the radius, for every measure and every
// index shape.
func TestSearchRadiusMatchesBruteForce(t *testing.T) {
	region := geo.Rect{Min: geo.Point{X: 0, Y: 0}, Max: geo.Point{X: 8, Y: 8}}
	g, err := grid.NewWithBits(region, 4)
	if err != nil {
		t.Fatal(err)
	}
	p := dist.Params{Epsilon: 0.5, Gap: geo.Point{}}
	for _, h := range radiusHandles {
		t.Run(h.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(55))
			for trial := 0; trial < 10; trial++ {
				ds := randomDataset(rng, 80)
				q := randomDataset(rng, 1)[0]
				for _, m := range dist.Measures() {
					pivots := pivot.Select(ds, 3, 5, m, p, 3)
					idx := h.build(t, Config{Measure: m, Params: p, Grid: g, Pivots: pivots}, ds)
					for _, radius := range []float64{0.5, 2.0, 100.0} {
						got := idx.SearchRadius(q.Points, radius)
						want := map[int]float64{}
						for _, tr := range ds {
							if d := dist.Distance(m, q.Points, tr.Points, p); d <= radius {
								want[tr.ID] = d
							}
						}
						if len(got) != len(want) {
							t.Fatalf("%v radius %v trial %d: got %d results, want %d",
								m, radius, trial, len(got), len(want))
						}
						for i, r := range got {
							w, ok := want[r.ID]
							if !ok {
								t.Fatalf("%v: unexpected id %d", m, r.ID)
							}
							if d := r.Dist - w; d > 1e-9 || d < -1e-9 {
								t.Fatalf("%v: id %d dist %v want %v", m, r.ID, r.Dist, w)
							}
							if i > 0 && got[i-1].Dist > r.Dist {
								t.Fatalf("%v: results unsorted", m)
							}
						}
					}
				}
			}
		})
	}
}

func TestSearchRadiusEdgeCases(t *testing.T) {
	ds, q, g := paperDataset()
	for _, h := range radiusHandles {
		t.Run(h.name, func(t *testing.T) {
			idx := h.build(t, Config{Measure: dist.Hausdorff, Grid: g}, ds)
			if got := idx.SearchRadius(nil, 5); got != nil {
				t.Errorf("empty query = %v", got)
			}
			if got := idx.SearchRadius(q.Points, -1); got != nil {
				t.Errorf("negative radius = %v", got)
			}
			if got := idx.SearchRadius(q.Points, math.NaN()); got != nil {
				t.Errorf("NaN radius = %v", got)
			}
			// Radius 0 with an exact duplicate finds it.
			dup := idx.SearchRadius(ds[0].Points, 0)
			if len(dup) != 1 || dup[0].ID != ds[0].ID {
				t.Errorf("radius 0 = %v", dup)
			}
			// Example 1 distances: radius 3.0 captures τ1 (2.83) only.
			got := idx.SearchRadius(q.Points, 3.0)
			if len(got) != 1 || got[0].ID != 1 {
				t.Errorf("radius 3 = %v, want only τ1", got)
			}
			// Radius 6.5 captures τ1, τ4, τ2, τ5 (2.83, 3.16, 6.08, 6.08).
			got = idx.SearchRadius(q.Points, 6.5)
			if len(got) != 4 {
				t.Errorf("radius 6.5 = %v, want 4 results", got)
			}
		})
	}
}
