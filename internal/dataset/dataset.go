// Package dataset provides seeded synthetic trajectory generators
// matched to the published statistics of the seven datasets in the
// paper's Table III, plus CSV round-tripping and query-set sampling.
//
// The real datasets sit behind registration walls (Didi GAIA) or are
// tens of GB (OSM); the generators reproduce the properties the
// experiments exercise: cardinality, length distribution, spatial
// span, and hot-spot skew.
package dataset

import (
	"fmt"
	"math"
	"math/rand"

	"repose/internal/geo"
)

// Spec describes a synthetic dataset.
type Spec struct {
	Name        string
	Cardinality int
	AvgLen      int     // mean points per trajectory
	SpanX       float64 // spatial span, degrees
	SpanY       float64
	Hotspots    int // number of hot-spot attractors (density skew)
	Seed        int64
}

// Paper preprocessing limits (Section VII-A): trajectories shorter
// than MinLen are removed and longer than MaxLen are split.
const (
	MinLen = 10
	MaxLen = 1000
)

// PaperSpecs returns the seven datasets of Table III with
// cardinalities multiplied by scale (the paper's run on 16 machines;
// scale ≈ 1/64 makes single-machine runs tractable while preserving
// relative dataset sizes). Scale does not alter lengths or spans.
func PaperSpecs(scale float64) []Spec {
	if scale <= 0 {
		scale = 1
	}
	card := func(n int) int {
		c := int(float64(n) * scale)
		if c < 50 {
			c = 50
		}
		return c
	}
	return []Spec{
		{Name: "T-drive", Cardinality: card(356228), AvgLen: 23, SpanX: 1.89, SpanY: 1.17, Hotspots: 40, Seed: 101},
		{Name: "SF", Cardinality: card(343696), AvgLen: 28, SpanX: 0.54, SpanY: 0.76, Hotspots: 30, Seed: 102},
		{Name: "Rome", Cardinality: card(99473), AvgLen: 152, SpanX: 1.21, SpanY: 0.86, Hotspots: 25, Seed: 103},
		{Name: "Porto", Cardinality: card(1613284), AvgLen: 49, SpanX: 11.7, SpanY: 14.2, Hotspots: 60, Seed: 104},
		{Name: "Xian", Cardinality: card(6645727), AvgLen: 230, SpanX: 0.09, SpanY: 0.08, Hotspots: 20, Seed: 105},
		{Name: "Chengdu", Cardinality: card(11327466), AvgLen: 189, SpanX: 0.09, SpanY: 0.07, Hotspots: 20, Seed: 106},
		{Name: "OSM", Cardinality: card(4464399), AvgLen: 596, SpanX: 360, SpanY: 180, Hotspots: 120, Seed: 107},
	}
}

// ByName finds a paper spec by (case-sensitive) name.
func ByName(name string, scale float64) (Spec, error) {
	for _, s := range PaperSpecs(scale) {
		if s.Name == name {
			return s, nil
		}
	}
	return Spec{}, fmt.Errorf("dataset: unknown dataset %q", name)
}

// Region returns the dataset's spatial extent (anchored at the
// origin; absolute geographic offsets do not affect distances).
func (s Spec) Region() geo.Rect {
	return geo.Rect{Min: geo.Point{X: 0, Y: 0}, Max: geo.Point{X: s.SpanX, Y: s.SpanY}}
}

// DefaultDelta returns the grid cell side δ the benchmark suite uses
// for the named dataset. bench_test.go and repose-bench -benchjson
// share this single definition so their numbers stay comparable.
func DefaultDelta(name string) float64 {
	switch name {
	case "T-drive":
		return 0.15
	case "Xian":
		return 0.01
	case "OSM":
		return 1.0
	default:
		return 0.05
	}
}

// Generate produces the dataset deterministically from its seed.
// Trajectories are hot-spot-to-hot-spot walks with heading momentum:
// a start attractor and destination attractor are drawn with skewed
// popularity, and the walk advances toward the destination with
// per-step noise, yielding road-like shapes with dense cores.
func Generate(spec Spec) []*geo.Trajectory {
	rng := rand.New(rand.NewSource(spec.Seed))
	if spec.Hotspots < 2 {
		spec.Hotspots = 2
	}
	if spec.AvgLen < MinLen {
		spec.AvgLen = MinLen
	}
	hx := make([]geo.Point, spec.Hotspots)
	for i := range hx {
		hx[i] = geo.Point{X: rng.Float64() * spec.SpanX, Y: rng.Float64() * spec.SpanY}
	}
	// Zipf-ish hotspot popularity.
	weights := make([]float64, spec.Hotspots)
	total := 0.0
	for i := range weights {
		weights[i] = 1 / float64(i+1)
		total += weights[i]
	}
	pick := func() geo.Point {
		r := rng.Float64() * total
		for i, w := range weights {
			r -= w
			if r <= 0 {
				return hx[i]
			}
		}
		return hx[len(hx)-1]
	}

	ds := make([]*geo.Trajectory, 0, spec.Cardinality)
	for id := 0; len(ds) < spec.Cardinality; id++ {
		n := int(float64(spec.AvgLen) + rng.NormFloat64()*float64(spec.AvgLen)/3)
		if n < MinLen {
			n = MinLen
		}
		if n > MaxLen {
			n = MaxLen
		}
		start := jitter(rng, pick(), spec.SpanX*0.02, spec.SpanY*0.02)
		dest := jitter(rng, pick(), spec.SpanX*0.02, spec.SpanY*0.02)
		tr := walk(rng, len(ds), start, dest, n, spec)
		ds = append(ds, tr)
	}
	return ds
}

func jitter(rng *rand.Rand, p geo.Point, sx, sy float64) geo.Point {
	return geo.Point{X: p.X + rng.NormFloat64()*sx, Y: p.Y + rng.NormFloat64()*sy}
}

// walk generates one trajectory of exactly n points from start
// toward dest with heading momentum and noise, clamped to the region.
func walk(rng *rand.Rand, id int, start, dest geo.Point, n int, spec Spec) *geo.Trajectory {
	pts := make([]geo.Point, 0, n)
	cur := clampPoint(start, spec)
	// Step length so the walk roughly spans start→dest in n steps.
	span := start.Dist(dest)
	if span == 0 {
		span = (spec.SpanX + spec.SpanY) / 200
	}
	step := span / float64(n)
	hdgX, hdgY := dest.X-start.X, dest.Y-start.Y
	norm := math.Hypot(hdgX, hdgY)
	if norm == 0 {
		hdgX, hdgY = 1, 0
	} else {
		hdgX, hdgY = hdgX/norm, hdgY/norm
	}
	for i := 0; i < n; i++ {
		pts = append(pts, cur)
		// Blend current heading with the direction to the
		// destination, plus turn noise.
		dx, dy := dest.X-cur.X, dest.Y-cur.Y
		dn := math.Hypot(dx, dy)
		if dn > 0 {
			dx, dy = dx/dn, dy/dn
		}
		hdgX = 0.8*hdgX + 0.2*dx + rng.NormFloat64()*0.3
		hdgY = 0.8*hdgY + 0.2*dy + rng.NormFloat64()*0.3
		hn := math.Hypot(hdgX, hdgY)
		if hn > 0 {
			hdgX, hdgY = hdgX/hn, hdgY/hn
		}
		cur = clampPoint(geo.Point{X: cur.X + hdgX*step, Y: cur.Y + hdgY*step}, spec)
	}
	return &geo.Trajectory{ID: id, Points: pts}
}

func clampPoint(p geo.Point, spec Spec) geo.Point {
	return geo.Point{
		X: math.Min(math.Max(p.X, 0), spec.SpanX),
		Y: math.Min(math.Max(p.Y, 0), spec.SpanY),
	}
}

// Queries samples n distinct trajectories from ds uniformly at random
// (the paper's query workload: 100 random trajectories), returning
// copies so callers may mutate them.
func Queries(ds []*geo.Trajectory, n int, seed int64) []*geo.Trajectory {
	if n > len(ds) {
		n = len(ds)
	}
	rng := rand.New(rand.NewSource(seed))
	out := make([]*geo.Trajectory, 0, n)
	for _, i := range rng.Perm(len(ds))[:n] {
		out = append(out, ds[i].Clone())
	}
	return out
}
