package pivot

import (
	"math"
	"math/rand"

	"repose/internal/dist"
	"repose/internal/geo"
)

// Range is a closed distance interval [Min, Max].
type Range struct {
	Min, Max float64
}

// EmptyRange returns the identity element for Extend/Union.
func EmptyRange() Range {
	return Range{Min: math.Inf(1), Max: math.Inf(-1)}
}

// IsEmpty reports whether no distance has been recorded.
func (r Range) IsEmpty() bool { return r.Min > r.Max }

// Extend widens r to include d.
func (r Range) Extend(d float64) Range {
	return Range{Min: math.Min(r.Min, d), Max: math.Max(r.Max, d)}
}

// Union widens r to cover s.
func (r Range) Union(s Range) Range {
	if s.IsEmpty() {
		return r
	}
	if r.IsEmpty() {
		return s
	}
	return Range{Min: math.Min(r.Min, s.Min), Max: math.Max(r.Max, s.Max)}
}

// DefaultGroups is the number m of random candidate groups sampled by
// Select, following the practical method of Skopal et al. adopted by
// the paper.
const DefaultGroups = 10

// Select chooses np pivot trajectories from ds: it samples `groups`
// random groups of np trajectories, scores each group by the sum of
// pairwise distances, and returns the group with the largest score
// (Section III-B). Selection is deterministic for a given seed.
func Select(ds []*geo.Trajectory, np, groups int, m dist.Measure, p dist.Params, seed int64) []*geo.Trajectory {
	if np <= 0 || len(ds) == 0 {
		return nil
	}
	if np >= len(ds) {
		np = len(ds)
	}
	if groups < 1 {
		groups = 1
	}
	rng := rand.New(rand.NewSource(seed))
	var best []*geo.Trajectory
	bestScore := math.Inf(-1)
	for g := 0; g < groups; g++ {
		cand := sampleWithoutReplacement(rng, ds, np)
		score := 0.0
		for i := 0; i < len(cand); i++ {
			for j := i + 1; j < len(cand); j++ {
				score += dist.Distance(m, cand[i].Points, cand[j].Points, p)
			}
		}
		if score > bestScore {
			bestScore = score
			best = cand
		}
	}
	return best
}

func sampleWithoutReplacement(rng *rand.Rand, ds []*geo.Trajectory, n int) []*geo.Trajectory {
	idx := rng.Perm(len(ds))[:n]
	out := make([]*geo.Trajectory, n)
	for i, j := range idx {
		out[i] = ds[j]
	}
	return out
}

// Distances computes the exact distances from query q to each pivot.
// It is the O(Np·m·n) preprocessing step of Section IV-D, performed
// once per query.
func Distances(q []geo.Point, pivots []*geo.Trajectory, m dist.Measure, p dist.Params) []float64 {
	return AppendDistances(make([]float64, 0, len(pivots)), q, pivots, m, p, nil)
}

// AppendDistances is Distances appending to dst and computing in the
// given scratch buffers; with sufficient dst capacity and a non-nil
// scratch it does not allocate. The search hot path calls it with the
// pooled per-query scratch.
func AppendDistances(dst []float64, q []geo.Point, pivots []*geo.Trajectory, m dist.Measure, p dist.Params, s *dist.Scratch) []float64 {
	for _, pv := range pivots {
		dst = append(dst, dist.DistanceBoundedScratch(m, q, pv.Points, p, math.Inf(1), s))
	}
	return dst
}

// LowerBound evaluates LBp for a node with pivot ranges hr given the
// query-to-pivot distances dqp. Empty ranges contribute nothing.
func LowerBound(dqp []float64, hr []Range) float64 {
	lb := 0.0
	for i := range hr {
		if i >= len(dqp) {
			continue
		}
		if v := RangeBound(dqp[i], hr[i].Min, hr[i].Max); v > lb {
			lb = v
		}
	}
	return lb
}

// RangeBound is one pivot's LBp contribution: how far the
// query-to-pivot distance dq lies outside the closed interval
// [lo, hi] of member-to-pivot distances (0 inside, or when the
// interval is empty, i.e. lo > hi). The compressed layout evaluates
// it directly over its decoded quantized ranges so all LBp call sites
// share one formula.
func RangeBound(dq, lo, hi float64) float64 {
	if lo > hi {
		return 0
	}
	if v := dq - hi; v > 0 {
		return v
	}
	if v := lo - dq; v > 0 {
		return v
	}
	return 0
}
