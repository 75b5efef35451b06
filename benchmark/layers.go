package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"time"

	"repose"
	"repose/internal/dist"
	"repose/internal/geo"
	"repose/internal/partition"
	"repose/internal/pivot"
	"repose/internal/rptrie"
	"repose/internal/topk"
)

// probeQueries is the number of sampled queries each layer probe
// replays.
const probeQueries = 16

// partIndex is the part of a partition index the rptrie probes call;
// both the pointer and the compressed layout provide it.
type partIndex interface {
	SearchWithStats(q []geo.Point, k int) ([]topk.Item, rptrie.SearchStats)
	SearchContext(ctx context.Context, q []geo.Point, k int, opt rptrie.SearchOptions) ([]topk.Item, error)
	SearchAppend(dst []topk.Item, q []geo.Point, k int) []topk.Item
	SizeBytes() int
}

// probeLayers measures each layer alone, from outside, by timing calls
// into its public functions on the workload's data: the build steps the
// facade runs (partition assignment, pivot selection, per-partition
// trie builds), a replay of sampled queries against each partition
// trie, the distance kernels on the refinements those replays make, and
// allocation counts of the trie and the facade.
func (r *run) probeLayers(idx *repose.Index, in *inputs) error {
	ctx := context.Background()
	m := in.opts.Measure
	seed := in.opts.Seed
	if seed == 0 {
		seed = 1 // the facade's default, which Build applied
	}
	rng := rand.New(rand.NewSource(r.seed*31 + 3))
	qs := make([]*geo.Trajectory, probeQueries)
	for i := range qs {
		qs[i] = in.held[rng.Intn(len(in.held))]
	}

	// Set-up steps, as repose.Build runs them.
	t0 := time.Now()
	assign, err := partition.Assign(in.opts.Strategy, in.indexed, in.grid, partitions, seed)
	if err != nil {
		return err
	}
	r.set("partition.assign_s", time.Since(t0).Seconds())
	parts := partition.Split(in.indexed, assign, partitions)
	t0 = time.Now()
	pivots := pivot.Select(in.indexed, 5, pivot.DefaultGroups, m, in.params, seed)
	r.set("pivot.select_s", time.Since(t0).Seconds())
	cfg := rptrie.Config{Measure: m, Params: in.params, Grid: in.grid, Pivots: pivots, Optimize: m.OrderIndependent()}
	var pointer, compressed []partIndex
	var buildPointer, buildCompressed time.Duration
	for _, part := range parts {
		if len(part) == 0 {
			continue
		}
		t0 := time.Now()
		trie, err := rptrie.Build(cfg, part)
		if err != nil {
			return err
		}
		buildPointer += time.Since(t0)
		t0 = time.Now()
		c, err := rptrie.CompressTST(trie)
		if err != nil {
			return err
		}
		buildCompressed += time.Since(t0)
		pointer, compressed = append(pointer, trie), append(compressed, c)
	}
	own, build := pointer, buildPointer
	if in.opts.Layout == repose.LayoutCompressed {
		own, build = compressed, buildPointer+buildCompressed
	}
	r.set("rptrie.build_s", build.Seconds())

	// Trie traversal, partition by partition, on the workload's layout.
	var calls []time.Duration
	var stats rptrie.SearchStats
	final := 0
	for _, q := range qs {
		h := topk.New(k)
		for _, p := range own {
			t0 := time.Now()
			items, st := p.SearchWithStats(q.Points, k)
			calls = append(calls, time.Since(t0))
			stats.NodesExpanded += st.NodesExpanded
			stats.EntriesPushed += st.EntriesPushed
			stats.ExactComputations += st.ExactComputations
			for _, it := range items {
				h.PushItem(it)
			}
		}
		final += h.Len()
	}
	nq := float64(len(qs))
	r.set("rptrie.search_us_p50", float64(pct(calls, 0.5))/float64(time.Microsecond))
	r.set("rptrie.nodes_expanded", float64(stats.NodesExpanded)/nq)
	r.set("rptrie.entries_pushed", float64(stats.EntriesPushed)/nq)
	r.set("rptrie.exact_computations", float64(stats.ExactComputations)/nq)
	r.set("rptrie.refine_yield", ratio(float64(final), float64(stats.ExactComputations)))
	size := 0
	for _, p := range own {
		size += p.SizeBytes()
	}
	r.set("rptrie.index_mb", float64(size)/1e6)
	for name, set := range map[string][]partIndex{"pointer": pointer, "compressed": compressed} {
		var dst []topk.Item
		n := len(set) * len(qs)
		a, _ := allocsPer(n, func(i int) { dst = set[i%len(set)].SearchAppend(dst[:0], qs[i/len(set)].Points, k) })
		r.set("rptrie.allocs_per_search."+name, a)
	}

	// Distance kernels, over the refinements the trie searches above
	// really make: each candidate a leaf hands to the refiner, with the
	// running k-th distance of its partition's search as threshold.
	log := &refineLog{Refiner: rptrie.WholeRefiner(m, in.params)}
	for _, q := range qs {
		for _, p := range own {
			if _, err := p.SearchContext(ctx, q.Points, k, rptrie.SearchOptions{Refiner: log}); err != nil {
				return fmt.Errorf("probe search: %w", err)
			}
		}
	}
	var scratch dist.Scratch
	var kernel time.Duration
	cells, abandoned := 0, 0
	for _, c := range log.calls {
		t0 := time.Now()
		dist.DistanceBoundedScratch(m, c.q, c.t, in.params, math.Inf(1), &scratch)
		kernel += time.Since(t0)
		cells += len(c.q) * len(c.t)
		if stoppedEarly(m, c.q, c.t, in.params, c.threshold, &scratch) {
			abandoned++
		}
	}
	r.set("dist.kernel_ns_per_cell", ratio(float64(kernel.Nanoseconds()), float64(cells)))
	r.set("dist.abandon_ratio", ratio(float64(abandoned), float64(len(log.calls))))
	const rounds = 8
	t0 = time.Now()
	for i := 0; i < rounds; i++ {
		for _, q := range qs {
			dist.NewQueryBounds(m, q.Points, in.grid, in.params)
		}
	}
	r.set("dist.querybounds_us", float64(time.Since(t0))/float64(time.Microsecond)/(rounds*nq))

	// The facade's top-k search, alone.
	var serr error
	a, b := allocsPer(len(qs), func(i int) {
		if _, err := idx.Search(ctx, qs[i], k); err != nil && serr == nil {
			serr = err
		}
	})
	if serr != nil {
		return fmt.Errorf("probe search: %w", serr)
	}
	r.set("cluster.allocs_per_search", a)
	r.set("cluster.bytes_per_search", b)
	return nil
}

// refineLog is the default whole-trajectory refiner with every call
// recorded: the query, the candidate and the threshold the search
// bounded it by. The probe searches refine sequentially, so calls need
// no lock.
type refineLog struct {
	rptrie.Refiner
	calls []refineCall
}

type refineCall struct {
	q         []geo.Point
	t         []geo.Point
	threshold float64
}

func (l *refineLog) Refine(q []geo.Point, tr *geo.Trajectory, threshold float64, s *dist.Scratch) (float64, int, int) {
	l.calls = append(l.calls, refineCall{q: q, t: tr.Points, threshold: threshold})
	return l.Refiner.Refine(q, tr, threshold, s)
}

// stoppedEarly reports whether the bounded kernel, given threshold,
// gave up before its last step, doing less work than the unbounded
// call, rather than running to the end and returning a distance above
// threshold. It knows the two measures the workloads use and reports
// false for the others.
func stoppedEarly(m dist.Measure, q, t []geo.Point, p dist.Params, threshold float64, s *dist.Scratch) bool {
	if !math.IsInf(dist.DistanceBoundedScratch(m, q, t, p, threshold, s), 1) {
		return false
	}
	switch m {
	case dist.Frechet:
		// The dynamic program fills one row per query point and gives up
		// after a row whose minimum exceeds threshold. A row depends only
		// on the query prefix up to it, so the call stopped before its
		// last row exactly when the query without its last point
		// already gives up.
		return len(q) > 1 && math.IsInf(dist.DistanceBoundedScratch(m, q[:len(q)-1], t, p, threshold, s), 1)
	case dist.Hausdorff:
		// The kernel scans q's points against t, then t's against q, and
		// gives up at the first point whose nearest neighbour lies
		// beyond threshold. That is before its last step unless the
		// point is t's last one.
		return beyond(q, t, threshold, len(q)) || beyond(t, q, threshold, len(t)-1)
	}
	return false
}

// beyond reports whether any of a's first n points has no point of b
// within threshold.
func beyond(a, b []geo.Point, threshold float64, n int) bool {
	for _, x := range a[:n] {
		near := false
		for _, y := range b {
			if x.Dist(y) <= threshold {
				near = true
				break
			}
		}
		if !near {
			return true
		}
	}
	return false
}
