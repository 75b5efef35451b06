package rptrie

import (
	"context"
	"math"
	"sync"

	"repose/internal/dist"
	"repose/internal/geo"
	"repose/internal/pivot"
	"repose/internal/topk"
)

// SearchRadius returns every indexed trajectory within distance
// radius of q, ascending by (distance, id). It reuses the top-k
// machinery with a fixed threshold instead of a shrinking dk — the
// range-query primitive DITA builds its top-k on, provided here as an
// extension (the paper's Section IX mentions range search only via
// DITA).
func (x *Index) SearchRadius(q []geo.Point, radius float64) []topk.Item {
	out, _ := x.SearchRadiusContext(nil, q, radius, SearchOptions{})
	return out
}

// SearchRadiusContext is SearchRadius honoring per-query options and
// cancellation: the walk polls ctx periodically and aborts with its
// error once it is cancelled or past its deadline. A nil ctx disables
// cancellation. A negative or NaN radius matches nothing.
func (x *Index) SearchRadiusContext(ctx context.Context, q []geo.Point, radius float64, opt SearchOptions) ([]topk.Item, error) {
	st := x.state()
	if opt.MinGen > st.gen {
		return nil, ErrStale
	}
	if len(q) == 0 || st.live() == 0 || !(radius >= 0) {
		return nil, nil
	}
	sc := x.pool.get()
	defer x.pool.put(sc)
	rq := rangeQuery{
		cfg: x.cfg, trajs: st.trajs,
		ctxPoller: ctxPoller{ctx: ctx}, sc: sc, q: q, radius: radius,
		workers: opt.RefineWorkers,
	}
	if d := st.delta; d != nil && len(d.dels) > 0 {
		rq.dels = d.dels
	}
	rq.setRefiner(opt.Refiner)
	if err := rq.err(); err != nil {
		return nil, err
	}
	if x.cfg.Pivots != nil && !x.cfg.DisableLBp && !opt.NoPivots && !rq.subseq {
		sc.dqp = pivot.AppendDistances(sc.dqp[:0], q, x.cfg.Pivots, x.cfg.Measure, x.cfg.Params, &sc.ds)
		rq.dqp = sc.dqp
	}
	sc.qb.Reset(x.cfg.Measure, q, x.cfg.Grid, x.cfg.Params)
	sc.items = sc.items[:0]
	// Pending inserts sit outside the trie: scan them exactly.
	if d := st.delta; d != nil {
		for _, tr := range d.adds {
			if rq.cancelled() {
				return nil, rq.err()
			}
			if it, ok := rq.refineOne(tr, &sc.ds); ok {
				sc.items = append(sc.items, it)
			}
		}
	}
	sc.children = sc.children[:0]
	if err := rq.walk(st.core.searchRoot(sc), sc.qb.Root()); err != nil {
		return nil, err
	}
	topk.SortItems(sc.items)
	if len(sc.items) == 0 {
		return nil, nil
	}
	// The accumulator is pooled; hand the caller its own copy.
	return append([]topk.Item(nil), sc.items...), nil
}

// rangeQuery carries one range query's state through the recursive
// walk; hits accumulate in the pooled sc.items.
type rangeQuery struct {
	ctxPoller
	cfg     Config
	trajs   map[int32]*geo.Trajectory
	dels    map[int32]struct{} // tombstones filtered at refinement
	sc      *searchScratch
	q       []geo.Point
	radius  float64
	dqp     []float64
	workers int
	refiner Refiner // nil: default whole-trajectory refinement
	subseq  bool    // refiner scores segments: use LBoSub, no LBt/LBp
}

// setRefiner attaches the query's refiner; see searcher.setRefiner.
func (rq *rangeQuery) setRefiner(r Refiner) {
	rq.refiner = r
	rq.subseq = r != nil && r.Subsequence()
}

// refineOne scores one candidate against the fixed radius and reports
// whether it is a hit. The returned item is fully populated (matched
// segment included when a subsequence refiner is active).
func (rq *rangeQuery) refineOne(tr *geo.Trajectory, s *dist.Scratch) (topk.Item, bool) {
	if rq.refiner != nil {
		d, start, end := rq.refiner.Refine(rq.q, tr, rq.radius, s)
		if d <= rq.radius && !math.IsInf(d, 1) {
			return topk.Item{ID: tr.ID, Dist: d, Start: start, End: end}, true
		}
		return topk.Item{}, false
	}
	d := dist.DistanceBoundedScratch(rq.cfg.Measure, rq.q, tr.Points, rq.cfg.Params, rq.radius, s)
	if d <= rq.radius && !math.IsInf(d, 1) {
		return topk.Item{ID: tr.ID, Dist: d}, true
	}
	return topk.Item{}, false
}

// walk prunes subtrees whose bound exceeds radius and refines
// surviving leaves. Depth-first: unlike top-k, range search gains
// nothing from best-first ordering because the threshold is fixed.
// n's children wait on the scratch's edge stack (sc.children) while
// the walk descends into them, so a warm scratch walks without
// allocating. walk consumes b: the last child takes ownership of it,
// so the caller must not reuse (only Release) it afterwards.
func (rq *rangeQuery) walk(n searchNode, b *dist.PathBounder) error {
	if rq.cancelled() {
		return rq.err()
	}
	if n.pivotLB(rq.dqp) > rq.radius {
		return nil
	}
	if lv, ok := n.leafView(); ok {
		meta := dist.NodeMeta{MinLen: lv.minLen, MaxLen: lv.maxLen}
		lb := 0.0
		if rq.subseq {
			lb = b.LBoSub(meta)
		} else if !rq.cfg.DisableLBt {
			lb = b.LBtBounded(dist.LeafMeta{NodeMeta: meta, Dmax: lv.dmax}, rq.radius, &rq.sc.ds)
		}
		if lb <= rq.radius {
			if err := rq.refineLeaf(lv.tids); err != nil {
				return err
			}
		}
	}
	sc := rq.sc
	base := len(sc.children)
	sc.children = n.appendChildren(sc.children)
	end := len(sc.children)
	for i := base; i < end; i++ {
		ce := sc.children[i] // re-read: deeper levels may grow the stack
		var cb *dist.PathBounder
		last := i == end-1
		if last {
			cb = b
		} else {
			cb = b.Fork()
		}
		cb.ExtendZ(ce.z)
		if rq.childLB(cb, ce.n.meta()) > rq.radius {
			if !last {
				cb.Release()
			}
			continue
		}
		err := rq.walk(ce.n, cb)
		if !last {
			cb.Release()
		}
		if err != nil {
			return err
		}
	}
	sc.children = sc.children[:base]
	return nil
}

// childLB is the subtree pruning bound of the walk: the segment bound
// under a subsequence refiner, LBo otherwise.
func (rq *rangeQuery) childLB(b *dist.PathBounder, meta dist.NodeMeta) float64 {
	if rq.subseq {
		return b.LBoSub(meta)
	}
	return b.LBo(meta)
}

// refineLeaf refines one surviving leaf's members, parallel when
// configured and the leaf is fat enough.
func (rq *rangeQuery) refineLeaf(tids []int32) error {
	if rq.workers > 1 && len(tids) >= minParallelLeaf {
		return rq.refineParallel(tids)
	}
	for _, tid := range tids {
		if rq.dels != nil {
			if _, dead := rq.dels[tid]; dead {
				continue
			}
		}
		if rq.cancelled() {
			return rq.err()
		}
		if it, ok := rq.refineOne(rq.trajs[tid], &rq.sc.ds); ok {
			rq.sc.items = append(rq.sc.items, it)
		}
	}
	return nil
}

// refineParallel fans one fat leaf's exact computations over
// parallelFor workers, the range-search counterpart of the top-k
// path's refineLeafParallel. The threshold is the fixed radius, so
// workers need no shared threshold at all: each appends its in-range
// hits behind a mutex, and the final (distance, id) sort makes the
// result order independent of worker interleaving — output stays
// bit-identical to the sequential walk.
func (rq *rangeQuery) refineParallel(tids []int32) error {
	sc := rq.sc
	nw := clampWorkers(rq.workers, len(tids))
	for len(sc.wds) < nw {
		sc.wds = append(sc.wds, new(dist.Scratch))
	}
	var mu sync.Mutex
	return parallelFor(rq.ctx, sc.wds[:nw], len(tids), func(i int, ws *dist.Scratch) {
		tid := tids[i]
		if rq.dels != nil {
			if _, dead := rq.dels[tid]; dead {
				return
			}
		}
		if it, ok := rq.refineOne(rq.trajs[tid], ws); ok {
			mu.Lock()
			sc.items = append(sc.items, it)
			mu.Unlock()
		}
	})
}
