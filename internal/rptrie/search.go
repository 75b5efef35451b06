package rptrie

import (
	"context"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"repose/internal/dist"
	"repose/internal/geo"
	"repose/internal/pivot"
	"repose/internal/topk"
)

// SearchOptions modulates one query without rebuilding the trie.
type SearchOptions struct {
	// NoPivots skips the pivot lower bound (LBp) for this query,
	// including the up-front query-to-pivot distance computations.
	NoPivots bool

	// RefineWorkers parallelizes exact-distance refinement of fat
	// leaves across this many goroutines (values < 2 refine
	// sequentially). Results are identical to the sequential path;
	// see doc.go for the admissibility argument behind the shared
	// atomic threshold.
	RefineWorkers int

	// MinGen pins the query to index generation MinGen or newer: the
	// query fails with ErrStale instead of answering from an older
	// snapshot. 0 (the default) accepts any snapshot. Mutations are
	// applied synchronously, so a pin taken from a completed mutation
	// never fails on the index it mutated; the pin guards replicas
	// and read-your-writes plumbing (see internal/cluster).
	MinGen uint64

	// Stats, when non-nil, receives the query's traversal statistics —
	// the per-call form of SearchWithStats that the context entry
	// points support, so scatter layers can account refinement work
	// per partition without a second search.
	Stats *SearchStats

	// Refiner replaces the default whole-trajectory exact-distance
	// leaf refinement (nil keeps it). A subsequence refiner switches
	// the traversal to the segment bounds; see Refiner.
	Refiner Refiner

	// Shared, when non-nil, is the k-th distance bound this scan
	// shares with concurrent scans of the same query over other
	// partitions. The scan prunes at the tighter of its own k-th
	// distance and Shared, and offers its own once its heap is full.
	// The results then hold every item of this partition that can
	// place in the merged top-k over all the sharing scans, rather
	// than the full local top-k; see doc.go.
	Shared *topk.Bound
}

// ctxCheckMask throttles context polling: deadlines are checked every
// ctxCheckMask+1 units of search work (heap pops and exact distance
// computations), keeping the checkpoint overhead unmeasurable while
// still stopping a partition scan mid-flight.
const ctxCheckMask = 63

// minParallelLeaf is the smallest leaf (member count) worth spawning
// refinement workers for; smaller leaves refine sequentially even
// when RefineWorkers is set.
const minParallelLeaf = 4

// ctxPoller is the throttled cancellation check of the top-k search
// and the range walk. It is single-goroutine state: concurrent
// refinement workers each get their own poller (sharing one would
// race on ops).
type ctxPoller struct {
	ctx context.Context // nil: cancellation disabled
	ops int             // work units so far, for throttling
}

// cancelled reports whether the query should abort, polling the
// context only every ctxCheckMask+1 calls.
func (p *ctxPoller) cancelled() bool {
	if p.ctx == nil {
		return false
	}
	p.ops++
	if p.ops&ctxCheckMask != 0 {
		return false
	}
	return p.ctx.Err() != nil
}

// err returns the context's error, nil when cancellation is disabled.
func (p *ctxPoller) err() error {
	if p.ctx == nil {
		return nil
	}
	return p.ctx.Err()
}

// SearchStats summarizes the work one query performed.
type SearchStats struct {
	NodesExpanded     int // internal nodes popped and expanded
	LeavesRefined     int // leaf entries popped and refined
	ExactComputations int // full distance computations on trajectories
	EntriesPushed     int // queue insertions
}

// searchNode abstracts trie navigation so the pointer and compressed
// layouts share one best-first search and one radius walk. The
// methods are append/value shaped (no callbacks) so the hot loops
// build no closures.
type searchNode interface {
	// appendChildren appends the node's children in ascending z
	// order and returns the extended slice.
	appendChildren(dst []childEdge) []childEdge
	// leafView returns the node's terminal payload, if any.
	leafView() (lv leafView, ok bool)
	// meta returns the subtree metadata for LBo.
	meta() dist.NodeMeta
	// pivotLB returns the pivot lower bound LBp against the
	// query-to-pivot distances dqp, or 0 when either side has no
	// pivot data.
	pivotLB(dqp []float64) float64
}

// childEdge is one labeled edge out of a searchNode.
type childEdge struct {
	z uint64
	n searchNode
}

// leafView exposes a terminal payload without committing to a layout.
type leafView struct {
	tids           []int32
	dmax           float64
	minLen, maxLen int
}

// ptrNode adapts *node to searchNode.
type ptrNode struct{ n *node }

func (c *ptrCore) searchRoot(*searchScratch) searchNode { return ptrNode{c.root} }
func (c *ptrCore) layout() Layout                       { return LayoutPointer }
func (c *ptrCore) counts() (nodes, leaves int)          { return c.numNodes, c.numLeafs }

func (p ptrNode) appendChildren(dst []childEdge) []childEdge {
	for _, c := range p.n.children {
		dst = append(dst, childEdge{z: c.z, n: ptrNode{c}})
	}
	return dst
}

func (p ptrNode) leafView() (leafView, bool) {
	if p.n.leaf == nil {
		return leafView{}, false
	}
	l := p.n.leaf
	return leafView{tids: l.tids, dmax: l.dmax, minLen: l.minLen, maxLen: l.maxLen}, true
}

func (p ptrNode) meta() dist.NodeMeta {
	return dist.NodeMeta{MinLen: p.n.minLen, MaxLen: p.n.maxLen, MaxDepthBelow: p.n.maxDepthBelow}
}

func (p ptrNode) pivotLB(dqp []float64) float64 {
	if dqp == nil || p.n.hr == nil {
		return 0
	}
	return pivot.LowerBound(dqp, p.n.hr)
}

// searchScratch is the recycled per-query working set: the memoized
// bound state, DP rows, priority queue, result heap, and every
// auxiliary slice the best-first loop touches. One scratch serves one
// query at a time; the per-index pool (see scratchPool) hands them
// out, so in steady state a query performs no heap allocations.
type searchScratch struct {
	qb       *dist.QueryBounds
	ds       dist.Scratch
	res      topk.Heap
	pq       entryQueue
	children []childEdge // expand's child list; the radius walk's edge stack
	dqp      []float64
	items    []topk.Item     // range-walk accumulator
	wds      []*dist.Scratch // per-worker DP rows for parallel refinement
	bound    topk.Bound      // the query's own bound when none is shared

	// cmpRefs is the compressed layout's node-ref arena: refs are
	// interface-boxed into entries, and boxing a pointer into the
	// arena is allocation-free where boxing a multi-word value is
	// not. Reset per query; at its high-water mark appends stop
	// allocating. Growth may relocate the backing array — previously
	// handed-out pointers stay valid (refs are immutable).
	cmpRefs []cmpRef
}

// scratchPool recycles searchScratch values. One pool per index (not
// a global) keeps buffer sizes stable: every scratch in a pool has
// grown to that index's query working-set high-water mark, so a Get
// is a handful of slice re-slices rather than fresh allocations.
type scratchPool struct{ p sync.Pool }

func (sp *scratchPool) get() *searchScratch {
	if v := sp.p.Get(); v != nil {
		return v.(*searchScratch)
	}
	return &searchScratch{qb: &dist.QueryBounds{}}
}

func (sp *scratchPool) put(sc *searchScratch) { sp.p.Put(sc) }

// boundBudget caps the number of internal-node expansions a bound walk
// performs before settling for the queue's current minimum. The walk
// is a pruning aid, not an answer: a few dozen expansions already
// separate a far partition from a contending one.
const boundBudget = 64

// lowerBound runs the capped best-first descent behind BoundContext. With
// an empty result heap the threshold is +Inf, so expand prunes
// nothing: every subtree is represented in the queue by an entry whose
// lb lower-bounds all trajectories beneath it. The queue minimum is
// therefore an admissible bound for the whole index at every step —
// popping internal entries only tightens it, and the walk may stop at
// any point (first leaf popped, or budget exhausted) and return the
// current minimum. Tombstoned members can only make the bound looser,
// never tighter, so deletions preserve admissibility.
func (s *searcher) lowerBound(root searchNode, q []geo.Point) (float64, error) {
	if len(q) == 0 {
		return 0, nil
	}
	if len(s.trajs) == 0 && len(s.adds) == 0 {
		return math.Inf(1), nil
	}
	if len(s.adds) > 0 {
		return 0, nil
	}
	if err := s.err(); err != nil {
		return 0, err
	}
	var stats SearchStats
	sc := s.sc
	sc.res.Reset(1)
	// The walk bounds the whole index: no shared bound may prune it.
	sc.bound.Reset()
	s.bound = &sc.bound
	var dqp []float64
	if s.cfg.Pivots != nil && !s.cfg.DisableLBp && !s.noPivots && !s.subseq {
		sc.dqp = pivot.AppendDistances(sc.dqp[:0], q, s.cfg.Pivots, s.cfg.Measure, s.cfg.Params, &sc.ds)
		dqp = sc.dqp
	}
	pq := &sc.pq
	pq.reset()
	sc.qb.Reset(s.cfg.Measure, q, s.cfg.Grid, s.cfg.Params)
	s.expand(root, sc.qb.Root(), pq, &sc.res, dqp, &stats)
	for pq.len() > 0 {
		if s.cancelled() {
			return 0, s.err()
		}
		e := pq.pop()
		if e.isLeaf || stats.NodesExpanded >= boundBudget {
			// e.lb is the queue minimum: admissible for everything
			// still queued, and a leaf's lb lower-bounds its members.
			return e.lb, nil
		}
		stats.NodesExpanded++
		s.expand(e.n, e.b, pq, &sc.res, dqp, &stats)
	}
	// Queue drained without reaching a leaf: nothing is indexed.
	return math.Inf(1), nil
}

// searcher is the layout-independent best-first top-k search.
type searcher struct {
	ctxPoller
	cfg           Config
	trajs         map[int32]*geo.Trajectory
	adds          []*geo.Trajectory  // pending inserts, scanned exactly
	dels          map[int32]struct{} // tombstones filtered at refinement
	noPivots      bool
	refineWorkers int
	refiner       Refiner // nil: default whole-trajectory refinement
	subseq        bool    // refiner scores segments: use LBoSub, no LBt/LBp
	sc            *searchScratch

	// bound is the k-th distance bound the scan prunes at besides its
	// own heap: SearchOptions.Shared, or else the scratch's private
	// one, reset per query (lowerBound always uses the private one).
	// It never falls below the global k-th distance of the scans that
	// share it (see doc.go).
	bound *topk.Bound
}

// newSearcher sets up one query over state st with its per-call
// options and context. A nil refiner keeps the built-in
// whole-trajectory refinement on the allocation-free inline path; a
// subsequence refiner additionally switches every traversal bound to
// the segment bound. Empty delta components stay nil so the hot
// loop's emptiness checks cost one pointer comparison.
func newSearcher(ctx context.Context, cfg Config, st *state, sc *searchScratch, opt SearchOptions) searcher {
	s := searcher{
		ctxPoller:     ctxPoller{ctx: ctx},
		cfg:           cfg,
		trajs:         st.trajs,
		sc:            sc,
		noPivots:      opt.NoPivots,
		refineWorkers: opt.RefineWorkers,
		refiner:       opt.Refiner,
		subseq:        opt.Refiner != nil && opt.Refiner.Subsequence(),
		bound:         opt.Shared,
	}
	if d := st.delta; d != nil {
		if len(d.adds) > 0 {
			s.adds = d.adds
		}
		if len(d.dels) > 0 {
			s.dels = d.dels
		}
	}
	return s
}

// threshold is the scan's pruning threshold: its own k-th distance
// or the shared bound, whichever is tighter.
func (s *searcher) threshold(results *topk.Heap) float64 {
	dk := results.Threshold()
	if b := s.bound.Load(); b < dk {
		return b
	}
	return dk
}

// pushCandidate offers one refined candidate to a scan's heap and,
// once the heap is full, offers the heap's k-th distance to the
// bound. A candidate the bound excludes is dropped even while the
// heap is not full: a kernel cut off at the bound may have returned
// +Inf for it, and it cannot place in the merged answer anyway.
// Refined items go through PushItem, which also rejects the +Inf of
// an ineligible candidate.
func pushCandidate(results *topk.Heap, bound *topk.Bound, refined bool, it topk.Item) {
	if bound.Excludes(it.Dist) {
		return
	}
	var kept bool
	if refined {
		kept = results.PushItem(it)
	} else {
		kept = results.Push(it.ID, it.Dist)
	}
	if kept {
		bound.Offer(results)
	}
}

// run executes the best-first loop, appending the final results to
// dst (nil allocates a fresh result slice — the only steady-state
// allocation of the non-append entry points).
func (s *searcher) run(root searchNode, q []geo.Point, k int, dst []topk.Item) ([]topk.Item, SearchStats, error) {
	var stats SearchStats
	if k <= 0 || len(q) == 0 || (len(s.trajs) == 0 && len(s.adds) == 0) {
		return dst, stats, nil
	}
	if err := s.err(); err != nil {
		return dst, stats, err
	}
	sc := s.sc
	sc.res.Reset(k)
	results := &sc.res
	if s.bound == nil {
		sc.bound.Reset()
		s.bound = &sc.bound
	}

	// Pending inserts are not covered by any trie bound: answer them
	// with an exact linear scan first, so the threshold they establish
	// also prunes the trie walk below.
	if len(s.adds) > 0 {
		if err := s.scanDelta(q, results, &stats); err != nil {
			return dst, stats, err
		}
	}

	var dqp []float64
	if s.cfg.Pivots != nil && !s.cfg.DisableLBp && !s.noPivots && !s.subseq {
		sc.dqp = pivot.AppendDistances(sc.dqp[:0], q, s.cfg.Pivots, s.cfg.Measure, s.cfg.Params, &sc.ds)
		dqp = sc.dqp
	}

	pq := &sc.pq
	pq.reset()
	sc.qb.Reset(s.cfg.Measure, q, s.cfg.Grid, s.cfg.Params)
	s.expand(root, sc.qb.Root(), pq, results, dqp, &stats)

	for pq.len() > 0 {
		if s.cancelled() {
			return dst, stats, s.err()
		}
		e := pq.pop()
		dk := s.threshold(results)
		if e.lb >= dk {
			// Every queued entry has lb ≥ e.lb ≥ dk, and lb
			// lower-bounds the distance of every trajectory beneath
			// it, so nothing better remains (Step 2 of Section IV-A).
			break
		}
		if e.isLeaf {
			stats.LeavesRefined++
			if err := s.refine(e.lv, q, results, &stats); err != nil {
				return dst, stats, err
			}
			continue
		}
		stats.NodesExpanded++
		s.expand(e.n, e.b, pq, results, dqp, &stats)
	}
	return results.AppendResults(dst), stats, nil
}

// expand pushes n's leaf entry (if any) and child entries whose
// bounds do not already exceed the current threshold. It consumes the
// bound state b: either a child entry takes ownership of it or it is
// released back to the arena.
func (s *searcher) expand(n searchNode, b *dist.PathBounder, pq *entryQueue, results *topk.Heap, dqp []float64, stats *SearchStats) {
	sc := s.sc
	dk := s.threshold(results)
	lbp := n.pivotLB(dqp)

	if lv, ok := n.leafView(); ok {
		lb := lbp
		if s.subseq {
			// Segment scoring: only the segment bound is admissible
			// (the leaf path is complete by construction).
			lb = b.LBoSub(dist.NodeMeta{MinLen: lv.minLen, MaxLen: lv.maxLen})
		} else if !s.cfg.DisableLBt {
			meta := dist.LeafMeta{
				NodeMeta: dist.NodeMeta{MinLen: lv.minLen, MaxLen: lv.maxLen},
				Dmax:     lv.dmax,
			}
			lb = math.Max(lb, b.LBtBounded(meta, dk, &sc.ds))
		} else {
			lb = math.Max(lb, b.LBo(n.meta()))
		}
		if lb < dk {
			pq.push(entry{lb: lb, lv: lv, isLeaf: true})
			stats.EntriesPushed++
		}
	}

	children := n.appendChildren(sc.children[:0])
	sc.children = children
	owned := false // whether a pushed child entry took ownership of b
	for i, ce := range children {
		var cb *dist.PathBounder
		last := i == len(children)-1
		if last {
			// The last child takes the parent's bound state instead
			// of forking it.
			cb = b
		} else {
			cb = b.Fork()
		}
		cb.ExtendZ(ce.z)

		var lb float64
		if s.subseq {
			lb = cb.LBoSub(ce.n.meta())
		} else {
			clbp := ce.n.pivotLB(dqp)
			if clbp < lbp {
				clbp = lbp
			}
			lb = math.Max(cb.LBo(ce.n.meta()), clbp)
		}
		if lb < s.threshold(results) {
			pq.push(entry{lb: lb, n: ce.n, b: cb})
			stats.EntriesPushed++
			owned = owned || last
		} else if !last {
			cb.Release()
		}
	}
	if !owned {
		b.Release()
	}
}

// scanDelta refines every pending insert exactly, threshold-cut like
// any leaf member. The append buffer is unordered; the heap's final
// (distance, id) sort keeps results deterministic.
func (s *searcher) scanDelta(q []geo.Point, results *topk.Heap, stats *SearchStats) error {
	for _, tr := range s.adds {
		if s.cancelled() {
			return s.err()
		}
		stats.ExactComputations++
		pushCandidate(results, s.bound, s.refiner != nil, s.refineOne(q, tr.ID, tr, s.threshold(results)))
	}
	return nil
}

// refineOne scores candidate tr, reported as id, cut off at
// threshold, through the query's refiner or the built-in exact kernel.
func (s *searcher) refineOne(q []geo.Point, id int, tr *geo.Trajectory, threshold float64) topk.Item {
	if s.refiner != nil {
		d, start, end := s.refiner.Refine(q, tr, threshold, &s.sc.ds)
		return topk.Item{ID: id, Dist: d, Start: start, End: end}
	}
	return topk.Item{ID: id, Dist: dist.DistanceBoundedScratch(s.cfg.Measure, q, tr.Points, s.cfg.Params, threshold, &s.sc.ds)}
}

// refine computes exact distances for a leaf's members, with
// early-abandoning kernels cut off at the current threshold. Until
// the result heap is full that threshold is the bound alone, and
// pushCandidate drops what the bound excludes, so no abandoned (+Inf)
// value is ever retained.
func (s *searcher) refine(lv leafView, q []geo.Point, results *topk.Heap, stats *SearchStats) error {
	if s.refineWorkers > 1 && len(lv.tids) >= minParallelLeaf {
		return s.refineParallel(lv, q, results, stats)
	}
	for _, tid := range lv.tids {
		if s.dels != nil {
			if _, dead := s.dels[tid]; dead {
				continue
			}
		}
		if s.cancelled() {
			return s.err()
		}
		stats.ExactComputations++
		pushCandidate(results, s.bound, s.refiner != nil, s.refineOne(q, int(tid), s.trajs[tid], s.threshold(results)))
	}
	return nil
}

// refineParallel fans one leaf's exact-distance computations over a
// worker group. The call is a plain function handoff (not a method
// closure over the searcher) so the sequential path's searcher never
// escapes to the heap.
func (s *searcher) refineParallel(lv leafView, q []geo.Point, results *topk.Heap, stats *SearchStats) error {
	sc := s.sc
	nw := clampWorkers(s.refineWorkers, len(lv.tids))
	for len(sc.wds) < nw {
		sc.wds = append(sc.wds, new(dist.Scratch))
	}
	computed, err := refineLeafParallel(parallelRefine{
		ctx:     s.ctx,
		measure: s.cfg.Measure,
		params:  s.cfg.Params,
		refiner: s.refiner,
		trajs:   s.trajs,
		dels:    s.dels,
		tids:    lv.tids,
		q:       q,
		results: results,
		bound:   s.bound,
		wds:     sc.wds[:nw],
	})
	stats.ExactComputations += computed
	return err
}

// parallelRefine carries one leaf's parallel refinement inputs.
type parallelRefine struct {
	ctx     context.Context
	measure dist.Measure
	params  dist.Params
	refiner Refiner // nil: default whole-trajectory refinement
	trajs   map[int32]*geo.Trajectory
	dels    map[int32]struct{} // tombstoned members to skip
	tids    []int32
	q       []geo.Point
	results *topk.Heap
	bound   *topk.Bound
	wds     []*dist.Scratch
}

// refineLeafParallel refines one leaf over parallelFor workers.
// Workers cut their kernels off at the scan's bound, which holds the
// heap's own k-th distance once the heap is full (stale reads are
// only ever too large, which keeps the early-abandon admissible — see
// doc.go), and serialize heap pushes behind a mutex. It returns the
// number of exact computations performed and the context error, if
// any.
func refineLeafParallel(pr parallelRefine) (int, error) {
	var (
		computed atomic.Int64
		mu       sync.Mutex
	)
	err := parallelFor(pr.ctx, pr.wds, len(pr.tids), func(i int, ws *dist.Scratch) {
		tid := pr.tids[i]
		if pr.dels != nil {
			if _, dead := pr.dels[tid]; dead {
				return
			}
		}
		tr := pr.trajs[tid]
		var it topk.Item
		if pr.refiner != nil {
			d, start, end := pr.refiner.Refine(pr.q, tr, pr.bound.Load(), ws)
			it = topk.Item{ID: int(tid), Dist: d, Start: start, End: end}
		} else {
			d := dist.DistanceBoundedScratch(pr.measure, pr.q, tr.Points, pr.params, pr.bound.Load(), ws)
			it = topk.Item{ID: int(tid), Dist: d}
		}
		computed.Add(1)
		mu.Lock()
		pushCandidate(pr.results, pr.bound, pr.refiner != nil, it)
		mu.Unlock()
	})
	return int(computed.Load()), err
}

// parallelFor runs fn(i, ws) for every i in [0, n), one worker
// goroutine per scratch in wds. Workers claim indices through an
// atomic cursor and stop early once the context is cancelled (each
// worker polls through its own ctxPoller — sharing one would race on
// its ops counter). All workers are joined before returning, so no
// goroutine outlives the call; the return is ctx's error when the
// loop aborted early. Both the top-k and the range refinement build
// on this scaffolding.
func parallelFor(ctx context.Context, wds []*dist.Scratch, n int, fn func(i int, ws *dist.Scratch)) error {
	var (
		cursor atomic.Int64
		stop   atomic.Bool
		wg     sync.WaitGroup
	)
	for _, ws := range wds {
		wg.Add(1)
		go func(ws *dist.Scratch) {
			defer wg.Done()
			poller := ctxPoller{ctx: ctx}
			for !stop.Load() {
				i := int(cursor.Add(1)) - 1
				if i >= n {
					return
				}
				if poller.cancelled() {
					stop.Store(true)
					return
				}
				fn(i, ws)
			}
		}(ws)
	}
	wg.Wait()
	if stop.Load() {
		return ctx.Err()
	}
	return nil
}

// clampWorkers bounds a requested refinement worker count by the
// leaf's member count and the machine's cores. The request may arrive
// unvalidated over the RPC protocol, so the clamp is a safety bound,
// not just a heuristic.
func clampWorkers(n, members int) int {
	if max := runtime.GOMAXPROCS(0); n > max {
		n = max
	}
	if n > members {
		n = members
	}
	return n
}

// entry is one element of the best-first priority queue: either an
// internal node with its bound state, or a leaf awaiting refinement.
type entry struct {
	lb     float64
	n      searchNode
	b      *dist.PathBounder // nil for leaf entries
	lv     leafView
	isLeaf bool
	seq    int32 // FIFO tie-break for determinism
}

// entryQueue is a hand-rolled min-heap over entries ordered by
// (lb, seq). container/heap would box every entry through its
// interface{} surface — an allocation per push on the hot path.
type entryQueue struct {
	items []entry
	seq   int32
}

func (q *entryQueue) reset() {
	q.items = q.items[:0]
	q.seq = 0
}

func (q *entryQueue) len() int { return len(q.items) }

func (q *entryQueue) before(a, b entry) bool {
	if a.lb != b.lb {
		return a.lb < b.lb
	}
	return a.seq < b.seq
}

func (q *entryQueue) push(e entry) {
	e.seq = q.seq
	q.seq++
	q.items = append(q.items, e)
	i := len(q.items) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !q.before(q.items[i], q.items[parent]) {
			break
		}
		q.items[i], q.items[parent] = q.items[parent], q.items[i]
		i = parent
	}
}

func (q *entryQueue) pop() entry {
	top := q.items[0]
	n := len(q.items) - 1
	q.items[0] = q.items[n]
	q.items[n] = entry{} // release references held by the vacated slot
	q.items = q.items[:n]
	i := 0
	for {
		best := i
		if l := 2*i + 1; l < n && q.before(q.items[l], q.items[best]) {
			best = l
		}
		if r := 2*i + 2; r < n && q.before(q.items[r], q.items[best]) {
			best = r
		}
		if best == i {
			break
		}
		q.items[i], q.items[best] = q.items[best], q.items[i]
		i = best
	}
	return top
}
