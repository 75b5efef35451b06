package rptrie

import (
	"context"
	"io"
	"sync"
	"sync/atomic"

	"repose/internal/geo"
	"repose/internal/topk"
)

// Index is a partition index: the RP-Trie over one partition's
// trajectories (the paper's RpTraj pairing of data and index). It is a
// stable handle over an atomically swapped immutable state, so
// concurrent readers are always snapshot-isolated from
// Insert/Delete/Upsert/Compact (see dynamic.go). The state's core is
// the pointer trie (Build) or its trit-array encoding (CompressTST);
// both hand the shared searchers a searchNode root, so each query
// entry point below runs one code path whatever the layout. An index
// made durable (BuildDurable, WrapDurable, OpenDurable) also journals
// every mutation to its write-ahead log before acknowledging it (see
// durable.go).
type Index struct {
	cfg  Config
	mu   sync.Mutex // serializes writers; guards wal
	cur  atomic.Pointer[state]
	pool scratchPool // recycled per-query search state
	wal  *wal        // nil: in memory only
}

// state is one immutable generation of an index: the compacted core
// (the trie structure plus the trajectories it covers) and the delta
// overlay of mutations applied since the last compaction. Queries load
// exactly one state through the atomic pointer and never observe a
// half-applied mutation; writers build a fresh state and swap it in.
type state struct {
	gen   uint64
	core  core
	trajs map[int32]*geo.Trajectory
	delta *delta // pending mutations; nil once compacted
}

// core is the immutable structure of a state in one layout: *ptrCore,
// the pointer trie, or *cmpCore, its trit-array encoding. Every
// generation shares it until a compaction builds the next one.
type core interface {
	// searchRoot returns the root as a searchNode. sc is the query's
	// scratch, whose arena the compressed core takes node refs from.
	searchRoot(sc *searchScratch) searchNode
	layout() Layout
	counts() (nodes, leaves int)
	sizeBytes() int
	// save writes the image of st, whose core this is and whose delta
	// is empty, after the format-version byte; Read under layout()
	// loads it back.
	save(w io.Writer, cfg Config, st *state) error
}

func newIndex(cfg Config, st *state) *Index {
	x := &Index{cfg: cfg}
	x.cur.Store(st)
	return x
}

// state returns the current immutable snapshot.
func (x *Index) state() *state { return x.cur.Load() }

// live returns the number of live trajectories: core members minus
// tombstones plus pending inserts.
func (st *state) live() int {
	n := len(st.trajs)
	if st.delta != nil {
		n += len(st.delta.adds) - len(st.delta.dels)
	}
	return n
}

// trajectory resolves id against the state: pending inserts shadow the
// core, tombstones hide it.
func (st *state) trajectory(tid int32) *geo.Trajectory {
	if tr, hit := st.delta.get(tid); hit {
		return tr
	}
	return st.trajs[tid]
}

// BuildLayout builds an index over ds in layout l.
func BuildLayout(cfg Config, ds []*geo.Trajectory, l Layout) (*Index, error) {
	if err := l.check(); err != nil {
		return nil, err
	}
	x, err := Build(cfg, ds)
	if err != nil || l == LayoutPointer {
		return x, err
	}
	return CompressTST(x)
}

// Read loads an image written by the Save of an index in layout l.
// An image of the retired succinct layout loads as LayoutCompressed.
func Read(l Layout, r io.Reader) (*Index, error) {
	switch l {
	case LayoutPointer:
		return ReadTrie(r)
	case layoutSuccinct:
		return readSuccinctImage(r)
	case LayoutCompressed:
		return ReadCompressed(r)
	}
	return nil, l.check()
}

// Save writes the index image that Read loads back under Layout. (Not
// named WriteTo: io.WriterTo's byte-count contract is meaningless
// through gob.) A pending delta is folded into the saved image, so the
// restored index always starts fully compacted — at the source's
// generation, so replicas restored from a peer's snapshot stay
// generation-aligned with it (cluster failover relies on this).
func (x *Index) Save(w io.Writer) error {
	st, err := compactedState(x.cfg, x.state())
	if err != nil {
		return err
	}
	if err := writeWireVersion(w); err != nil {
		return err
	}
	return st.core.save(w, x.cfg, st)
}

// Config returns the configuration the index was built with.
func (x *Index) Config() Config { return x.cfg }

// Layout reports the layout of the index's core.
func (x *Index) Layout() Layout { return x.state().core.layout() }

// Generation returns the snapshot's generation counter. It increases
// by one per applied mutation batch and per compaction.
func (x *Index) Generation() uint64 { return x.state().gen }

// DeltaLen returns the number of pending (uncompacted) mutations.
func (x *Index) DeltaLen() int { return x.state().delta.size() }

// Len returns the number of live indexed trajectories, including
// pending inserts and excluding pending deletes.
func (x *Index) Len() int { return x.state().live() }

// Trajectory returns the live indexed trajectory with the given id, or
// nil when the id is unknown or tombstoned.
func (x *Index) Trajectory(id int) *geo.Trajectory { return x.state().trajectory(int32(id)) }

// NumNodes returns the number of trie nodes, excluding the root (the
// count Fig. 7 reports). Pending inserts are not counted until the
// next compaction folds them in.
func (x *Index) NumNodes() int {
	n, _ := x.state().core.counts()
	return n
}

// NumLeaves returns the number of terminal nodes.
func (x *Index) NumLeaves() int {
	_, n := x.state().core.counts()
	return n
}

// SizeBytes estimates the in-memory footprint of the index structure
// (core and pending delta), excluding the raw trajectories. A durable
// index's store and buffer pool are not index state.
func (x *Index) SizeBytes() int {
	st := x.state()
	return st.core.sizeBytes() + st.delta.sizeBytes()
}

// LiveIDs returns the ids of every live trajectory, unordered — the
// input for rebuilding a driver's routing directory after recovery and
// for computing a split's keep set.
func (x *Index) LiveIDs() []int {
	st := x.state()
	out := make([]int, 0, st.live())
	for tid := range st.trajs {
		if st.delta != nil {
			if _, dead := st.delta.dels[tid]; dead {
				continue
			}
		}
		out = append(out, int(tid))
	}
	if st.delta != nil {
		for _, tr := range st.delta.adds {
			out = append(out, tr.ID)
		}
	}
	return out
}

// Search returns the top-k most similar trajectories to the query
// point sequence q (Algorithm 2). Results order ascending by
// (distance, id); fewer than k results are returned only when the
// index holds fewer than k trajectories. Under tied distances any
// valid top-k set may be returned.
func (x *Index) Search(q []geo.Point, k int) []topk.Item {
	res, _, _ := x.search(nil, nil, q, k, SearchOptions{})
	return res
}

// SearchAppend is Search appending the results to dst (which may be
// nil) and returning the extended slice. With a dst of sufficient
// capacity the whole query is allocation-free in steady state — the
// form the benchmark suite and other tight callers use.
func (x *Index) SearchAppend(dst []topk.Item, q []geo.Point, k int) []topk.Item {
	out, _, _ := x.search(nil, dst, q, k, SearchOptions{})
	return out
}

// SearchWithStats is Search, also reporting traversal statistics.
func (x *Index) SearchWithStats(q []geo.Point, k int) ([]topk.Item, SearchStats) {
	res, stats, _ := x.search(nil, nil, q, k, SearchOptions{})
	return res, stats
}

// SearchContext is Search honoring per-query options and a context:
// the best-first loop polls ctx periodically and aborts with ctx's
// error once it is cancelled or past its deadline, so a straggler
// partition can be stopped mid-scan (Section V-B's concern).
func (x *Index) SearchContext(ctx context.Context, q []geo.Point, k int, opt SearchOptions) ([]topk.Item, error) {
	res, _, err := x.search(ctx, nil, q, k, opt)
	return res, err
}

// SearchAppendContext is SearchAppend honoring per-query options and
// a context — the allocation-measured form of SearchContext. With a
// dst of sufficient capacity and the default (nil or whole-trajectory)
// refiner the delta-empty query is allocation-free in steady state,
// which CI asserts alongside the option-less path.
func (x *Index) SearchAppendContext(ctx context.Context, dst []topk.Item, q []geo.Point, k int, opt SearchOptions) ([]topk.Item, error) {
	out, _, err := x.search(ctx, dst, q, k, opt)
	return out, err
}

// search is the one top-k path behind every entry point above.
func (x *Index) search(ctx context.Context, dst []topk.Item, q []geo.Point, k int, opt SearchOptions) ([]topk.Item, SearchStats, error) {
	st := x.state()
	if opt.MinGen > st.gen {
		return dst, SearchStats{}, ErrStale
	}
	sc := x.pool.get()
	defer x.pool.put(sc)
	s := newSearcher(ctx, x.cfg, st, sc, opt)
	out, stats, err := s.run(st.core.searchRoot(sc), q, k, dst)
	if opt.Stats != nil {
		*opt.Stats = stats
	}
	return out, stats, err
}

// BoundContext returns an admissible lower bound on the distance from
// q to every trajectory held by the index: no indexed trajectory is
// closer to q than the returned value. +Inf means the index is empty.
// The bound is cheap — a best-first descent capped at boundBudget node
// expansions, no exact distance computations — and deliberately loose;
// its only promise is admissibility, which the driver's probe-budget
// pruning relies on (a partition whose bound already exceeds the
// current k-th distance cannot contribute to the final top-k).
// Pending inserts sit outside the trie and admit no bound, so any
// un-compacted delta collapses the bound to 0.
func (x *Index) BoundContext(ctx context.Context, q []geo.Point, opt SearchOptions) (float64, error) {
	st := x.state()
	if opt.MinGen > st.gen {
		return 0, ErrStale
	}
	sc := x.pool.get()
	defer x.pool.put(sc)
	s := newSearcher(ctx, x.cfg, st, sc, opt)
	return s.lowerBound(st.core.searchRoot(sc), q)
}
