package rptrie

import (
	"errors"
	"fmt"
	"sort"

	"repose/internal/geo"
)

// Online index maintenance (the generation/compaction scheme).
//
// Both layouts keep their structural core immutable and absorb
// mutations into a small side overlay, the delta: pending inserts in
// an append buffer and pending deletes in a tombstone set. Every
// mutation builds a fresh immutable state (shallow core copy, staged
// delta, generation+1) and swaps it in atomically; a query loads
// exactly one state pointer up front, so it observes either all or
// none of any mutation — snapshot isolation without read locks.
// Compact folds the delta back into a rebuilt core (re-running the
// normal build, so z-value re-arrangement and all precomputed bound
// metadata stay exact) and installs the compacted state as the next
// generation.
//
// Staging shares everything a mutation leaves untouched: inserts
// append to the adds buffer in place (readers hold a fixed-length
// slice header, so writes past their length are invisible; writers
// serialize on the index mutex and always extend the newest state)
// and share the tombstone set, so a pure insert stream stages in
// O(batch) with no copying. Only deletes clone — the tombstone set
// when adding a stone, the adds buffer when unstaging a pending
// insert — keeping every published delta immutable to its readers.
//
// Admissibility under mutation: tombstoned members are filtered at
// leaf refinement, which only ever loosens the leaf's precomputed
// Dmax/HR/length bounds — the bounds stay valid lower-bound inputs.
// Pending inserts never enter the trie structure, so no stored bound
// covers them; they are answered by an exact linear scan of the
// append buffer (threshold-tightened, before the best-first loop, so
// they also *improve* pruning). An empty delta costs one nil check
// and the read path is byte-identical to the static one.

// ErrStale reports a query pinned to a generation newer than the
// index's current snapshot — the caller's read-your-writes pin cannot
// be satisfied by this replica.
var ErrStale = errors.New("rptrie: index snapshot older than pinned generation")

// delta is the immutable overlay of pending mutations on top of a
// compacted core. Readers share it; the stage* constructors below are
// the only writers, and they never mutate anything a published state
// can reach.
type delta struct {
	adds []*geo.Trajectory  // pending inserts, ids unique
	dels map[int32]struct{} // tombstones against the core; nil = none
}

// empty reports whether d holds no pending mutations.
func (d *delta) empty() bool {
	return d == nil || (len(d.adds) == 0 && len(d.dels) == 0)
}

// size returns the number of pending mutations.
func (d *delta) size() int {
	if d == nil {
		return 0
	}
	return len(d.adds) + len(d.dels)
}

// sizeBytes estimates the overlay's footprint, excluding raw points.
func (d *delta) sizeBytes() int {
	if d == nil {
		return 0
	}
	return len(d.adds)*8 + len(d.dels)*4
}

// indexOfAdd returns tid's position in the pending inserts, -1 when
// absent. Linear: the buffer is bounded by the compaction policy, and
// a scan costs no allocation (unlike the per-state id map it
// replaces, which made every mutation clone O(delta) state).
func (d *delta) indexOfAdd(tid int32) int {
	if d == nil {
		return -1
	}
	for i, tr := range d.adds {
		if int32(tr.ID) == tid {
			return i
		}
	}
	return -1
}

// get resolves tid against the overlay: (traj, true) for a pending
// insert, (nil, true) for a tombstone, (nil, false) to fall through
// to the core.
func (d *delta) get(tid int32) (*geo.Trajectory, bool) {
	if d == nil {
		return nil, false
	}
	if i := d.indexOfAdd(tid); i >= 0 {
		return d.adds[i], true
	}
	if _, dead := d.dels[tid]; dead {
		return nil, true
	}
	return nil, false
}

// stageInsert stages trs on top of d (which may be nil) against the
// given core, returning the successor delta. It fails — staging
// nothing — on empty trajectories, ids duplicated in the batch, and
// ids already live (in the core and not tombstoned, or pending).
func stageInsert(d *delta, core map[int32]*geo.Trajectory, trs []*geo.Trajectory) (*delta, error) {
	for i, tr := range trs {
		if tr == nil || len(tr.Points) == 0 {
			return nil, errors.New("rptrie: cannot insert an empty trajectory")
		}
		if !tr.ValidTimes() {
			return nil, fmt.Errorf("rptrie: trajectory %d has invalid timestamps", tr.ID)
		}
		tid := int32(tr.ID)
		for _, prev := range trs[:i] {
			if prev.ID == tr.ID {
				return nil, fmt.Errorf("rptrie: duplicate trajectory id %d", tr.ID)
			}
		}
		if d.indexOfAdd(tid) >= 0 {
			return nil, fmt.Errorf("rptrie: duplicate trajectory id %d", tr.ID)
		}
		if _, ok := core[tid]; ok {
			dead := false
			if d != nil {
				_, dead = d.dels[tid]
			}
			if !dead {
				return nil, fmt.Errorf("rptrie: duplicate trajectory id %d", tr.ID)
			}
			// A tombstoned core id may be re-inserted: the tombstone
			// keeps hiding the old version, the append buffer serves
			// the new one.
		}
	}
	nd := &delta{}
	if d != nil {
		nd.adds = d.adds
		nd.dels = d.dels
	}
	// Appending may write into backing-array capacity beyond every
	// published state's length — invisible to readers, and no older
	// state can be extended again because writers serialize and
	// always stage from the newest state.
	nd.adds = append(nd.adds, trs...)
	return nd, nil
}

// stageDelete stages the removal of ids on top of d, returning a
// fresh successor delta and how many ids were live. Unknown ids are
// skipped; callers use the count to decide whether to publish the
// successor (a zero count means it is observably identical to d).
func stageDelete(d *delta, core map[int32]*geo.Trajectory, ids []int) (*delta, int) {
	nd := &delta{}
	if d != nil {
		nd.adds = d.adds
		nd.dels = d.dels
	}
	addsCloned, delsCloned := false, false
	n := 0
	for _, id := range ids {
		tid := int32(id)
		if i := nd.indexOfAdd(tid); i >= 0 {
			// Unstage a pending insert: clone the buffer once, then
			// swap-remove in the clone.
			if !addsCloned {
				nd.adds = append([]*geo.Trajectory(nil), nd.adds...)
				addsCloned = true
			}
			last := len(nd.adds) - 1
			nd.adds[i] = nd.adds[last]
			nd.adds = nd.adds[:last]
			n++
			continue
		}
		if _, ok := core[tid]; ok {
			if _, dead := nd.dels[tid]; !dead {
				if !delsCloned {
					clone := make(map[int32]struct{}, len(nd.dels)+1)
					for k := range nd.dels {
						clone[k] = struct{}{}
					}
					nd.dels = clone
					delsCloned = true
				}
				nd.dels[tid] = struct{}{}
				n++
			}
		}
	}
	return nd, n
}

// stageUpsert stages trs with replace semantics: live versions of the
// ids are removed first, then the new versions are inserted. It fails
// — staging nothing — on empty trajectories or in-batch duplicates.
func stageUpsert(d *delta, core map[int32]*geo.Trajectory, trs []*geo.Trajectory) (*delta, error) {
	ids := make([]int, len(trs))
	for i, tr := range trs {
		if tr == nil || len(tr.Points) == 0 {
			return nil, errors.New("rptrie: cannot insert an empty trajectory")
		}
		if !tr.ValidTimes() {
			return nil, fmt.Errorf("rptrie: trajectory %d has invalid timestamps", tr.ID)
		}
		for _, prev := range trs[:i] {
			if prev.ID == tr.ID {
				return nil, fmt.Errorf("rptrie: duplicate trajectory id %d in batch", tr.ID)
			}
		}
		ids[i] = tr.ID
	}
	nd, _ := stageDelete(d, core, ids)
	return stageInsert(nd, core, trs)
}

// merged materializes the live trajectory set (core minus tombstones
// plus pending inserts), sorted by id for a deterministic rebuild.
func (d *delta) merged(core map[int32]*geo.Trajectory) []*geo.Trajectory {
	out := make([]*geo.Trajectory, 0, len(core)+d.size())
	for tid, tr := range core {
		if d != nil {
			if _, dead := d.dels[tid]; dead {
				continue
			}
		}
		out = append(out, tr)
	}
	if d != nil {
		out = append(out, d.adds...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// withDelta derives the next generation from st with nd as overlay.
func (st *state) withDelta(nd *delta) *state {
	ns := *st
	ns.delta = nd
	ns.gen = st.gen + 1
	return &ns
}

// compactedState folds st's delta into a freshly built core of the
// same layout, at st's generation. It is a pure function of st:
// callers decide whether the result becomes the index's next
// generation.
func compactedState(cfg Config, st *state) (*state, error) {
	if st.delta.empty() {
		return st, nil
	}
	ns, err := buildState(cfg, st.delta.merged(st.trajs), st.core.layout())
	if err != nil {
		return nil, err
	}
	ns.gen = st.gen
	return ns, nil
}

// Insert adds trajectories to the live index as pending inserts,
// visible to every query issued after it returns. It fails — without
// applying anything — on an empty trajectory or an id that is already
// live.
func (x *Index) Insert(trs ...*geo.Trajectory) error {
	if len(trs) == 0 {
		return nil
	}
	return x.commit(recInsert, walPayload{Trs: trs}, func(st *state) (*state, error) {
		nd, err := stageInsert(st.delta, st.trajs, trs)
		if err != nil {
			return nil, err
		}
		return st.withDelta(nd), nil
	})
}

// Delete removes the given ids from the live index, returning how many
// were actually live. Queries issued after it returns never see them.
// A durable index that cannot log the deletion rolls it back and
// returns 0: the caller never gets an acknowledgement the log cannot
// honor.
func (x *Index) Delete(ids ...int) int {
	if len(ids) == 0 {
		return 0
	}
	n := 0
	err := x.commit(recDelete, walPayload{IDs: ids}, func(st *state) (*state, error) {
		nd, live := stageDelete(st.delta, st.trajs, ids)
		if live == 0 {
			return st, nil
		}
		n = live
		return st.withDelta(nd), nil
	})
	if err != nil {
		return 0
	}
	return n
}

// Upsert inserts trajectories, replacing any live trajectory sharing
// an id. The replacement is atomic per snapshot: no query observes the
// old and new version of an id together, or neither.
func (x *Index) Upsert(trs ...*geo.Trajectory) error {
	if len(trs) == 0 {
		return nil
	}
	return x.commit(recUpsert, walPayload{Trs: trs}, func(st *state) (*state, error) {
		nd, err := stageUpsert(st.delta, st.trajs, trs)
		if err != nil {
			return nil, err
		}
		return st.withDelta(nd), nil
	})
}

// Compact folds the pending delta into a rebuilt core, restoring the
// fully indexed (zero-overlay) read path. A no-op when the delta is
// empty. In-flight queries keep their snapshot; queries issued after
// it returns see the compacted generation. The rebuild goes through
// the pointer trie whatever the layout, so nothing about the
// trit-array encoding limits which mutations are supported. A durable
// index then checkpoints (unless DurableOptions disabled it): the
// rebuild has already paid for the image.
func (x *Index) Compact() error {
	compacted := false
	err := x.commit(recCompact, walPayload{}, func(st *state) (*state, error) {
		if st.delta.empty() {
			return st, nil
		}
		ns, err := compactedState(x.cfg, st)
		if err != nil {
			return nil, err
		}
		ns.gen = st.gen + 1
		compacted = true
		return ns, nil
	})
	if err != nil || !compacted {
		return err
	}
	x.mu.Lock()
	defer x.mu.Unlock()
	if x.wal == nil || x.wal.noCkptOnCompact {
		return nil
	}
	return x.checkpointLocked()
}

// commit runs one mutation under the writer lock. stage derives the
// successor of the current state, or returns the current state itself
// when the mutation changes nothing. A durable index appends the
// mutation's WAL record, carrying the successor's generation, before
// publishing the successor, and fsyncs it after unlocking, so
// concurrent committers share fsyncs (group commit); the mutation is
// acknowledged only once the record is durable.
//
// A storage failure leaves durability unknown, so it poisons the
// index: every later mutation fails with the original error, while
// queries keep answering from memory. A failed append publishes
// nothing; a failed fsync rolls the published state back unless a
// later mutation has already built on it.
func (x *Index) commit(typ byte, p walPayload, stage func(*state) (*state, error)) error {
	x.mu.Lock()
	w := x.wal
	if w != nil && w.broken != nil {
		x.mu.Unlock()
		return w.broken
	}
	prev := x.cur.Load()
	next, err := stage(prev)
	if err != nil || next == prev {
		x.mu.Unlock()
		return err
	}
	var lsn uint64
	if w != nil {
		p.Gen = next.gen
		if lsn, err = w.append(typ, p); err != nil {
			w.broken = fmt.Errorf("%w: %v", ErrDurability, err)
			x.mu.Unlock()
			return w.broken
		}
	}
	x.cur.Store(next)
	x.mu.Unlock()
	if w == nil {
		return nil
	}
	if err := w.store.Sync(lsn); err != nil {
		x.mu.Lock()
		defer x.mu.Unlock()
		x.cur.CompareAndSwap(next, prev)
		if w.broken == nil {
			w.broken = fmt.Errorf("%w: %v", ErrDurability, err)
		}
		return w.broken
	}
	return nil
}
