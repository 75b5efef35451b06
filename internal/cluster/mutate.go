package cluster

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"repose/internal/geo"
	"repose/internal/grid"
	"repose/internal/partition"
	"repose/internal/rptrie"
)

// Online mutations route through a driver-side directory: the driver
// knows every live trajectory's owning partition (seeded from the
// batch partitioning, maintained across mutations), so Inserts are
// validated for duplicate ids globally, Deletes go only to the owning
// partition instead of a broadcast, and both engines behave
// identically. The directory assumes this driver is the only writer —
// the deployment model of both engines (workers are driven, they do
// not accept out-of-band mutations).

// directory tracks id → owning partition plus the online router that
// assigns partitions to new arrivals. One mutex serializes engine-
// level mutations end to end; queries never touch it.
type directory struct {
	mu     sync.Mutex
	loc    map[int32]int
	router *partition.OnlineRouter
	spec   IndexSpec  // retained for router rebuilds after a split
	grid   *grid.Grid // shared by router rebuilds; nil without routing
}

// newDirectory seeds the directory from the batch partitioning. When
// the spec cannot support online routing (no valid grid — e.g. a
// baseline algorithm without a Delta), it returns a directory whose
// mutations fail cleanly with ErrImmutable.
func newDirectory(spec IndexSpec, parts [][]*geo.Trajectory) *directory {
	d := &directory{loc: make(map[int32]int), spec: spec}
	for pid, part := range parts {
		for _, tr := range part {
			d.loc[int32(tr.ID)] = pid
		}
	}
	if g, err := grid.New(spec.Region, spec.Delta); err == nil {
		if r, err := partition.NewOnlineRouter(spec.Strategy, g, len(parts), spec.Seed); err == nil {
			d.grid = g
			d.router = r
		}
	}
	return d
}

// rebuildRouterLocked re-derives the online router for n partitions
// after a split grew the partition count. The rebuilt router restarts
// its placement counters — the same heuristic drift recovery accepts
// (see recoveredDirectory); the loc map stays the routing truth.
// Caller holds d.mu.
func (d *directory) rebuildRouterLocked(n int) error {
	if d.grid == nil {
		return ErrImmutable
	}
	r, err := partition.NewOnlineRouter(d.spec.Strategy, d.grid, n, d.spec.Seed)
	if err != nil {
		return fmt.Errorf("cluster: split router rebuild: %w", err)
	}
	d.router = r
	return nil
}

// insert validates trs, routes each to a partition, applies the
// per-partition groups through apply (in ascending partition order),
// and records the new owners. Validation is all-or-nothing; the
// per-partition applies are not transactional across partitions — an
// apply error leaves earlier partitions mutated and reported in the
// returned Gens.
func (d *directory) insert(trs []*geo.Trajectory, apply func(pid int, trs []*geo.Trajectory) (uint64, error)) (Gens, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.router == nil {
		return nil, ErrImmutable
	}
	seen := make(map[int32]struct{}, len(trs))
	for _, tr := range trs {
		if tr == nil || len(tr.Points) == 0 {
			return nil, fmt.Errorf("cluster: cannot insert an empty trajectory")
		}
		tid := int32(tr.ID)
		if _, dup := seen[tid]; dup {
			return nil, fmt.Errorf("%w: id %d duplicated in batch", ErrDuplicateID, tr.ID)
		}
		if _, live := d.loc[tid]; live {
			return nil, fmt.Errorf("%w: id %d", ErrDuplicateID, tr.ID)
		}
		seen[tid] = struct{}{}
	}
	groups := make(map[int][]*geo.Trajectory)
	for _, tr := range trs {
		pid := d.router.Assign(tr)
		groups[pid] = append(groups[pid], tr)
	}
	gens := make(Gens, len(groups))
	for _, pid := range sortedKeys(groups) {
		gen, err := apply(pid, groups[pid])
		if err != nil {
			return gens, err
		}
		gens[pid] = gen
		for _, tr := range groups[pid] {
			d.loc[int32(tr.ID)] = pid
		}
	}
	return gens, nil
}

// delete groups the live ids by owning partition, applies the groups,
// and unregisters them. Ids the directory does not know are broadcast
// to every partition rather than skipped: normally they are simply
// not indexed (a partition-local Delete of an unknown id is a no-op),
// but after a mutation RPC whose outcome was unknown (deadline fired
// mid-flight) a worker may hold a trajectory the directory never
// recorded — broadcasting makes Delete the repair tool for that
// desync instead of leaving an undeletable ghost.
func (d *directory) delete(ids []int, numPartitions int, apply func(pid int, ids []int) (int, uint64, error)) (int, Gens, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	groups := make(map[int][]int)
	var unknown []int
	for _, id := range ids {
		if pid, ok := d.loc[int32(id)]; ok {
			groups[pid] = append(groups[pid], id)
		} else {
			unknown = append(unknown, id)
		}
	}
	if len(unknown) > 0 {
		for pid := 0; pid < numPartitions; pid++ {
			groups[pid] = append(groups[pid], unknown...)
		}
	}
	removed := 0
	gens := make(Gens, len(groups))
	for _, pid := range sortedKeys(groups) {
		n, gen, err := apply(pid, groups[pid])
		if err != nil {
			return removed, gens, err
		}
		removed += n
		gens[pid] = gen
		for _, id := range groups[pid] {
			delete(d.loc, int32(id))
		}
	}
	return removed, gens, nil
}

// upsert routes each trajectory to its owning partition (live ids) or
// a router-assigned one (new ids) and applies the groups with replace
// semantics; fresh counts how many of a group's ids were new. The
// per-partition apply is one snapshot-atomic swap, so no query ever
// observes a replaced id as absent.
func (d *directory) upsert(trs []*geo.Trajectory, apply func(pid int, trs []*geo.Trajectory, fresh int) (uint64, error)) (Gens, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.router == nil {
		return nil, ErrImmutable
	}
	for i, tr := range trs {
		if tr == nil || len(tr.Points) == 0 {
			return nil, fmt.Errorf("cluster: cannot insert an empty trajectory")
		}
		for _, prev := range trs[:i] {
			if prev.ID == tr.ID {
				return nil, fmt.Errorf("%w: id %d duplicated in batch", ErrDuplicateID, tr.ID)
			}
		}
	}
	groups := make(map[int][]*geo.Trajectory)
	freshIn := make(map[int]int)
	for _, tr := range trs {
		pid, live := d.loc[int32(tr.ID)]
		if !live {
			pid = d.router.Assign(tr)
			freshIn[pid]++
		}
		groups[pid] = append(groups[pid], tr)
	}
	gens := make(Gens, len(groups))
	for _, pid := range sortedKeys(groups) {
		gen, err := apply(pid, groups[pid], freshIn[pid])
		if err != nil {
			return gens, err
		}
		gens[pid] = gen
		for _, tr := range groups[pid] {
			d.loc[int32(tr.ID)] = pid
		}
	}
	return gens, nil
}

func sortedKeys[V any](m map[int]V) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

// mutable resolves partition pi's index as a mutable rptrie.Index.
func (c *Local) mutable(pi int) (*rptrie.Index, error) {
	idx := c.parts()[pi]
	m, ok := idx.(*rptrie.Index)
	if !ok {
		return nil, fmt.Errorf("%w (partition %d, %T)", ErrImmutable, pi, idx)
	}
	return m, nil
}

// Insert implements Engine.
func (c *Local) Insert(ctx context.Context, trs []*geo.Trajectory, opt MutateOptions) (Gens, error) {
	if len(trs) == 0 {
		return nil, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("cluster: insert: %w", err)
	}
	if c.dir == nil {
		return nil, ErrImmutable
	}
	return c.dir.insert(trs, func(pid int, trs []*geo.Trajectory) (uint64, error) {
		m, err := c.mutable(pid)
		if err != nil {
			return 0, err
		}
		if err := m.Insert(trs...); err != nil {
			return 0, err
		}
		if err := maybeCompact(m, opt.AutoCompact); err != nil {
			return 0, err
		}
		return m.Generation(), nil
	})
}

// Delete implements Engine.
func (c *Local) Delete(ctx context.Context, ids []int, opt MutateOptions) (int, Gens, error) {
	if len(ids) == 0 {
		return 0, nil, nil
	}
	if err := ctx.Err(); err != nil {
		return 0, nil, fmt.Errorf("cluster: delete: %w", err)
	}
	if c.dir == nil {
		return 0, nil, ErrImmutable
	}
	return c.dir.delete(ids, c.NumPartitions(), func(pid int, ids []int) (int, uint64, error) {
		m, err := c.mutable(pid)
		if err != nil {
			return 0, 0, err
		}
		n := m.Delete(ids...)
		if err := maybeCompact(m, opt.AutoCompact); err != nil {
			return 0, 0, err
		}
		return n, m.Generation(), nil
	})
}

// Upsert implements Engine.
func (c *Local) Upsert(ctx context.Context, trs []*geo.Trajectory, opt MutateOptions) (Gens, error) {
	if len(trs) == 0 {
		return nil, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("cluster: upsert: %w", err)
	}
	if c.dir == nil {
		return nil, ErrImmutable
	}
	return c.dir.upsert(trs, func(pid int, trs []*geo.Trajectory, _ int) (uint64, error) {
		m, err := c.mutable(pid)
		if err != nil {
			return 0, err
		}
		if err := m.Upsert(trs...); err != nil {
			return 0, err
		}
		if err := maybeCompact(m, opt.AutoCompact); err != nil {
			return 0, err
		}
		return m.Generation(), nil
	})
}

// Compact implements Engine.
func (c *Local) Compact(ctx context.Context, partitions []int) (Gens, error) {
	sel, err := selectPartitions(partitions, c.NumPartitions())
	if err != nil {
		return nil, err
	}
	gens := make(Gens, len(sel))
	for _, pid := range sel {
		if err := ctx.Err(); err != nil {
			return gens, fmt.Errorf("cluster: compact: %w", err)
		}
		m, err := c.mutable(pid)
		if err != nil {
			return gens, err
		}
		if err := m.Compact(); err != nil {
			return gens, err
		}
		gens[pid] = m.Generation()
	}
	return gens, nil
}

// Remote mutations fan out to every in-sync replica of the touched
// partition (mutateReplicas, failover.go): the mutation succeeds as
// long as one replica acknowledges; a replica that fails its call
// stops serving reads until the background prober restores it from an
// acknowledged peer, so readers never observe the missed write's
// absence. A ctx error still means "outcome unknown" — the workers
// may have applied a mutation whose reply the driver stopped waiting
// for — with the same retry/repair contract as before (deterministic
// routing, Delete broadcast for unknown ids).

// Insert implements Engine for the remote deployment: the driver
// validates and routes exactly as the local engine does, then ships
// each partition's group to all of its in-sync replicas.
func (r *Remote) Insert(ctx context.Context, trs []*geo.Trajectory, opt MutateOptions) (Gens, error) {
	if len(trs) == 0 {
		return nil, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("cluster: insert: %w", err)
	}
	if r.dir == nil {
		return nil, ErrImmutable
	}
	return r.dir.insert(trs, func(pid int, trs []*geo.Trajectory) (uint64, error) {
		return r.mutateReplicas(ctx, pid, "Worker.Insert",
			func() any {
				return &InsertArgs{Version: ProtocolVersion, PartitionID: pid, Trajectories: trs, AutoCompact: opt.AutoCompact}
			},
			func() any { return new(InsertReply) },
			func(reply any) (uint64, int) { ir := reply.(*InsertReply); return ir.Gen, ir.Len })
	})
}

// Delete implements Engine for the remote deployment.
func (r *Remote) Delete(ctx context.Context, ids []int, opt MutateOptions) (int, Gens, error) {
	if len(ids) == 0 {
		return 0, nil, nil
	}
	if err := ctx.Err(); err != nil {
		return 0, nil, fmt.Errorf("cluster: delete: %w", err)
	}
	if r.dir == nil {
		return 0, nil, ErrImmutable
	}
	return r.dir.delete(ids, r.NumPartitions(), func(pid int, ids []int) (int, uint64, error) {
		removed := 0
		gen, err := r.mutateReplicas(ctx, pid, "Worker.Delete",
			func() any {
				return &DeleteArgs{Version: ProtocolVersion, PartitionID: pid, IDs: ids, AutoCompact: opt.AutoCompact}
			},
			func() any { return new(DeleteReply) },
			func(reply any) (uint64, int) {
				dr := reply.(*DeleteReply)
				removed = dr.Removed // identical on every in-sync replica
				return dr.Gen, dr.Len
			})
		return removed, gen, err
	})
}

// Upsert implements Engine for the remote deployment: replace groups
// ride the Insert RPC with the Replace flag set.
func (r *Remote) Upsert(ctx context.Context, trs []*geo.Trajectory, opt MutateOptions) (Gens, error) {
	if len(trs) == 0 {
		return nil, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("cluster: upsert: %w", err)
	}
	if r.dir == nil {
		return nil, ErrImmutable
	}
	return r.dir.upsert(trs, func(pid int, trs []*geo.Trajectory, _ int) (uint64, error) {
		return r.mutateReplicas(ctx, pid, "Worker.Insert",
			func() any {
				return &InsertArgs{Version: ProtocolVersion, PartitionID: pid, Trajectories: trs, Replace: true, AutoCompact: opt.AutoCompact}
			},
			func() any { return new(InsertReply) },
			func(reply any) (uint64, int) { ir := reply.(*InsertReply); return ir.Gen, ir.Len })
	})
}

// Compact implements Engine for the remote deployment: every in-sync
// replica of each selected partition folds its delta, keeping the
// replica generations aligned. Partitions compact concurrently —
// compaction is a rebuild, and serializing P×R round trips would make
// CompactNow latency linear in the partition count.
func (r *Remote) Compact(ctx context.Context, partitions []int) (Gens, error) {
	sub, err := selectPartitions(partitions, r.NumPartitions())
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("cluster: compact: %w", err)
	}
	gens := make(Gens, len(sub))
	var mu sync.Mutex
	var firstErr error
	var wg sync.WaitGroup
	for _, pid := range sub {
		wg.Add(1)
		go func(pid int) {
			defer wg.Done()
			gen, err := r.mutateReplicas(ctx, pid, "Worker.Compact",
				func() any { return &CompactArgs{Version: ProtocolVersion, Partitions: []int{pid}} },
				func() any { return new(CompactReply) },
				func(reply any) (uint64, int) {
					return reply.(*CompactReply).Gens[pid], int(r.partLen[pid].Load())
				})
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				if firstErr == nil {
					firstErr = err
				}
				return
			}
			gens[pid] = gen
		}(pid)
	}
	wg.Wait()
	return gens, firstErr
}
