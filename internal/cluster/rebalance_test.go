package cluster

import (
	"context"
	"fmt"
	"net/rpc"
	"sync"
	"testing"
	"time"

	"repose/internal/dataset"
	"repose/internal/geo"
	"repose/internal/oracle"
	"repose/internal/rptrie"
)

// TestProbeBudgetBitIdenticalAllLayouts: a probe-budgeted Search must
// return exactly what a full scatter returns — for every budget, on
// every layout, whether or not the score tracker has learned anything
// yet. The probed and pruned sets must also cover the selection.
func TestProbeBudgetBitIdenticalAllLayouts(t *testing.T) {
	ds, parts, spec := testWorld(t, 300, 8)
	queries := dataset.Queries(ds, 5, 13)
	layouts := []struct {
		name string
		mod  func(*IndexSpec)
	}{
		{"pointer", func(s *IndexSpec) {}},
		{"compressed", func(s *IndexSpec) { s.Layout = rptrie.LayoutCompressed }},
	}
	ctx := context.Background()
	for _, lo := range layouts {
		sp := spec
		lo.mod(&sp)
		c, err := BuildLocal(sp, parts, 4)
		if err != nil {
			t.Fatalf("%s: %v", lo.name, err)
		}
		// A few full queries teach the tracker its reward/cost scores;
		// budgets are exercised both cold (first loop pass) and warm.
		for pass := 0; pass < 2; pass++ {
			for _, q := range queries {
				want := oracle.TopK(sp.Measure, sp.Params, ds, q.Points, 10)
				for budget := 0; budget <= 8; budget++ {
					got, rep, err := c.Search(ctx, q.Points, 10, QueryOptions{ProbeBudget: budget})
					if err != nil {
						t.Fatalf("%s budget %d: %v", lo.name, budget, err)
					}
					assertBitIdentical(t, fmt.Sprintf("%s budget=%d pass=%d", lo.name, budget, pass), 13, got, want)
					if !rep.CacheEligible {
						t.Fatalf("%s budget %d: exact-mode answer must stay cache-eligible", lo.name, budget)
					}
					if budget >= 1 && budget < 8 {
						covered := len(rep.ProbedPartitions) + len(rep.PrunedPartitions)
						if covered != 8 {
							t.Fatalf("%s budget %d: probed %v + pruned %v does not cover 8 partitions",
								lo.name, budget, rep.ProbedPartitions, rep.PrunedPartitions)
						}
						if len(rep.SkippedPartitions) != 0 {
							t.Fatalf("%s budget %d: exact mode skipped %v", lo.name, budget, rep.SkippedPartitions)
						}
					}
				}
			}
		}
	}
}

// TestProbeBudgetBestEffort: best-effort mode scans exactly the
// budget, reports what it skipped, refuses cache eligibility, and its
// answer equals an explicit query over the probed partitions.
func TestProbeBudgetBestEffort(t *testing.T) {
	ds, parts, spec := testWorld(t, 300, 8)
	c, err := BuildLocal(spec, parts, 4)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	queries := dataset.Queries(ds, 4, 17)
	for _, q := range queries { // warm the tracker
		if _, _, err := c.Search(ctx, q.Points, 10, QueryOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	for _, q := range queries {
		got, rep, err := c.Search(ctx, q.Points, 10, QueryOptions{ProbeBudget: 3, BestEffort: true})
		if err != nil {
			t.Fatal(err)
		}
		if rep.CacheEligible {
			t.Fatal("best-effort answer must not be cache-eligible")
		}
		if len(rep.ProbedPartitions) != 3 || len(rep.SkippedPartitions) != 5 {
			t.Fatalf("probed %v skipped %v, want 3 probed 5 skipped", rep.ProbedPartitions, rep.SkippedPartitions)
		}
		want, _, err := c.Search(ctx, q.Points, 10, QueryOptions{Partitions: rep.ProbedPartitions})
		if err != nil {
			t.Fatal(err)
		}
		assertBitIdentical(t, "best-effort equals probed subset", 17, got, want)
	}
}

// TestRemoteProbeBudgetMatchesLocal: the remote engine's two-phase
// budgeted search (Worker.Search + Worker.Bound waves) answers
// bit-identically to the oracle for every budget.
func TestRemoteProbeBudgetMatchesLocal(t *testing.T) {
	ds, parts, spec := testWorld(t, 300, 6)
	addrs := startWorkers(t, 3)
	remote, err := BuildRemote(spec, parts, addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()
	ctx := context.Background()
	for pass := 0; pass < 2; pass++ {
		for qi, q := range dataset.Queries(ds, 4, 19) {
			want := oracle.TopK(spec.Measure, spec.Params, ds, q.Points, 9)
			for budget := 0; budget <= 6; budget++ {
				got, rep, err := remote.Search(ctx, q.Points, 9, QueryOptions{ProbeBudget: budget})
				if err != nil {
					t.Fatalf("budget %d: %v", budget, err)
				}
				assertBitIdentical(t, fmt.Sprintf("remote budget=%d q%d pass=%d", budget, qi, pass), 19, got, want)
				if !rep.CacheEligible {
					t.Fatalf("budget %d: exact-mode remote answer must stay cache-eligible", budget)
				}
			}
		}
	}
	if loads := remote.LoadStats(); len(loads) != 6 {
		t.Fatalf("LoadStats reported %d partitions, want 6", len(loads))
	} else {
		for _, pl := range loads {
			if pl.Queries == 0 {
				t.Fatalf("partition %d recorded no queries: %+v", pl.Partition, pl)
			}
		}
	}
}

// TestLocalSplitPartition: an online split conserves the trajectory
// set, keeps answers bit-identical to the oracle, and routes
// subsequent mutations to the new partition.
func TestLocalSplitPartition(t *testing.T) {
	ds, parts, spec := testWorld(t, 300, 4)
	c, err := BuildLocal(spec, parts, 4)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	lenBefore := c.Len()

	newPid, err := c.SplitPartition(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	if newPid != 4 || c.NumPartitions() != 5 {
		t.Fatalf("split produced pid %d, %d partitions; want 4, 5", newPid, c.NumPartitions())
	}
	if c.Len() != lenBefore {
		t.Fatalf("split changed Len: %d -> %d", lenBefore, c.Len())
	}
	for qi, q := range dataset.Queries(ds, 5, 23) {
		want := oracle.TopK(spec.Measure, spec.Params, ds, q.Points, 10)
		got, _, err := c.Search(ctx, q.Points, 10, QueryOptions{})
		if err != nil {
			t.Fatal(err)
		}
		assertBitIdentical(t, fmt.Sprintf("post-split q%d", qi), 23, got, want)
	}

	// A moved id must now be deletable through the directory (owning
	// partition = newPid), and inserts must still route.
	c.dir.mu.Lock()
	var movedID int
	for id, pid := range c.dir.loc {
		if pid == newPid {
			movedID = int(id)
			break
		}
	}
	c.dir.mu.Unlock()
	removed, _, err := c.Delete(ctx, []int{movedID}, MutateOptions{})
	if err != nil || removed != 1 {
		t.Fatalf("delete of moved id %d: removed=%d err=%v", movedID, removed, err)
	}
	tr := &geo.Trajectory{ID: 900001, Points: ds[0].Points}
	if _, err := c.Insert(ctx, []*geo.Trajectory{tr}, MutateOptions{}); err != nil {
		t.Fatalf("insert after split: %v", err)
	}
	if c.Len() != lenBefore {
		t.Fatalf("post-mutation Len %d, want %d", c.Len(), lenBefore)
	}
}

// TestRemoteSplitPartition: the three-phase remote split (install on
// every replica, register, prune) conserves the set, keeps every
// replica in sync, and stays bit-identical to the oracle.
func TestRemoteSplitPartition(t *testing.T) {
	ds, parts, spec := testWorld(t, 300, 4)
	spec.Replicas = 2
	addrs := startWorkers(t, 3)
	remote, err := BuildRemote(spec, parts, addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()
	ctx := context.Background()
	lenBefore := remote.Len()

	newPid, err := remote.SplitPartition(ctx, 1)
	if err != nil {
		t.Fatal(err)
	}
	if newPid != 4 || remote.NumPartitions() != 5 {
		t.Fatalf("split produced pid %d, %d partitions; want 4, 5", newPid, remote.NumPartitions())
	}
	if remote.Len() != lenBefore {
		t.Fatalf("split changed Len: %d -> %d", lenBefore, remote.Len())
	}
	remote.genMu.Lock()
	if len(remote.owners[newPid]) != 2 || remote.curGen[newPid] == 0 {
		t.Fatalf("new partition registration: owners=%v curGen=%d", remote.owners[newPid], remote.curGen[newPid])
	}
	for j, g := range remote.repGen[newPid] {
		if g == genAbsent || g < remote.curGen[newPid] {
			t.Fatalf("replica %d of new partition not in sync: gen %d cur %d", j, g, remote.curGen[newPid])
		}
	}
	remote.genMu.Unlock()

	for qi, q := range dataset.Queries(ds, 5, 29) {
		want := oracle.TopK(spec.Measure, spec.Params, ds, q.Points, 10)
		got, _, err := remote.Search(ctx, q.Points, 10, QueryOptions{})
		if err != nil {
			t.Fatal(err)
		}
		assertBitIdentical(t, fmt.Sprintf("remote post-split q%d", qi), 29, got, want)
	}

	// Mutations still work and route to the new partition.
	remote.dir.mu.Lock()
	var movedID int
	for id, pid := range remote.dir.loc {
		if pid == newPid {
			movedID = int(id)
			break
		}
	}
	remote.dir.mu.Unlock()
	removed, _, err := remote.Delete(ctx, []int{movedID}, MutateOptions{})
	if err != nil || removed != 1 {
		t.Fatalf("delete of moved id %d: removed=%d err=%v", movedID, removed, err)
	}
	if remote.Len() != lenBefore-1 {
		t.Fatalf("post-delete Len %d, want %d", remote.Len(), lenBefore-1)
	}
}

// TestRemoteRebalanceMigratesHotPartition is the tentpole scenario: a
// skewed workload makes one worker hot, Rebalance migrates its hottest
// partition to the least-loaded worker with queries in flight the
// whole time, and every answer — before, during, after — stays
// bit-identical to the oracle.
func TestRemoteRebalanceMigratesHotPartition(t *testing.T) {
	ds, parts, spec := testWorld(t, 300, 4)
	addrs := startWorkers(t, 3)
	remote, err := BuildRemote(spec, parts, addrs) // p0,p3 → w0; p1 → w1; p2 → w2
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()
	ctx := context.Background()
	queries := dataset.Queries(ds, 6, 31)

	// Balanced cluster: Rebalance must decline.
	rep, err := remote.Rebalance(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Moved {
		t.Fatalf("rebalance moved %+v on a cold cluster", rep)
	}

	// Skew: hammer the two partitions living on worker 0.
	for i := 0; i < 20; i++ {
		for _, q := range queries {
			if _, _, err := remote.Search(ctx, q.Points, 5, QueryOptions{Partitions: []int{0, 3}}); err != nil {
				t.Fatal(err)
			}
		}
	}

	// Queries keep flowing while the migration runs.
	stop := make(chan struct{})
	errCh := make(chan error, 1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			q := queries[i%len(queries)]
			got, _, err := remote.Search(ctx, q.Points, 10, QueryOptions{})
			if err != nil {
				select {
				case errCh <- fmt.Errorf("query during migration: %w", err):
				default:
				}
				return
			}
			want := oracle.TopK(spec.Measure, spec.Params, ds, q.Points, 10)
			for r := range got {
				if got[r] != want[r] {
					select {
					case errCh <- fmt.Errorf("mid-migration divergence rank %d: %+v vs %+v", r, got[r], want[r]):
					default:
					}
					return
				}
			}
		}
	}()

	rep, err = remote.Rebalance(ctx)
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	select {
	case qerr := <-errCh:
		t.Fatal(qerr)
	default:
	}
	if !rep.Moved {
		t.Fatalf("rebalance declined on a skewed cluster: %+v, health %+v", rep, remote.Health())
	}
	if rep.From != addrs[0] {
		t.Fatalf("migrated from %s, want hot worker %s", rep.From, addrs[0])
	}
	if rep.Partition != 0 && rep.Partition != 3 {
		t.Fatalf("migrated partition %d, want one of the hot pair {0, 3}", rep.Partition)
	}

	// The flip is visible in the owner table and the donor dropped its
	// copy.
	remote.genMu.Lock()
	newSlot := remote.owners[rep.Partition][0]
	remote.genMu.Unlock()
	if addrs[newSlot] != rep.To || rep.To == addrs[0] {
		t.Fatalf("owner now %s, report says %s", addrs[newSlot], rep.To)
	}
	cl, err := rpc.Dial("tcp", addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	var st StatusReply
	if err := cl.Call("Worker.Status", &StatusArgs{Version: ProtocolVersion}, &st); err != nil {
		t.Fatal(err)
	}
	if _, held := st.Gens[rep.Partition]; held {
		t.Fatalf("donor still holds partition %d after migration", rep.Partition)
	}

	// Post-migration answers stay exact, and per-worker load is now
	// attributed to the new owner.
	for qi, q := range queries {
		want := oracle.TopK(spec.Measure, spec.Params, ds, q.Points, 10)
		got, _, err := remote.Search(ctx, q.Points, 10, QueryOptions{})
		if err != nil {
			t.Fatal(err)
		}
		assertBitIdentical(t, fmt.Sprintf("post-migration q%d", qi), 31, got, want)
	}
	health := remote.Health()
	for si, h := range health {
		if h.Down || h.StaleParts > 0 {
			t.Fatalf("worker %d unhealthy after migration: %+v", si, h)
		}
	}
}

// TestReviveSlotAdoptsNewerGeneration covers ack-lost divergence: a
// worker applied a mutation whose acknowledgement the driver never
// recorded, then its circuit trips. On revival the driver must adopt
// the higher generation as authoritative (generations only move
// forward) and re-sync the now-stale peer from the revived replica —
// not regress the revived replica to the stale majority.
func TestReviveSlotAdoptsNewerGeneration(t *testing.T) {
	ds, parts, spec := testWorld(t, 120, 2)
	spec.Replicas = 2
	addrs := startWorkers(t, 2)
	remote, err := BuildRemote(spec, parts, addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()
	remote.SetFailover(fastFailover)

	// Apply a mutation to worker 0's replica of partition 0 behind the
	// driver's back — the wire-level equivalent of an ack lost in
	// flight.
	tr := &geo.Trajectory{ID: 900002, Points: ds[0].Points}
	cl, err := rpc.Dial("tcp", addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	var ir InsertReply
	args := &InsertArgs{Version: ProtocolVersion, PartitionID: 0, Trajectories: []*geo.Trajectory{tr}}
	if err := cl.Call("Worker.Insert", args, &ir); err != nil {
		t.Fatal(err)
	}
	remote.genMu.Lock()
	cur := remote.curGen[0]
	remote.genMu.Unlock()
	if ir.Gen <= cur {
		t.Fatalf("direct insert did not advance the worker generation: %d <= %d", ir.Gen, cur)
	}

	// Trip worker 0 and let the prober revive it.
	remote.slots[0].noteFailure(1, true)
	waitHealed(t, remote, 0)

	remote.genMu.Lock()
	adopted := remote.curGen[0]
	gens := append([]uint64(nil), remote.repGen[0]...)
	remote.genMu.Unlock()
	if adopted != ir.Gen {
		t.Fatalf("curGen[0] = %d after revival, want the revived replica's %d", adopted, ir.Gen)
	}
	for j, g := range gens {
		if g < adopted {
			t.Fatalf("replica %d still stale after heal: gen %d < %d", j, g, adopted)
		}
	}

	// The divergent trajectory is now on every replica: a query must
	// find it regardless of which replica answers.
	got, _, err := remote.Search(context.Background(), ds[0].Points, 3, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, it := range got {
		if it.ID == 900002 {
			found = true
		}
	}
	if !found {
		t.Fatalf("divergent trajectory missing after heal: %+v", got)
	}
}

// TestRecoveredDirectoryErrorPropagates is the satellite-1 regression:
// a recovery whose grid or router cannot be rebuilt must surface the
// error instead of silently producing an immutable directory.
func TestRecoveredDirectoryErrorPropagates(t *testing.T) {
	_, parts, spec := testWorld(t, 50, 2)
	c, err := BuildLocal(spec, parts, 2)
	if err != nil {
		t.Fatal(err)
	}
	indexes := c.parts()

	bad := spec
	bad.Delta = -1
	if _, err := recoveredDirectory(bad, indexes); err == nil {
		t.Fatal("invalid grid must fail directory recovery")
	}

	if _, err := recoveredDirectory(spec, nil); err == nil {
		t.Fatal("zero recovered partitions must fail router rebuild")
	}

	if d, err := recoveredDirectory(spec, indexes); err != nil || d.router == nil {
		t.Fatalf("valid spec must recover a routing directory: %v", err)
	}
}

// TestNotOwnedPartitionParse pins the wire-format contract between the
// worker's rejection message and the driver's retry parser.
func TestNotOwnedPartitionParse(t *testing.T) {
	err := fmt.Errorf("cluster: worker "+notOwnerMsg+" %d", 42)
	if pid := notOwnedPartition(err); pid != 42 {
		t.Fatalf("parsed pid %d, want 42", pid)
	}
	wrapped := fmt.Errorf("cluster: Worker.Search on 127.0.0.1:1: %w", err)
	if pid := notOwnedPartition(wrapped); pid != 42 {
		t.Fatalf("parsed wrapped pid %d, want 42", pid)
	}
	if pid := notOwnedPartition(fmt.Errorf("some other error")); pid != -1 {
		t.Fatalf("unrelated error parsed as %d, want -1", pid)
	}
	if pid := notOwnedPartition(nil); pid != -1 {
		t.Fatalf("nil error parsed as %d, want -1", pid)
	}
}

// TestLoadTrackerOrdering: partitions that contribute results at low
// cost must outrank expensive no-shows once the EWMA has samples, and
// unprobed partitions explore first.
func TestLoadTrackerOrdering(t *testing.T) {
	lt := newLoadTracker(3)
	// p0: cheap and rewarding. p1: expensive and useless. p2: never
	// probed.
	for i := 0; i < 10; i++ {
		lt.record(0, 100*time.Microsecond, 5, 8)
		lt.record(1, 10*time.Millisecond, 500, 0)
	}
	order := lt.order([]int{0, 1, 2})
	if order[0] != 2 {
		t.Fatalf("unprobed partition must explore first: %v", order)
	}
	if order[1] != 0 || order[2] != 1 {
		t.Fatalf("reward-per-cost must rank p0 over p1: %v", order)
	}
	snap := lt.snapshot()
	if snap[0].Queries != 10 || snap[0].P99 == 0 || snap[2].Queries != 0 {
		t.Fatalf("snapshot wrong: %+v", snap)
	}
	lt.reset(0)
	snap = lt.snapshot()
	if snap[0].Queries != 0 || snap[0].TotalTime != 0 {
		t.Fatalf("reset kept counters: %+v", snap[0])
	}
	if order2 := lt.order([]int{0, 1}); order2[0] != 0 {
		t.Fatalf("reset must keep the learned score: %v", order2)
	}
}
