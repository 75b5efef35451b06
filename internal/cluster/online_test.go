package cluster

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"repose/internal/geo"
	"repose/internal/oracle"
	"repose/internal/rptrie"
)

// freshTrajs makes n random trajectories with ids starting at base,
// inside the testWorld region.
func freshTrajs(rng *rand.Rand, base, n int) []*geo.Trajectory {
	out := make([]*geo.Trajectory, n)
	for i := range out {
		pts := make([]geo.Point, 3+rng.Intn(10))
		for j := range pts {
			pts[j] = geo.Point{X: rng.Float64() * 4, Y: rng.Float64() * 4}
		}
		out[i] = &geo.Trajectory{ID: base + i, Points: pts}
	}
	return out
}

// TestOnlineMutationsLocalRemoteParity drives the same mutation
// script against a local and a remote engine and pins both to the
// oracle after every phase: an inserted trajectory is returned by the
// next query, a deleted one never is, on both engines.
func TestOnlineMutationsLocalRemoteParity(t *testing.T) {
	ds, local, remote := remotePair(t, 200, 5, 2)
	ctx := context.Background()
	rng := rand.New(rand.NewSource(99))
	mirror := oracle.NewSet(ds)
	spec := testSpecOf(t)

	engines := []struct {
		name string
		eng  Engine
	}{{"local", local}, {"remote", remote}}

	check := func(phase string) {
		t.Helper()
		q := freshTrajs(rng, -1, 1)[0]
		want := mirror.TopK(spec.Measure, spec.Params, q.Points, 10)
		for _, e := range engines {
			got, _, err := e.eng.Search(ctx, q.Points, 10, QueryOptions{})
			if err != nil {
				t.Fatalf("%s %s: %v", phase, e.name, err)
			}
			assertSameDistances(t, phase+" "+e.name, got, want)
		}
	}

	apply := func(phase string, adds []*geo.Trajectory, dels []int) {
		t.Helper()
		for _, e := range engines {
			if len(adds) > 0 {
				gens, err := e.eng.Insert(ctx, adds, MutateOptions{})
				if err != nil {
					t.Fatalf("%s %s insert: %v", phase, e.name, err)
				}
				if len(gens) == 0 {
					t.Fatalf("%s %s insert reported no generations", phase, e.name)
				}
			}
			if len(dels) > 0 {
				n, _, err := e.eng.Delete(ctx, dels, MutateOptions{})
				if err != nil {
					t.Fatalf("%s %s delete: %v", phase, e.name, err)
				}
				if wantN := countLive(mirror, dels); n != wantN {
					t.Fatalf("%s %s delete removed %d, want %d", phase, e.name, n, wantN)
				}
			}
		}
		mirror.Insert(adds...)
		mirror.Delete(dels...)
		check(phase)
	}

	check("initial")
	apply("insert", freshTrajs(rng, 10_000, 25), nil)
	apply("delete", nil, []int{ds[0].ID, ds[1].ID, 10_003, 424242})
	apply("mixed", freshTrajs(rng, 20_000, 10), []int{10_001, ds[5].ID})

	// Upsert a mixed batch — replacements of live ids plus one new id
	// — through both engines, then re-check against the oracle.
	ups := freshTrajs(rng, 0, 1)
	ups[0].ID = ds[10].ID
	ups = append(ups, freshTrajs(rng, 30_000, 1)...)
	for _, e := range engines {
		gens, err := e.eng.Upsert(ctx, ups, MutateOptions{})
		if err != nil {
			t.Fatalf("%s upsert: %v", e.name, err)
		}
		if len(gens) == 0 {
			t.Fatalf("%s upsert reported no generations", e.name)
		}
	}
	mirror.Insert(ups...)
	check("upsert")

	// Compact everywhere; answers must not change.
	for _, e := range engines {
		gens, err := e.eng.Compact(ctx, nil)
		if err != nil {
			t.Fatalf("%s compact: %v", e.name, err)
		}
		if len(gens) != 5 {
			t.Fatalf("%s compact touched %d partitions, want 5", e.name, len(gens))
		}
	}
	check("compacted")

	// Engine bookkeeping agrees across backends and with the oracle.
	for _, e := range engines {
		if e.eng.Len() != mirror.Len() {
			t.Fatalf("%s Len %d, oracle %d", e.name, e.eng.Len(), mirror.Len())
		}
	}

	// Duplicate inserts fail identically on both engines.
	for _, e := range engines {
		err := func() error {
			_, err := e.eng.Insert(ctx, []*geo.Trajectory{ds[10]}, MutateOptions{})
			return err
		}()
		if !errors.Is(err, ErrDuplicateID) {
			t.Fatalf("%s duplicate insert: %v", e.name, err)
		}
		if _, err := e.eng.Insert(ctx, []*geo.Trajectory{{ID: 1}}, MutateOptions{}); err == nil {
			t.Fatalf("%s empty insert should fail", e.name)
		}
	}
}

// countLive counts how many of ids are currently live in the mirror.
func countLive(mirror *oracle.Set, ids []int) int {
	n := 0
	for _, id := range ids {
		if mirror.Has(id) {
			n++
		}
	}
	return n
}

// testSpecOf rebuilds the testWorld spec (measure/params only).
func testSpecOf(t *testing.T) IndexSpec {
	t.Helper()
	_, _, spec := testWorld(t, 1, 1)
	return spec
}

// TestGenerationPin: a pin above the current generation fails with
// rptrie.ErrStale locally; a satisfied pin (taken from a mutation's
// Gens) succeeds on both engines.
func TestGenerationPin(t *testing.T) {
	ds, local, remote := remotePair(t, 120, 3, 2)
	ctx := context.Background()

	// Future pin on an untouched partition fails.
	_, _, err := local.Search(ctx, ds[0].Points, 3, QueryOptions{MinGens: []uint64{9}})
	if !errors.Is(err, rptrie.ErrStale) {
		t.Fatalf("future pin: err = %v", err)
	}

	// A pin derived from a real mutation succeeds on both engines.
	adds := freshTrajs(rand.New(rand.NewSource(7)), 50_000, 9)
	for _, eng := range []Engine{local, remote} {
		gens, err := eng.Insert(ctx, adds, MutateOptions{})
		if err != nil {
			t.Fatal(err)
		}
		pins := make([]uint64, eng.NumPartitions())
		for pid, gen := range gens {
			pins[pid] = gen
		}
		if _, _, err := eng.Search(ctx, ds[0].Points, 3, QueryOptions{MinGens: pins}); err != nil {
			t.Fatalf("satisfied pin: %v", err)
		}
		adds = cloneWithIDs(adds, 60_000) // fresh ids for the second engine
	}
}

func cloneWithIDs(trs []*geo.Trajectory, base int) []*geo.Trajectory {
	out := make([]*geo.Trajectory, len(trs))
	for i, tr := range trs {
		out[i] = &geo.Trajectory{ID: base + i, Points: tr.Points}
	}
	return out
}

// TestImmutableBaseline: mutations on a baseline-algorithm engine
// fail with ErrImmutable and leave nothing applied.
func TestImmutableBaseline(t *testing.T) {
	_, parts, spec := testWorld(t, 80, 2)
	spec.Algorithm = LS
	c, err := BuildLocal(spec, parts, 2)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	tr := &geo.Trajectory{ID: 7777, Points: []geo.Point{{X: 1, Y: 1}}}
	if _, err := c.Insert(ctx, []*geo.Trajectory{tr}, MutateOptions{}); !errors.Is(err, ErrImmutable) {
		t.Fatalf("baseline insert: %v", err)
	}
	if _, err := c.Compact(ctx, nil); !errors.Is(err, ErrImmutable) {
		t.Fatalf("baseline compact: %v", err)
	}
}

// TestAutoCompactThreshold: with AutoCompact set, a partition whose
// delta crosses the threshold compacts during the mutation call.
func TestAutoCompactThreshold(t *testing.T) {
	ds, parts, spec := testWorld(t, 60, 1) // one partition: deterministic routing
	local, err := BuildLocal(spec, parts, 2)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	rng := rand.New(rand.NewSource(3))

	// Below the absolute floor nothing compacts even at fraction 0.01.
	if _, err := local.Insert(ctx, freshTrajs(rng, 90_000, 8), MutateOptions{AutoCompact: 0.01}); err != nil {
		t.Fatal(err)
	}
	m := local.Indexes()[0].(*rptrie.Index)
	if m.DeltaLen() == 0 {
		t.Fatal("tiny delta should not have compacted")
	}

	// Crossing floor and fraction triggers compaction.
	if _, err := local.Insert(ctx, freshTrajs(rng, 91_000, 40), MutateOptions{AutoCompact: 0.01}); err != nil {
		t.Fatal(err)
	}
	if dl := m.DeltaLen(); dl != 0 {
		t.Fatalf("delta %d after threshold crossing, want 0", dl)
	}
	if local.Len() != len(ds)+48 {
		t.Fatalf("Len %d, want %d", local.Len(), len(ds)+48)
	}
}

// TestDeleteRepairsDirectoryDesync: an id the driver's directory does
// not know (e.g. from a mutation RPC whose outcome was lost) is still
// deletable — Delete broadcasts unknown ids to every partition, so a
// worker-side ghost cannot become permanent.
func TestDeleteRepairsDirectoryDesync(t *testing.T) {
	_, parts, spec := testWorld(t, 80, 3)
	local, err := BuildLocal(spec, parts, 2)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	// Simulate the desync: a trajectory lands in a partition index
	// without going through the engine (as if the driver lost the
	// RPC's reply after the worker applied it).
	ghost := &geo.Trajectory{ID: 555_555, Points: []geo.Point{{X: 1, Y: 1}, {X: 2, Y: 2}}}
	if err := local.Indexes()[1].(*rptrie.Index).Insert(ghost); err != nil {
		t.Fatal(err)
	}
	got, _, err := local.Search(ctx, ghost.Points, 1, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].ID != ghost.ID {
		t.Fatalf("ghost not visible before repair: %v", got)
	}

	n, _, err := local.Delete(ctx, []int{ghost.ID}, MutateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("repair delete removed %d, want 1", n)
	}
	got, _, err = local.Search(ctx, ghost.Points, 5, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range got {
		if r.ID == ghost.ID {
			t.Fatal("ghost survived the repair delete")
		}
	}
}

// TestRetryAfterLostInsertOutcome pins the failure contract: when an
// applied Insert's reply is lost (the directory never records the
// id), a retried Insert routes to the same partition — deterministic
// routing — and fails with a duplicate-id error instead of going live
// in a second partition, and a retried Upsert is idempotent.
func TestRetryAfterLostInsertOutcome(t *testing.T) {
	_, parts, spec := testWorld(t, 90, 4)
	local, err := BuildLocal(spec, parts, 2)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	tr := &geo.Trajectory{ID: 777_000, Points: []geo.Point{{X: 1, Y: 1}, {X: 2, Y: 2}}}
	if _, err := local.Insert(ctx, []*geo.Trajectory{tr}, MutateOptions{}); err != nil {
		t.Fatal(err)
	}
	// Simulate the lost reply: the partition holds tr, the directory
	// forgets it.
	local.dir.mu.Lock()
	delete(local.dir.loc, int32(tr.ID))
	local.dir.mu.Unlock()

	if _, err := local.Insert(ctx, []*geo.Trajectory{tr}, MutateOptions{}); err == nil {
		t.Fatal("retried insert of an applied id should fail, not duplicate it")
	}
	if _, err := local.Upsert(ctx, []*geo.Trajectory{tr}, MutateOptions{}); err != nil {
		t.Fatalf("retried upsert should be idempotent: %v", err)
	}
	// Exactly one live copy.
	got, _, err := local.Search(ctx, tr.Points, 5, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, r := range got {
		if r.ID == tr.ID {
			n++
		}
	}
	if n != 1 {
		t.Fatalf("id appears %d times after retry, want 1", n)
	}
}

// TestWorkerMutationRPCs exercises the v3 endpoints directly against
// a Worker, including the not-owned and version-mismatch paths.
func TestWorkerMutationRPCs(t *testing.T) {
	w := NewWorker()
	_, parts, spec := testWorld(t, 60, 2)
	var br BuildReply
	if err := w.Build(&BuildArgs{Version: ProtocolVersion, PartitionID: 0, Spec: spec, Trajectories: parts[0]}, &br); err != nil {
		t.Fatal(err)
	}

	var ir InsertReply
	args := &InsertArgs{Version: ProtocolVersion, PartitionID: 0, Trajectories: []*geo.Trajectory{{ID: 9999, Points: []geo.Point{{X: 1, Y: 1}}}}}
	if err := w.Insert(args, &ir); err != nil {
		t.Fatal(err)
	}
	if ir.Gen != 1 || ir.Len != len(parts[0])+1 {
		t.Fatalf("insert reply %+v", ir)
	}
	// Unversioned and unowned requests fail.
	if err := w.Insert(&InsertArgs{PartitionID: 0}, &ir); err == nil {
		t.Error("unversioned insert should fail")
	}
	args.PartitionID = 1
	if err := w.Insert(args, &ir); err == nil {
		t.Error("insert to unowned partition should fail")
	}

	var dr DeleteReply
	if err := w.Delete(&DeleteArgs{Version: ProtocolVersion, PartitionID: 0, IDs: []int{9999, 123456}}, &dr); err != nil {
		t.Fatal(err)
	}
	if dr.Removed != 1 || dr.Len != len(parts[0]) {
		t.Fatalf("delete reply %+v", dr)
	}

	var cr CompactReply
	if err := w.Compact(&CompactArgs{Version: ProtocolVersion}, &cr); err != nil {
		t.Fatal(err)
	}
	if len(cr.Gens) != 1 {
		t.Fatalf("compact reply %+v", cr)
	}
}

// TestQueriesDuringMutations races engine-level queries against
// mutations on the local engine and checks every answer is internally
// consistent (sorted, deduplicated, only ever-known ids). Run under
// -race in CI.
func TestQueriesDuringMutations(t *testing.T) {
	ds, parts, spec := testWorld(t, 150, 4)
	local, err := BuildLocal(spec, parts, 4)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	known := make(map[int]bool, len(ds))
	for _, tr := range ds {
		known[tr.ID] = true
	}
	adds := freshTrajs(rand.New(rand.NewSource(1)), 70_000, 120)
	for _, tr := range adds {
		known[tr.ID] = true
	}

	done := make(chan error, 3)
	go func() {
		for i := 0; i < len(adds); i += 4 {
			if _, err := local.Insert(ctx, adds[i:i+4], MutateOptions{}); err != nil {
				done <- err
				return
			}
			if _, _, err := local.Delete(ctx, []int{adds[i].ID}, MutateOptions{}); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	go func() {
		for i := 0; i < 10; i++ {
			if _, err := local.Compact(ctx, nil); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	go func() {
		q := ds[3].Points
		for i := 0; i < 200; i++ {
			got, _, err := local.Search(ctx, q, 15, QueryOptions{})
			if err != nil {
				done <- err
				return
			}
			seen := map[int]bool{}
			for j, r := range got {
				if !known[r.ID] || seen[r.ID] || (j > 0 && got[j-1].Dist > r.Dist) {
					done <- errors.New("inconsistent racing result")
					return
				}
				seen[r.ID] = true
			}
		}
		done <- nil
	}()
	for i := 0; i < 3; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}
