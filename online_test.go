package repose

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repose/internal/dist"
	"repose/internal/leakcheck"
	"repose/internal/oracle"
)

// freshTraj makes one random trajectory with the given id inside the
// test dataset's region.
func freshTraj(rng *rand.Rand, id int) *Trajectory {
	pts := make([]Point, 3+rng.Intn(12))
	for j := range pts {
		pts[j] = Point{X: rng.Float64() * 4, Y: rng.Float64() * 4}
	}
	return &Trajectory{ID: id, Points: pts}
}

// TestOnlineUpdatesPublicAPI is the acceptance test of the public
// mutation surface: an inserted trajectory is returned by the very
// next query and a deleted one never is, identically on the local and
// remote engines, for all three trie layouts.
func TestOnlineUpdatesPublicAPI(t *testing.T) {
	ds := testData(t, 150)
	ctx := context.Background()
	rng := rand.New(rand.NewSource(42))

	for _, layout := range []Layout{LayoutPointer, LayoutCompressed} {
		opts := Options{Partitions: 4, Layout: layout}
		local, err := Build(ds, opts)
		if err != nil {
			t.Fatal(err)
		}
		remote, err := BuildRemote(ds, opts, startTestWorkers(t, 2))
		if err != nil {
			t.Fatal(err)
		}
		defer remote.Close()

		for _, idx := range []*Index{local, remote} {
			name := fmt.Sprintf("layout=%v/%s", layout, idx.Engine())
			// Insert an exact copy of a probe query: next Search must
			// return it first.
			probe := freshTraj(rng, 900_000)
			if err := idx.Insert(ctx, []*Trajectory{probe}); err != nil {
				t.Fatalf("%s insert: %v", name, err)
			}
			res, err := idx.Search(ctx, probe, 1)
			if err != nil {
				t.Fatalf("%s search: %v", name, err)
			}
			if len(res) != 1 || res[0].ID != probe.ID || res[0].Dist != 0 {
				t.Fatalf("%s: inserted trajectory not returned: %v", name, res)
			}
			if got := idx.Stats().Trajectories; got != len(ds)+1 {
				t.Fatalf("%s: Stats.Trajectories = %d, want %d", name, got, len(ds)+1)
			}

			// Delete it plus a build-time member: neither may ever
			// appear again.
			n, err := idx.Delete(ctx, []int{probe.ID, ds[0].ID, 123456789})
			if err != nil {
				t.Fatalf("%s delete: %v", name, err)
			}
			if n != 2 {
				t.Fatalf("%s: delete removed %d, want 2", name, n)
			}
			res, err = idx.Search(ctx, probe, len(ds)+5)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range res {
				if r.ID == probe.ID || r.ID == ds[0].ID {
					t.Fatalf("%s: deleted trajectory %d returned", name, r.ID)
				}
			}

			// Upsert replaces in place; a brand-new id in the same
			// batch behaves like an insert.
			repl := freshTraj(rng, ds[1].ID)
			novel := freshTraj(rng, 901_000)
			if err := idx.Upsert(ctx, []*Trajectory{repl, novel}); err != nil {
				t.Fatalf("%s upsert: %v", name, err)
			}
			for _, probe := range []*Trajectory{repl, novel} {
				res, err = idx.Search(ctx, probe, 1)
				if err != nil {
					t.Fatal(err)
				}
				if len(res) != 1 || res[0].ID != probe.ID || res[0].Dist != 0 {
					t.Fatalf("%s: upserted trajectory %d not returned: %v", name, probe.ID, res)
				}
			}
			if _, err := idx.Delete(ctx, []int{novel.ID}); err != nil {
				t.Fatal(err)
			}

			// Compaction changes nothing observable.
			before, err := idx.Search(ctx, ds[7], 10)
			if err != nil {
				t.Fatal(err)
			}
			if err := idx.CompactNow(ctx); err != nil {
				t.Fatalf("%s compact: %v", name, err)
			}
			after, err := idx.Search(ctx, ds[7], 10)
			if err != nil {
				t.Fatal(err)
			}
			for i := range before {
				if before[i] != after[i] {
					t.Fatalf("%s: compaction changed rank %d: %v vs %v", name, i, before[i], after[i])
				}
			}

			// Typed errors.
			if err := idx.Insert(ctx, []*Trajectory{{ID: 1}}); !errors.Is(err, ErrEmptyTrajectory) {
				t.Fatalf("%s empty insert: %v", name, err)
			}
			if err := idx.Insert(ctx, []*Trajectory{ds[9]}); !errors.Is(err, ErrDuplicateID) {
				t.Fatalf("%s duplicate insert: %v", name, err)
			}
			// Undo this engine's edits so the next engine starts from
			// the same world... each engine has its own copy, so no
			// cleanup is needed; just sanity-check the count.
			if got := idx.Stats().Trajectories; got != len(ds)-1 {
				t.Fatalf("%s: final Trajectories = %d, want %d", name, got, len(ds)-1)
			}
		}
	}
}

// TestMutationsAfterClose: every mutation method fails with ErrClosed
// on a closed index.
func TestMutationsAfterClose(t *testing.T) {
	ds := testData(t, 40)
	idx, err := Build(ds, Options{Partitions: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := idx.Close(); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := idx.Insert(ctx, []*Trajectory{freshTraj(rand.New(rand.NewSource(1)), 999)}); !errors.Is(err, ErrClosed) {
		t.Errorf("insert after close: %v", err)
	}
	if _, err := idx.Delete(ctx, []int{1}); !errors.Is(err, ErrClosed) {
		t.Errorf("delete after close: %v", err)
	}
	if err := idx.CompactNow(ctx); !errors.Is(err, ErrClosed) {
		t.Errorf("compact after close: %v", err)
	}
}

// TestConcurrentMutationStress races queries against Insert, Delete,
// and CompactNow on one shared local index — the -race stress of the
// snapshot scheme. Every racing query must be snapshot-consistent:
// sorted, deduplicated, distances exact for a known version of the
// id, and ids deleted before the race started must never appear. The
// final quiesced state is pinned to the oracle, and the run must not
// leak goroutines.
func TestConcurrentMutationStress(t *testing.T) {
	ds := testData(t, 120)
	idx, err := Build(ds, Options{Partitions: 3})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	m := idx.opts.Measure
	params := dist.Params{Epsilon: idx.opts.Epsilon, Gap: idx.region.Min}

	// Phase 0 (sequential): delete a known set; the racing phase must
	// never surface these ids, and mutators never reuse them.
	preDeleted := []int{ds[0].ID, ds[1].ID, ds[2].ID}
	if n, err := idx.Delete(ctx, preDeleted); err != nil || n != 3 {
		t.Fatalf("pre-delete: n=%d err=%v", n, err)
	}
	dead := map[int]bool{}
	for _, id := range preDeleted {
		dead[id] = true
	}

	// Every id ever inserted keeps exactly one immutable version, so
	// racing queries can verify reported distances exactly.
	versions := sync.Map{} // id → *Trajectory
	for _, tr := range ds {
		versions.Store(tr.ID, tr)
	}

	if _, err := idx.Search(ctx, ds[5], 5); err != nil { // warm the pools
		t.Fatal(err)
	}
	base := leakcheck.Base()

	const (
		mutators  = 2
		queriers  = 4
		perWorker = 60
	)
	var wg sync.WaitGroup
	errCh := make(chan error, mutators+queriers+1)

	for w := 0; w < mutators; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + w)))
			for i := 0; i < perWorker; i++ {
				id := 1_000_000 + w*perWorker + i
				tr := freshTraj(rng, id)
				versions.Store(id, tr)
				if err := idx.Insert(ctx, []*Trajectory{tr}, WithAutoCompact(DefaultCompactFraction)); err != nil {
					errCh <- fmt.Errorf("mutator %d insert: %w", w, err)
					return
				}
				if i%3 == 0 {
					if _, err := idx.Delete(ctx, []int{id}); err != nil {
						errCh <- fmt.Errorf("mutator %d delete: %w", w, err)
						return
					}
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 6; i++ {
			if err := idx.CompactNow(ctx); err != nil {
				errCh <- fmt.Errorf("compactor: %w", err)
				return
			}
		}
	}()
	for w := 0; w < queriers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(200 + w)))
			for i := 0; i < perWorker; i++ {
				q := freshTraj(rng, -1)
				k := 1 + rng.Intn(20)
				res, err := idx.Search(ctx, q, k)
				if err != nil {
					errCh <- fmt.Errorf("querier %d: %w", w, err)
					return
				}
				seen := map[int]bool{}
				for j, r := range res {
					if dead[r.ID] {
						errCh <- fmt.Errorf("querier %d: pre-deleted id %d returned", w, r.ID)
						return
					}
					if seen[r.ID] {
						errCh <- fmt.Errorf("querier %d: duplicate id %d", w, r.ID)
						return
					}
					seen[r.ID] = true
					if j > 0 && res[j-1].Dist > r.Dist {
						errCh <- fmt.Errorf("querier %d: unsorted results %v", w, res)
						return
					}
					v, ok := versions.Load(r.ID)
					if !ok {
						errCh <- fmt.Errorf("querier %d: unknown id %d", w, r.ID)
						return
					}
					exact := dist.Distance(m, q.Points, v.(*Trajectory).Points, params)
					if d := exact - r.Dist; d > 1e-9 || d < -1e-9 {
						errCh <- fmt.Errorf("querier %d: id %d dist %v, exact %v", w, r.ID, r.Dist, exact)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	// Quiesce: compact, then the final state must match the oracle
	// over the final live set exactly.
	if err := idx.CompactNow(ctx); err != nil {
		t.Fatal(err)
	}
	live := oracle.NewSet(nil)
	versions.Range(func(_, v any) bool {
		live.Insert(v.(*Trajectory))
		return true
	})
	// Remove everything the run deleted: pre-deleted ids plus each
	// mutator's i%3 victims.
	live.Delete(preDeleted...)
	for w := 0; w < mutators; w++ {
		for i := 0; i < perWorker; i += 3 {
			live.Delete(1_000_000 + w*perWorker + i)
		}
	}
	if got := idx.Stats().Trajectories; got != live.Len() {
		t.Fatalf("final live count %d, oracle %d", got, live.Len())
	}
	q := freshTraj(rand.New(rand.NewSource(7)), -1)
	want := live.TopK(m, params, q.Points, 15)
	got, err := idx.Search(ctx, q, 15)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("final query: %d results, oracle %d", len(got), len(want))
	}
	for i := range got {
		if d := got[i].Dist - want[i].Dist; d > 1e-9 || d < -1e-9 {
			t.Fatalf("final query rank %d: %v, oracle %v", i, got[i], want[i])
		}
	}

	// No goroutine may outlive the race; the deadline-aware settle
	// replaces the fixed 3s sleep loop that flaked under -race load.
	leakcheck.Settle(t, base)
}
