package rptrie

import (
	"errors"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"

	"repose/internal/dist"
	"repose/internal/geo"
	"repose/internal/grid"
	"repose/internal/leakcheck"
	"repose/internal/oracle"
	"repose/internal/storage"
	"repose/internal/storage/failpoint"
)

func durableCfg(t *testing.T) Config {
	t.Helper()
	region := geo.Rect{Min: geo.Point{X: 0, Y: 0}, Max: geo.Point{X: 8, Y: 8}}
	g, err := grid.NewWithBits(region, 4)
	if err != nil {
		t.Fatal(err)
	}
	return Config{Measure: dist.Hausdorff, Grid: g}
}

// TestDurableRoundTripOnDisk exercises the real filesystem: build,
// mutate, close, reopen in a fresh process-equivalent, and compare
// answers to the oracle. Both layouts, plus a partition whose
// checkpoint the retired succinct layout wrote.
func TestDurableRoundTripOnDisk(t *testing.T) {
	base := leakcheck.Base()
	defer leakcheck.Settle(t, base)
	t.Run("succinct", testDurableSuccinctCheckpoint)
	for _, layout := range dynLayouts {
		t.Run(layout, func(t *testing.T) {
			dir := t.TempDir()
			rng := rand.New(rand.NewSource(77))
			ds := randomDataset(rng, 25)
			cfg := durableCfg(t)
			l, err := ParseLayout(layout)
			if err != nil {
				t.Fatal(err)
			}
			opts := DurableOptions{Layout: l}

			d, err := BuildDurable(dir, cfg, ds, opts)
			if err != nil {
				t.Fatal(err)
			}
			mirror := oracle.NewSet(ds)
			fresh := randomFresh(rng, 1000, 3)
			if err := d.Insert(fresh...); err != nil {
				t.Fatal(err)
			}
			mirror.Insert(fresh...)
			if n := d.Delete(ds[0].ID, ds[1].ID); n != 2 {
				t.Fatalf("delete removed %d, want 2", n)
			}
			mirror.Delete(ds[0].ID, ds[1].ID)
			repl := randomFresh(rng, ds[2].ID, 1)
			if err := d.Upsert(repl...); err != nil {
				t.Fatal(err)
			}
			mirror.Insert(repl...)
			gen := d.Generation()
			if gen != 3 {
				t.Fatalf("generation %d after three mutations, want 3", gen)
			}
			if err := d.Close(); err != nil {
				t.Fatal(err)
			}
			// Mutations after close must fail, queries keep working.
			if err := d.Insert(randomFresh(rng, 2000, 1)...); err == nil {
				t.Fatal("insert after Close succeeded")
			}
			if got := d.Search(ds[3].Points, 1); len(got) == 0 {
				t.Fatal("query after Close returned nothing")
			}

			d2, err := OpenDurable(dir, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer d2.Close()
			if d2.Generation() != gen {
				t.Fatalf("recovered generation %d, want %d", d2.Generation(), gen)
			}
			if d2.Layout() != l {
				t.Fatalf("recovered layout %v, want %v", d2.Layout(), l)
			}
			if d2.Len() != mirror.Len() {
				t.Fatalf("recovered %d live, oracle %d", d2.Len(), mirror.Len())
			}
			ids := d2.LiveIDs()
			sort.Ints(ids)
			wantIDs := mirror.IDs()
			sort.Ints(wantIDs)
			if len(ids) != len(wantIDs) {
				t.Fatalf("LiveIDs %v, want %v", ids, wantIDs)
			}
			for i := range ids {
				if ids[i] != wantIDs[i] {
					t.Fatalf("LiveIDs %v, want %v", ids, wantIDs)
				}
			}
			for i := 0; i < 20; i++ {
				q := randomDataset(rng, 1)[0]
				k := 1 + rng.Intn(8)
				diffAssertTopK(t, "reopen", cfg.Measure, cfg.Params, mirror, q.Points, k, d2.Search(q.Points, k))
			}
			// Compact on the recovered handle folds the replayed delta
			// and checkpoints; a third open must land on the same state.
			if err := d2.Compact(); err != nil {
				t.Fatal(err)
			}
			if d2.DeltaLen() != 0 {
				t.Fatalf("delta %d after compact", d2.DeltaLen())
			}
			if err := d2.Close(); err != nil {
				t.Fatal(err)
			}
			d3, err := OpenDurable(dir, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer d3.Close()
			if d3.Generation() != gen+1 || d3.Len() != mirror.Len() {
				t.Fatalf("post-compact reopen: gen %d len %d, want gen %d len %d",
					d3.Generation(), d3.Len(), gen+1, mirror.Len())
			}
		})
	}
}

// TestDurableOpenMissing: a directory that never held an index (or
// does not exist) fails with ErrNoDurable so callers can fall back to
// a rebuild or a peer snapshot.
func TestDurableOpenMissing(t *testing.T) {
	if _, err := OpenDurable(t.TempDir(), DurableOptions{}); !errors.Is(err, ErrNoDurable) {
		t.Fatalf("open of empty dir: %v, want ErrNoDurable", err)
	}
	fs := failpoint.New(9)
	if _, err := OpenDurable("nope", DurableOptions{VFS: fs}); !errors.Is(err, ErrNoDurable) {
		t.Fatalf("open of missing dir: %v, want ErrNoDurable", err)
	}
}

// TestDurablePoisonOnSyncFailure: a dropped-write storage failure
// rolls the mutation back, reports it, and poisons the handle
// read-only so no later acknowledgement can lie.
func TestDurablePoisonOnStorageFailure(t *testing.T) {
	fs := failpoint.New(11)
	rng := rand.New(rand.NewSource(11))
	ds := randomDataset(rng, 10)
	d, err := BuildDurable("part", durableCfg(t), ds, DurableOptions{VFS: fs})
	if err != nil {
		t.Fatal(err)
	}
	lenBefore, genBefore := d.Len(), d.Generation()
	fs.Crash() // every IO from here on fails
	if err := d.Insert(randomFresh(rng, 100, 1)...); err == nil {
		t.Fatal("insert with dead storage succeeded")
	} else if !errors.Is(err, ErrDurability) {
		t.Fatalf("insert error %v, want ErrDurability", err)
	}
	if d.Err() == nil {
		t.Fatal("handle not poisoned after storage failure")
	}
	if d.Len() != lenBefore || d.Generation() != genBefore {
		t.Fatalf("failed insert left state: len %d gen %d, want %d/%d",
			d.Len(), d.Generation(), lenBefore, genBefore)
	}
	// Every further mutation fails fast; deletes report zero.
	if err := d.Upsert(randomFresh(rng, ds[0].ID, 1)...); err == nil {
		t.Fatal("upsert on poisoned handle succeeded")
	}
	if n := d.Delete(ds[0].ID); n != 0 {
		t.Fatalf("delete on poisoned handle acknowledged %d", n)
	}
	if err := d.Compact(); err == nil {
		t.Fatal("compact on poisoned handle succeeded")
	}
	// Queries still serve the last acknowledged state.
	if got := d.Search(ds[0].Points, 1); len(got) == 0 {
		t.Fatal("poisoned handle stopped answering queries")
	}
	d.Close()
}

// TestDurableWrapRejectsForeignTypes: an index that already has a
// write-ahead log cannot be given a second one.
func TestDurableWrapRejectsForeignTypes(t *testing.T) {
	fs := failpoint.New(1)
	d, err := BuildDurable("part", durableCfg(t), randomDataset(rand.New(rand.NewSource(1)), 4), DurableOptions{VFS: fs})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if _, err := WrapDurable("other", d, DurableOptions{VFS: fs}); err == nil {
		t.Fatal("WrapDurable of a durable index succeeded")
	}
}

// TestDurableCompactCheckpointTrimsWAL: the automatic checkpoint
// after Compact resets the log, so recovery replays nothing.
func TestDurableCompactCheckpointTrimsWAL(t *testing.T) {
	fs := failpoint.New(13)
	rng := rand.New(rand.NewSource(13))
	ds := randomDataset(rng, 12)
	d, err := BuildDurable("part", durableCfg(t), ds, DurableOptions{VFS: fs})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Insert(randomFresh(rng, 500, 4)...); err != nil {
		t.Fatal(err)
	}
	if err := d.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	st, err := storage.Open("part", storage.Options{VFS: fs})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if gen := st.CheckpointGen(); gen != 2 {
		t.Fatalf("checkpoint generation %d, want 2 (insert + compact)", gen)
	}
	records := 0
	if err := st.Replay(func(storage.WALRecord) error { records++; return nil }); err != nil {
		t.Fatal(err)
	}
	if records != 0 {
		t.Fatalf("%d WAL records survived the checkpoint, want 0", records)
	}
}

// TestDurableConcurrentInsertCompactNoDeadlock regresses the WAL
// lock-order inversion end to end: an Insert's acknowledge fsync runs
// outside d.mu (group commit), so it can race the WAL reset inside a
// Compact-triggered checkpoint. With the inverted lock order that
// pairing deadlocked and hung every writer permanently; the watchdog
// turns a recurrence into a failure. Afterwards the store must still
// recover every acknowledged insert.
func TestDurableConcurrentInsertCompactNoDeadlock(t *testing.T) {
	base := leakcheck.Base()
	defer leakcheck.Settle(t, base)
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(99))
	ds := randomDataset(rng, 10)
	d, err := BuildDurable(dir, durableCfg(t), ds, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	const writers, each, compacts = 4, 50, 25
	done := make(chan struct{})
	go func() {
		defer close(done)
		var wg sync.WaitGroup
		for g := 0; g < writers; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(100 + g)))
				for i := 0; i < each; i++ {
					if err := d.Insert(randomFresh(rng, 10_000+g*1_000+i, 1)...); err != nil {
						t.Errorf("writer %d insert %d: %v", g, i, err)
						return
					}
				}
			}(g)
		}
		for i := 0; i < compacts; i++ {
			if err := d.Compact(); err != nil {
				t.Errorf("Compact %d: %v", i, err)
				break
			}
		}
		wg.Wait()
	}()
	select {
	case <-done:
	case <-time.After(120 * time.Second):
		t.Fatal("deadlock: concurrent Insert and Compact hung (WAL Sync vs Reset lock order)")
	}
	wantLen, wantGen := d.Len(), d.Generation()
	if wantLen != len(ds)+writers*each {
		t.Fatalf("in-memory index holds %d trajectories, want %d", wantLen, len(ds)+writers*each)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := OpenDurable(dir, DurableOptions{})
	if err != nil {
		t.Fatalf("reopen after concurrent workload: %v", err)
	}
	defer re.Close()
	if re.Len() != wantLen || re.Generation() != wantGen {
		t.Fatalf("recovered len=%d gen=%d, want len=%d gen=%d",
			re.Len(), re.Generation(), wantLen, wantGen)
	}
}

// testDurableSuccinctCheckpoint: a partition whose checkpoint is an
// image of the retired succinct layout (tagged with its Layout value,
// here the frozen golden image) recovers as compressed at the image's
// generation, answers like a fresh compressed build of the same state,
// and keeps taking mutations that checkpoint in the compressed layout.
func testDurableSuccinctCheckpoint(t *testing.T) {
	dir := t.TempDir()
	st, err := storage.Open(dir, storage.Options{})
	if err != nil {
		t.Fatal(err)
	}
	image := append([]byte{byte(layoutSuccinct)}, loadFrozen(t, "succinct.img", wireVersion)...)
	if err := st.Checkpoint(image, 2); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	d, err := OpenDurable(dir, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if d.Layout() != LayoutCompressed || d.Generation() != 2 || d.Len() != 5 {
		t.Fatalf("recovered layout=%v gen=%d len=%d, want compressed, 2, 5", d.Layout(), d.Generation(), d.Len())
	}
	tr, q := goldenIndex(t)
	fresh, err := CompressTST(tr)
	if err != nil {
		t.Fatal(err)
	}
	for _, probe := range goldenProbes(q) {
		if got, want := d.Search(probe, 3), fresh.Search(probe, 3); !bitIdentical(got, want) {
			t.Fatalf("top-3 %v, fresh compressed %v", got, want)
		}
		got, err := d.SearchRadiusContext(nil, probe, 2.5, SearchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if want := fresh.SearchRadius(probe, 2.5); !bitIdentical(got, want) {
			t.Fatalf("radius %v, fresh compressed %v", got, want)
		}
	}
	if err := d.Insert(mkTraj(200, 6.5, 6.5, 7.5, 6.5)); err != nil {
		t.Fatal(err)
	}
	if err := d.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d, err = OpenDurable(dir, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if d.Layout() != LayoutCompressed || d.Generation() != 4 || d.Len() != 6 {
		t.Fatalf("reopened layout=%v gen=%d len=%d, want compressed, 4, 6", d.Layout(), d.Generation(), d.Len())
	}
}
