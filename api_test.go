package repose

import (
	"context"
	"errors"
	"net"
	"testing"
	"time"

	"repose/internal/cluster/chaos"
	"repose/internal/leakcheck"
)

// startTestWorkers spins up n in-process TCP workers whose lifetime
// is bound to the test.
func startTestWorkers(t *testing.T, n int) []string {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	ready := make(chan string, n)
	for i := 0; i < n; i++ {
		go ServeWorkerContext(ctx, "127.0.0.1:0", func(addr string) { ready <- addr })
	}
	addrs := make([]string, n)
	for i := range addrs {
		addrs[i] = <-ready
	}
	return addrs
}

// TestLocalRemoteParity is the acceptance test for the unified API:
// Search, SearchRadius, and SearchBatch produce identical results on
// the in-process and TCP-remote backends for the same seed/dataset,
// options included.
func TestLocalRemoteParity(t *testing.T) {
	ds := testData(t, 250)
	opts := Options{Partitions: 6, Seed: 9}
	local, err := Build(ds, opts)
	if err != nil {
		t.Fatal(err)
	}
	remote, err := BuildRemote(ds, opts, startTestWorkers(t, 3))
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()
	if local.Engine().String() != "local" || remote.Engine().String() != "remote" {
		t.Fatalf("engines = %v, %v", local.Engine(), remote.Engine())
	}
	if l, r := local.Stats(), remote.Stats(); l.Trajectories != r.Trajectories || l.Partitions != r.Partitions || l.IndexBytes != r.IndexBytes {
		t.Fatalf("stats diverge: local %+v remote %+v", l, r)
	}

	ctx := context.Background()
	assertSame := func(what string, a, b []Result, err1, err2 error) {
		t.Helper()
		if err1 != nil || err2 != nil {
			t.Fatalf("%s: errs %v, %v", what, err1, err2)
		}
		if len(a) != len(b) {
			t.Fatalf("%s: len %d vs %d", what, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s rank %d: %+v vs %+v", what, i, a[i], b[i])
			}
		}
	}

	for _, qi := range []int{7, 42, 133} {
		q := ds[qi]
		lres, lerr := local.Search(ctx, q, 10)
		rres, rerr := remote.Search(ctx, q, 10)
		assertSame("search", lres, rres, lerr, rerr)

		lres, lerr = local.Search(ctx, q, 10, WithoutPivots())
		rres, rerr = remote.Search(ctx, q, 10, WithoutPivots())
		assertSame("search-no-pivots", lres, rres, lerr, rerr)

		lres, lerr = local.Search(ctx, q, 10, WithPartitions(1, 4))
		rres, rerr = remote.Search(ctx, q, 10, WithPartitions(1, 4))
		assertSame("search-subset", lres, rres, lerr, rerr)

		lres, lerr = local.SearchRadius(ctx, q, 0.5)
		rres, rerr = remote.SearchRadius(ctx, q, 0.5)
		assertSame("radius", lres, rres, lerr, rerr)
	}

	var lrep, rrep BatchReport
	lbatch, lerr := local.SearchBatch(ctx, ds[:9], 5, WithBatchReport(&lrep))
	rbatch, rerr := remote.SearchBatch(ctx, ds[:9], 5, WithBatchReport(&rrep))
	if lerr != nil || rerr != nil {
		t.Fatalf("batch errs: %v, %v", lerr, rerr)
	}
	if len(lbatch) != 9 || len(rbatch) != 9 {
		t.Fatalf("batch lens %d, %d", len(lbatch), len(rbatch))
	}
	for qi := range lbatch {
		assertSame("batch", lbatch[qi], rbatch[qi], nil, nil)
	}
	if lrep.Makespan <= 0 || rrep.Makespan <= 0 {
		t.Errorf("batch reports: %+v, %+v", lrep, rrep)
	}
}

// TestCancellationBothBackends: a context whose deadline has passed
// stops a running query on both backends with
// context.DeadlineExceeded, without leaking goroutines.
func TestCancellationBothBackends(t *testing.T) {
	ds := testData(t, 400)
	opts := Options{Partitions: 6}
	local, err := Build(ds, opts)
	if err != nil {
		t.Fatal(err)
	}
	remote, err := BuildRemote(ds, opts, startTestWorkers(t, 2))
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()

	ctx := context.Background()
	// Warm both engines so the goroutine baseline is steady state.
	if _, err := local.Search(ctx, ds[0], 5); err != nil {
		t.Fatal(err)
	}
	if _, err := remote.Search(ctx, ds[0], 5); err != nil {
		t.Fatal(err)
	}
	base := leakcheck.Base()

	for _, idx := range []*Index{local, remote} {
		name := idx.Engine().String()
		expired, cancel := context.WithDeadline(ctx, time.Now().Add(-time.Millisecond))
		if _, err := idx.Search(expired, ds[1], 5); !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("%s search: err = %v", name, err)
		}
		if _, err := idx.SearchRadius(expired, ds[1], 0.5); !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("%s radius: err = %v", name, err)
		}
		if _, err := idx.SearchBatch(expired, ds[:4], 5); !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("%s batch: err = %v", name, err)
		}
		cancel()
		// The engine still answers after cancellations.
		if _, err := idx.Search(ctx, ds[1], 5); err != nil {
			t.Errorf("%s post-cancel search: %v", name, err)
		}
	}

	// All query goroutines must drain; leakcheck paces itself on the
	// test's own deadline instead of a fixed sleep budget, so a loaded
	// -race CI machine cannot flake this.
	leakcheck.Settle(t, base)
}

// TestServeWorkerContextShutdown: cancelling the context closes the
// listener and unblocks the serve loop — the clean SIGINT path of
// cmd/repose-worker.
func TestServeWorkerContextShutdown(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	ready := make(chan string, 1)
	go func() {
		errc <- ServeWorkerContext(ctx, "127.0.0.1:0", func(addr string) { ready <- addr })
	}()
	addr := <-ready
	// The worker is live: a TCP dial succeeds.
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	conn.Close()
	cancel()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("serve returned %v", err)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("ServeWorkerContext did not return after cancel")
	}
	// The listener is gone.
	if conn, err := net.Dial("tcp", addr); err == nil {
		conn.Close()
		t.Error("listener still accepting after shutdown")
	}
}

// TestReplicatedFacadeFailover: the public API's fault-tolerance
// surface. A replicated remote index keeps answering — including
// reads of its own writes — while a worker is dead behind a chaos
// proxy, identically to a fault-free local index, and Health exposes
// the recovery.
func TestReplicatedFacadeFailover(t *testing.T) {
	ds := testData(t, 300)
	opts := Options{Partitions: 6, Seed: 4}
	local, err := Build(ds, opts)
	if err != nil {
		t.Fatal(err)
	}
	fleet, err := chaos.NewFleet(startTestWorkers(t, 3), chaos.Schedule{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fleet.Close() })
	remote, err := BuildRemote(ds, opts, fleet.Addrs(),
		WithReplication(2),
		WithFailover(FailoverConfig{
			FailThreshold: 1,
			ProbeInterval: 25 * time.Millisecond,
			CallTimeout:   500 * time.Millisecond,
		}))
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()
	ctx := context.Background()

	// Mutate through the facade, then kill a worker: the surviving
	// replicas must still satisfy the index's read-your-writes pins.
	fresh := &Trajectory{ID: 999_001, Points: []Point{{X: 0.5, Y: 0.5}, {X: 0.6, Y: 0.6}}}
	if err := local.Insert(ctx, []*Trajectory{fresh}); err != nil {
		t.Fatal(err)
	}
	if err := remote.Insert(ctx, []*Trajectory{fresh}); err != nil {
		t.Fatal(err)
	}
	p, err := fleet.At(1)
	if err != nil {
		t.Fatal(err)
	}
	p.Down()

	for _, q := range []*Trajectory{ds[3], fresh, ds[77]} {
		want, err := local.Search(ctx, q, 10)
		if err != nil {
			t.Fatal(err)
		}
		got, err := remote.Search(ctx, q, 10)
		if err != nil {
			t.Fatalf("replicated search with dead worker: %v", err)
		}
		if len(got) != len(want) {
			t.Fatalf("len %d want %d", len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("rank %d: %+v want %+v", i, got[i], want[i])
			}
		}
	}
	gotR, err := remote.SearchRadius(ctx, ds[3], 0.5)
	if err != nil {
		t.Fatalf("replicated radius with dead worker: %v", err)
	}
	wantR, err := local.SearchRadius(ctx, ds[3], 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(gotR) != len(wantR) {
		t.Fatalf("radius len %d want %d", len(gotR), len(wantR))
	}

	// Health reflects the dead worker, and the cluster heals after it
	// returns.
	down := 0
	for _, h := range remote.Health() {
		if h.Down {
			down++
		}
	}
	if down == 0 {
		t.Fatal("Health reports no dead worker while one is down")
	}
	if lh := local.Health(); len(lh) != 1 || lh[0].Addr != "local" || lh[0].Down {
		t.Fatalf("local index Health() = %+v, want one healthy synthetic worker", lh)
	}
	p.Up()
	deadline := time.Now().Add(20 * time.Second)
	tick := time.NewTicker(10 * time.Millisecond)
	defer tick.Stop()
	for {
		healthy := true
		for _, h := range remote.Health() {
			if h.Down || h.StaleParts > 0 {
				healthy = false
			}
		}
		if healthy {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("cluster did not heal: %+v", remote.Health())
		}
		<-tick.C
	}

	// Replication factor above the fleet size fails loudly.
	if _, err := BuildRemote(ds, opts, fleet.Addrs(), WithReplication(9)); err == nil {
		t.Fatal("over-replication should fail the build")
	}
}
