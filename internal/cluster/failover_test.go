package cluster

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"os"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repose/internal/cluster/chaos"
	"repose/internal/dataset"
	"repose/internal/geo"
	"repose/internal/leakcheck"
	"repose/internal/oracle"
	"repose/internal/rptrie"
	"repose/internal/topk"
)

// fastFailover is the test tuning: trip circuits on the first
// failure, probe aggressively, and fail attempts over quickly so
// black-holed workers cannot stall a test.
var fastFailover = FailoverConfig{
	FailThreshold: 1,
	ProbeInterval: 25 * time.Millisecond,
	CallTimeout:   400 * time.Millisecond,
}

// chaosWorld starts n workers each behind a chaos proxy, builds a
// replicated remote through the proxies, and returns everything a
// failover test needs. The schedule stays disarmed during build.
func chaosWorld(t *testing.T, nTraj, nParts, nWorkers, replicas int, sched chaos.Schedule) ([]*geo.Trajectory, IndexSpec, *chaos.Fleet, *Remote) {
	t.Helper()
	ds, parts, spec := testWorld(t, nTraj, nParts)
	spec.Replicas = replicas
	addrs := startWorkers(t, nWorkers)
	fleet, err := chaos.NewFleet(addrs, sched)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fleet.Close() })
	remote, err := BuildRemote(spec, parts, fleet.Addrs())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { remote.Close() })
	remote.SetFailover(fastFailover)
	return ds, spec, fleet, remote
}

// waitHealed blocks until every worker's circuit is closed and no
// replica is stale, or the deadline passes.
func waitHealed(t *testing.T, r *Remote, seed int64) {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	tick := time.NewTicker(10 * time.Millisecond)
	defer tick.Stop()
	for {
		healthy := true
		for _, h := range r.Health() {
			if h.Down || h.StaleParts > 0 {
				healthy = false
			}
		}
		if healthy {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("cluster did not heal: %+v (seed=%d)", r.Health(), seed)
		}
		<-tick.C
	}
}

// assertBitIdentical fails unless got and want are exactly equal,
// printing the reproducing seed.
func assertBitIdentical(t *testing.T, ctx string, seed int64, got, want []topk.Item) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, oracle has %d (seed=%d)", ctx, len(got), len(want), seed)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s rank %d: %+v, oracle %+v (seed=%d)", ctx, i, got[i], want[i], seed)
		}
	}
}

// TestReplicatedPlacement: replicas land on distinct workers,
// round-robin, and an impossible factor is rejected.
func TestReplicatedPlacement(t *testing.T) {
	ds, parts, spec := testWorld(t, 80, 4)
	spec.Replicas = 5
	if _, err := BuildRemote(spec, parts, startWorkers(t, 3)); err == nil {
		t.Fatal("replication factor above worker count should fail the build")
	}

	spec.Replicas = 2
	addrs := startWorkers(t, 3)
	remote, err := BuildRemote(spec, parts, addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()
	if remote.Replicas() != 2 {
		t.Fatalf("Replicas() = %d", remote.Replicas())
	}
	for pid, owners := range remote.owners {
		if len(owners) != 2 {
			t.Fatalf("partition %d has %d replicas", pid, len(owners))
		}
		if owners[0] == owners[1] {
			t.Fatalf("partition %d replicas share worker %d", pid, owners[0])
		}
		if owners[0] != pid%3 || owners[1] != (pid+1)%3 {
			t.Fatalf("partition %d placed at %v, want round-robin", pid, owners)
		}
	}
	// Replication must not change answers or bookkeeping.
	local, err := BuildLocal(spec, parts, 2)
	if err != nil {
		t.Fatal(err)
	}
	if remote.Len() != local.Len() || remote.IndexSizeBytes() != local.IndexSizeBytes() {
		t.Fatalf("replicated bookkeeping diverged: len %d/%d size %d/%d",
			remote.Len(), local.Len(), remote.IndexSizeBytes(), local.IndexSizeBytes())
	}
	for _, q := range dataset.Queries(ds, 3, 5) {
		got, _, err := remote.Search(context.Background(), q.Points, 7, QueryOptions{})
		if err != nil {
			t.Fatal(err)
		}
		want, _, err := local.Search(context.Background(), q.Points, 7, QueryOptions{})
		if err != nil {
			t.Fatal(err)
		}
		assertBitIdentical(t, "replicated fault-free", 0, got, want)
	}
}

// TestWorkerKilledMidQueryFailsOver is the acceptance scenario: with
// replication factor 2, a worker killed by the chaos proxy mid-query
// (the request reaches it; the response connection is cut) must not
// fail the query — Search, SearchRadius, and SearchBatch all return
// results bit-identical to the fault-free oracle answer.
func TestWorkerKilledMidQueryFailsOver(t *testing.T) {
	seed := chaosSeed()
	ds, spec, fleet, remote := chaosWorld(t, 300, 6, 3, 2, chaos.Schedule{})
	ctx := context.Background()
	queries := dataset.Queries(ds, 4, seed)

	for kill := 0; kill < 3; kill++ {
		p, err := fleet.At(kill)
		if err != nil {
			t.Fatal(err)
		}
		// Kill the worker as a crash would: every live connection is
		// severed and reconnects are refused. The in-flight call dies
		// with the connection and the scatter retries its partitions
		// on the surviving replicas.
		p.Down()

		for qi, q := range queries {
			want := oracle.TopK(spec.Measure, spec.Params, ds, q.Points, 10)
			got, _, err := remote.Search(ctx, q.Points, 10, QueryOptions{})
			if err != nil {
				t.Fatalf("search with worker %d dead: %v (seed=%d)", kill, err, seed)
			}
			assertBitIdentical(t, fmt.Sprintf("kill=%d search q%d", kill, qi), seed, got, want)

			wantR := oracle.Radius(spec.Measure, spec.Params, ds, q.Points, 0.6)
			gotR, _, err := remote.SearchRadius(ctx, q.Points, 0.6, QueryOptions{})
			if err != nil {
				t.Fatalf("radius with worker %d dead: %v (seed=%d)", kill, err, seed)
			}
			assertBitIdentical(t, fmt.Sprintf("kill=%d radius q%d", kill, qi), seed, gotR, wantR)
		}
		qpts := make([][]geo.Point, len(queries))
		for i, q := range queries {
			qpts[i] = q.Points
		}
		batch, _, err := remote.SearchBatch(ctx, qpts, 8, QueryOptions{})
		if err != nil {
			t.Fatalf("batch with worker %d dead: %v (seed=%d)", kill, err, seed)
		}
		for qi := range qpts {
			want := oracle.TopK(spec.Measure, spec.Params, ds, qpts[qi], 8)
			assertBitIdentical(t, fmt.Sprintf("kill=%d batch q%d", kill, qi), seed, batch[qi], want)
		}

		// Revive the worker and wait for the prober to heal it before
		// killing the next one — at most one worker is ever down.
		p.Up()
		waitHealed(t, remote, seed)
	}
}

// chaosSeed resolves the differential harness's seed: CHAOS_SEED from
// the environment (the CI matrix pins it) or a fixed default.
func chaosSeed() int64 {
	if v := os.Getenv("CHAOS_SEED"); v != "" {
		if n, err := strconv.ParseInt(v, 10, 64); err == nil {
			return n
		}
	}
	return 1
}

// TestChaosFailoverDifferential is the seeded differential harness:
// a replicated cluster runs a query-and-mutation workload while the
// chaos schedule randomly faults one worker at a time (drop, delay,
// black-hole, mid-stream cut). Every query's results must stay
// bit-identical to the fault-free oracle over the live set; every
// failure report prints the reproducing seed.
func TestChaosFailoverDifferential(t *testing.T) {
	seed := chaosSeed()
	sched := chaos.Schedule{
		Seed:       seed,
		PDrop:      0.15,
		PCut:       0.15,
		CutAfter:   32,
		PBlackhole: 0.10,
		PDelay:     0.20,
		Delay:      time.Millisecond,
	}
	ds, spec, fleet, remote := chaosWorld(t, 250, 5, 3, 2, sched)
	ctx := context.Background()
	mirror := oracle.NewSet(ds)
	rng := rand.New(rand.NewSource(seed))

	queries := dataset.Queries(ds, 6, seed+3)
	nextID := 500_000
	for round := 0; round < 6; round++ {
		// Fault exactly one worker per round: every partition keeps a
		// clean replica, so results must stay exact.
		victim, err := fleet.At(round % 3)
		if err != nil {
			t.Fatal(err)
		}
		victim.Arm(true)

		// A mutation batch, mirrored into the oracle. Mutations ride
		// the same faulted transport.
		adds := freshTrajs(rng, nextID, 8)
		nextID += 8
		if _, err := remote.Insert(ctx, adds, MutateOptions{}); err != nil {
			t.Fatalf("round %d insert: %v (seed=%d)", round, err, seed)
		}
		mirror.Insert(adds...)
		victimID := adds[0].ID
		if n, _, err := remote.Delete(ctx, []int{victimID}, MutateOptions{}); err != nil {
			t.Fatalf("round %d delete: %v (seed=%d)", round, err, seed)
		} else if n != 1 {
			t.Fatalf("round %d delete removed %d, want 1 (seed=%d)", round, n, seed)
		}
		mirror.Delete(victimID)

		for qi, q := range queries {
			got, _, err := remote.Search(ctx, q.Points, 10, QueryOptions{})
			if err != nil {
				t.Fatalf("round %d search q%d: %v (seed=%d)", round, qi, err, seed)
			}
			assertBitIdentical(t, fmt.Sprintf("round %d search q%d", round, qi),
				seed, got, mirror.TopK(spec.Measure, spec.Params, q.Points, 10))

			gotR, _, err := remote.SearchRadius(ctx, q.Points, 0.5, QueryOptions{})
			if err != nil {
				t.Fatalf("round %d radius q%d: %v (seed=%d)", round, qi, err, seed)
			}
			assertBitIdentical(t, fmt.Sprintf("round %d radius q%d", round, qi),
				seed, gotR, mirror.Radius(spec.Measure, spec.Params, q.Points, 0.5))
		}
		qpts := [][]geo.Point{queries[0].Points, queries[1].Points, queries[2].Points}
		batch, _, err := remote.SearchBatch(ctx, qpts, 6, QueryOptions{})
		if err != nil {
			t.Fatalf("round %d batch: %v (seed=%d)", round, err, seed)
		}
		for qi := range qpts {
			assertBitIdentical(t, fmt.Sprintf("round %d batch q%d", round, qi),
				seed, batch[qi], mirror.TopK(spec.Measure, spec.Params, qpts[qi], 6))
		}

		victim.Arm(false)
		victim.Up()
		waitHealed(t, remote, seed)
	}
}

// TestWorkerRestartRejoinsViaRestore: a worker replaced by a fresh,
// empty process at the same address (proxy re-target) is healed by
// the driver — Worker.Restore streams partition state from the
// surviving replicas, including mutations applied while it was dead —
// and afterwards serves its partitions alone, bit-identical to a
// fault-free engine that applied the same mutations.
func TestWorkerRestartRejoinsViaRestore(t *testing.T) {
	// The compressed layout ships a different snapshot image over the
	// heal path, so the rejoin flow runs for both it and the pointer
	// trie.
	for _, layout := range []rptrie.Layout{rptrie.LayoutPointer, rptrie.LayoutCompressed} {
		t.Run("layout="+layout.String(), func(t *testing.T) {
			testWorkerRestartRejoinsViaRestore(t, layout)
		})
	}
}

func testWorkerRestartRejoinsViaRestore(t *testing.T, layout rptrie.Layout) {
	seed := chaosSeed()
	// 4 partitions on 3 workers at factor 2: worker 0 hosts partition
	// 0 and 3 as primary and partition 2 as backup.
	ds, parts, spec := testWorld(t, 220, 4)
	spec.Replicas = 2
	spec.Layout = layout
	addrs := startWorkers(t, 3)
	fleet, err := chaos.NewFleet(addrs, chaos.Schedule{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fleet.Close() })
	remote, err := BuildRemote(spec, parts, fleet.Addrs())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { remote.Close() })
	remote.SetFailover(fastFailover)
	// The fault-free twin: a local engine fed the same mutations is
	// the oracle for partition-restricted queries (routing is
	// deterministic, so partition contents match exactly).
	twin, err := BuildLocal(spec, parts, 4)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	rng := rand.New(rand.NewSource(seed + 7))

	// Kill worker 0 outright.
	p0, err := fleet.At(0)
	if err != nil {
		t.Fatal(err)
	}
	p0.Down()

	// Mutate while it is dead: the survivors absorb the writes.
	adds := freshTrajs(rng, 700_000, 12)
	if _, err := remote.Insert(ctx, adds, MutateOptions{}); err != nil {
		t.Fatalf("insert with worker dead: %v (seed=%d)", err, seed)
	}
	if _, err := twin.Insert(ctx, adds, MutateOptions{}); err != nil {
		t.Fatal(err)
	}
	if n, _, err := remote.Delete(ctx, []int{ds[2].ID}, MutateOptions{}); err != nil || n != 1 {
		t.Fatalf("delete with worker dead: n=%d err=%v (seed=%d)", n, err, seed)
	}
	if n, _, err := twin.Delete(ctx, []int{ds[2].ID}, MutateOptions{}); err != nil || n != 1 {
		t.Fatal(err)
	}

	// "Restart" the process: a brand-new empty rejoin worker appears
	// at the same proxied address and the prober streams state back
	// into it.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go Serve(ln, NewRejoinWorker())
	p0.SetTarget(ln.Addr().String())
	p0.Up()
	waitHealed(t, remote, seed)

	// Kill worker 1. Partitions 0 and 3 are now answerable only by
	// the restored worker 0 — including the mutations it never saw
	// applied, which must have arrived via Worker.Restore.
	p1, err := fleet.At(1)
	if err != nil {
		t.Fatal(err)
	}
	p1.Down()
	q := dataset.Queries(ds, 2, seed+9)[0]
	sub := QueryOptions{Partitions: []int{0, 3}}
	got, _, err := remote.Search(ctx, q.Points, 12, sub)
	if err != nil {
		t.Fatalf("search served by restored worker: %v (seed=%d)", err, seed)
	}
	want, _, err := twin.Search(ctx, q.Points, 12, sub)
	if err != nil {
		t.Fatal(err)
	}
	assertBitIdentical(t, "restored-worker search", seed, got, want)

	// Kill worker 2 as well: partition 1 (replicas on workers 1 and
	// 2) has nobody left. Unrestricted queries must fail with the
	// typed unavailability error, never a silent partial answer.
	p2, err := fleet.At(2)
	if err != nil {
		t.Fatal(err)
	}
	p2.Down()
	remote.Search(ctx, q.Points, 3, QueryOptions{}) // trip the breakers
	_, _, err = remote.Search(ctx, q.Points, 3, QueryOptions{})
	if err == nil || !errors.Is(err, ErrUnavailable) {
		t.Fatalf("all-replicas-dead error = %v, want ErrUnavailable (seed=%d)", err, seed)
	}
	// Partitions the restored worker holds keep answering.
	got, _, err = remote.Search(ctx, q.Points, 12, sub)
	if err != nil {
		t.Fatalf("restricted search after double kill: %v (seed=%d)", err, seed)
	}
	assertBitIdentical(t, "restored-worker search after double kill", seed, got, want)
}

// TestHedgedQueryWinsAgainstSlowWorker: with hedging enabled, a
// worker whose link slows to a crawl stops gating the query — the
// hedged attempt on the replica answers, bit-identical to the oracle.
func TestHedgedQueryWinsAgainstSlowWorker(t *testing.T) {
	seed := chaosSeed()
	ds, spec, fleet, remote := chaosWorld(t, 200, 4, 2, 2, chaos.Schedule{})
	remote.SetFailover(FailoverConfig{
		FailThreshold: 100, // hedging only: the slow worker must not be struck
		ProbeInterval: 25 * time.Millisecond,
		CallTimeout:   20 * time.Second,
		HedgeAfter:    30 * time.Millisecond,
	})
	p, err := fleet.At(0)
	if err != nil {
		t.Fatal(err)
	}
	// ~every response chunk crawls: the primary will not answer within
	// the hedge threshold.
	p.Blackhole(true)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	q := dataset.Queries(ds, 1, seed+4)[0]
	start := time.Now()
	got, _, err := remote.Search(ctx, q.Points, 9, QueryOptions{})
	if err != nil {
		t.Fatalf("hedged search: %v (seed=%d)", err, seed)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("hedged search took %v; the hedge did not fire (seed=%d)", elapsed, seed)
	}
	assertBitIdentical(t, "hedged search", seed,
		got, oracle.TopK(spec.Measure, spec.Params, ds, q.Points, 9))
	// The slow worker was never tripped — hedging is not failure.
	for _, h := range remote.Health() {
		if h.Down {
			t.Fatalf("hedge tripped a circuit: %+v (seed=%d)", h, seed)
		}
	}
}

// TestChaosStressRace races chaos faults against concurrent queries
// and mutations on a replicated cluster (run under -race in CI):
// every successful answer must be internally consistent, the cluster
// must heal afterwards into a state bit-identical to the mutation
// mirror, and no goroutine may outlive the run.
func TestChaosStressRace(t *testing.T) {
	seed := chaosSeed()
	ds, parts, spec := testWorld(t, 150, 4)
	spec.Replicas = 2
	addrs := startWorkers(t, 3)
	base := leakcheck.Base() // everything below must be torn down again

	fleet, err := chaos.NewFleet(addrs, chaos.Schedule{})
	if err != nil {
		t.Fatal(err)
	}
	remote, err := BuildRemote(spec, parts, fleet.Addrs())
	if err != nil {
		fleet.Close()
		t.Fatal(err)
	}
	remote.SetFailover(FailoverConfig{
		FailThreshold: 1,
		ProbeInterval: 10 * time.Millisecond,
		CallTimeout:   2 * time.Second, // generous: -race is slow
	})
	ctx := context.Background()

	known := make(map[int]bool, len(ds))
	for _, tr := range ds {
		known[tr.ID] = true
	}
	var mirrorMu sync.Mutex
	mirror := oracle.NewSet(ds)
	var uncertain []int // mutation outcomes lost to injected faults

	stop := make(chan struct{})
	var wg, injectorWg sync.WaitGroup

	// Fault injector: one worker at a time, alternating kill shapes.
	// It runs until the workload goroutines (tracked by wg) finish.
	injectorWg.Add(1)
	go func() {
		defer injectorWg.Done()
		rng := rand.New(rand.NewSource(seed + 100))
		tick := time.NewTicker(15 * time.Millisecond)
		defer tick.Stop()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			case <-tick.C:
			}
			p, err := fleet.At(rng.Intn(3))
			if err != nil {
				return
			}
			if i%2 == 0 {
				p.Down()
			} else {
				p.Blackhole(true)
			}
			select {
			case <-stop:
				p.Up()
				return
			case <-tick.C:
			}
			p.Up()
		}
	}()

	// Mutator: small insert/delete batches, mirrored on success. A
	// failed call's outcome is unknown — those ids are repaired by a
	// broadcast delete after the storm.
	wg.Add(1)
	errCh := make(chan error, 2)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(seed + 200))
		next := 900_000
		for i := 0; i < 40; i++ {
			adds := freshTrajs(rng, next, 3)
			next += 3
			mirrorMu.Lock()
			if _, err := remote.Insert(ctx, adds, MutateOptions{}); err == nil {
				mirror.Insert(adds...)
			} else {
				for _, tr := range adds {
					uncertain = append(uncertain, tr.ID)
				}
			}
			mirrorMu.Unlock()
			if i%4 == 3 {
				victim := adds[0].ID
				mirrorMu.Lock()
				if _, _, err := remote.Delete(ctx, []int{victim}, MutateOptions{}); err == nil {
					mirror.Delete(victim)
				} else {
					uncertain = append(uncertain, victim)
				}
				mirrorMu.Unlock()
			}
		}
	}()

	// Querier: consistency of every successful answer.
	wg.Add(1)
	go func() {
		defer wg.Done()
		q := ds[3].Points
		for i := 0; i < 120; i++ {
			got, _, err := remote.Search(ctx, q, 15, QueryOptions{})
			if err != nil {
				// Both replicas of a partition can be mid-fault; the
				// typed error is the accepted outcome, silence is not.
				continue
			}
			seen := map[int]bool{}
			for j, r := range got {
				mirrorMu.Lock()
				ok := known[r.ID] || mirror.Has(r.ID)
				mirrorMu.Unlock()
				if !ok || seen[r.ID] || (j > 0 && got[j-1].Dist > r.Dist) {
					errCh <- fmt.Errorf("inconsistent racing result at rank %d (seed=%d)", j, seed)
					return
				}
				seen[r.ID] = true
			}
		}
	}()

	wg.Wait()
	close(stop)
	injectorWg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	// Storm over: heal, repair the unknown-outcome ids (Delete
	// broadcasts ids the directory does not know, so worker-side
	// ghosts cannot survive), and converge on the mirror exactly.
	for _, p := range fleet.Proxies {
		p.Up()
	}
	waitHealed(t, remote, seed)
	if len(uncertain) > 0 {
		if _, _, err := remote.Delete(ctx, uncertain, MutateOptions{}); err != nil {
			t.Fatalf("repair delete: %v (seed=%d)", err, seed)
		}
		mirror.Delete(uncertain...)
	}
	if _, err := remote.Compact(ctx, nil); err != nil {
		t.Fatalf("post-storm compact: %v (seed=%d)", err, seed)
	}
	waitHealed(t, remote, seed)
	if remote.Len() != mirror.Len() {
		t.Fatalf("post-storm Len %d, mirror %d (seed=%d)", remote.Len(), mirror.Len(), seed)
	}
	for _, q := range dataset.Queries(ds, 3, seed+5) {
		got, _, err := remote.Search(ctx, q.Points, 12, QueryOptions{})
		if err != nil {
			t.Fatalf("post-storm search: %v (seed=%d)", err, seed)
		}
		assertBitIdentical(t, "post-storm search", seed, got,
			mirror.TopK(spec.Measure, spec.Params, q.Points, 12))
	}

	// Everything the storm spawned must drain.
	if err := remote.Close(); err != nil {
		t.Errorf("close: %v", err)
	}
	fleet.Close()
	leakcheck.Settle(t, base)
}

// TestMutationUnknownOutcomeReconciles: a mutation whose outcome is
// unknown on *every* replica (all calls time out, nothing acks) must
// leave the touched partitions unavailable — never divergent — until
// the prober's reconcile pass asks the workers what they actually
// hold. Here the cluster is fully black-holed so the mutation reaches
// nobody: after healing, the authoritative state must be exactly the
// pre-mutation oracle.
func TestMutationUnknownOutcomeReconciles(t *testing.T) {
	seed := chaosSeed()
	ds, spec, fleet, remote := chaosWorld(t, 150, 3, 3, 2, chaos.Schedule{})
	ctx := context.Background()

	for _, p := range fleet.Proxies {
		p.Blackhole(true)
	}
	adds := freshTrajs(rand.New(rand.NewSource(seed)), 800_000, 3)
	if _, err := remote.Insert(ctx, adds, MutateOptions{}); err == nil {
		t.Fatalf("insert through a fully black-holed cluster should fail (seed=%d)", seed)
	}
	// No silent answers while the state is unresolved.
	if _, _, err := remote.Search(ctx, ds[1].Points, 5, QueryOptions{}); err == nil {
		t.Fatalf("search through a fully black-holed cluster should fail (seed=%d)", seed)
	}

	for _, p := range fleet.Proxies {
		p.Up()
	}
	waitHealed(t, remote, seed)

	// The workers never received the insert; reconciliation must
	// re-anchor on the original state, bit-identical to the oracle.
	for _, q := range dataset.Queries(ds, 3, seed+11) {
		got, _, err := remote.Search(ctx, q.Points, 10, QueryOptions{})
		if err != nil {
			t.Fatalf("post-reconcile search: %v (seed=%d)", err, seed)
		}
		assertBitIdentical(t, "post-reconcile search", seed, got,
			oracle.TopK(spec.Measure, spec.Params, ds, q.Points, 10))
	}
	if remote.Len() != len(ds) {
		t.Fatalf("Len %d after failed insert, want %d (seed=%d)", remote.Len(), len(ds), seed)
	}
	// The failed batch's ids never went live, so retrying it now must
	// succeed cleanly — the documented recovery for lost outcomes.
	if _, err := remote.Insert(ctx, adds, MutateOptions{}); err != nil {
		t.Fatalf("retried insert after reconcile: %v (seed=%d)", err, seed)
	}
}

// TestWorkerStatusSnapshotRestoreRPCs exercises the v4 endpoints
// directly against Worker values, including the unsupported and
// version-mismatch paths.
func TestWorkerStatusSnapshotRestoreRPCs(t *testing.T) {
	_, parts, spec := testWorld(t, 80, 2)
	w := NewWorker()
	var br BuildReply
	if err := w.Build(&BuildArgs{Version: ProtocolVersion, PartitionID: 0, Spec: spec, Trajectories: parts[0]}, &br); err != nil {
		t.Fatal(err)
	}

	var st StatusReply
	if err := w.Status(&StatusArgs{Version: ProtocolVersion}, &st); err != nil {
		t.Fatal(err)
	}
	if st.Gens[0] != 0 || st.Lens[0] != len(parts[0]) {
		t.Fatalf("status %+v", st)
	}
	if err := w.Status(&StatusArgs{}, &st); err == nil {
		t.Error("unversioned status should fail")
	}

	var snap SnapshotReply
	if err := w.Snapshot(&SnapshotArgs{Version: ProtocolVersion, PartitionID: 0}, &snap); err != nil {
		t.Fatal(err)
	}
	if len(snap.Data) == 0 || snap.Len != len(parts[0]) || snap.Layout != rptrie.LayoutPointer {
		t.Fatalf("snapshot reply: %d bytes, len %d, layout %v", len(snap.Data), snap.Len, snap.Layout)
	}
	if err := w.Snapshot(&SnapshotArgs{Version: ProtocolVersion, PartitionID: 9}, &snap); err == nil {
		t.Error("snapshot of unowned partition should fail")
	}

	// Restore into a fresh rejoin worker; it must serve identically.
	w2 := NewRejoinWorker()
	var sr SearchReply
	q := searchArgsV2(parts[0][0].Points, 3)
	if err := w2.Search(q, &sr); err == nil {
		t.Error("rejoin worker should reject queries before restore")
	} else if want := "awaiting state restore"; !strings.Contains(err.Error(), want) {
		t.Errorf("rejoin worker error %q, want it to mention %q", err, want)
	}
	var rr RestoreReply
	if err := w2.Restore(&RestoreArgs{Version: ProtocolVersion, PartitionID: 0, Data: snap.Data}, &rr); err != nil {
		t.Fatal(err)
	}
	if rr.Len != len(parts[0]) {
		t.Fatalf("restore reply %+v", rr)
	}
	var sr1, sr2 SearchReply
	if err := w.Search(searchArgsV2(parts[0][0].Points, 5), &sr1); err != nil {
		t.Fatal(err)
	}
	if err := w2.Search(searchArgsV2(parts[0][0].Points, 5), &sr2); err != nil {
		t.Fatal(err)
	}
	assertBitIdentical(t, "restored worker parity", 0, sr2.Items, sr1.Items)

	// Corrupt restore data fails cleanly; so does a wrong version.
	if err := w2.Restore(&RestoreArgs{Version: ProtocolVersion, PartitionID: 0, Data: []byte("junk")}, &rr); err == nil {
		t.Error("corrupt restore should fail")
	}
	if err := w2.Restore(&RestoreArgs{PartitionID: 0, Data: snap.Data}, &rr); err == nil {
		t.Error("unversioned restore should fail")
	}

	// The compressed layout round-trips through Snapshot/Restore too,
	// flagged with its layout.
	for _, layout := range []rptrie.Layout{rptrie.LayoutCompressed} {
		sspec := spec
		sspec.Layout = layout
		ws := NewWorker()
		if err := ws.Build(&BuildArgs{Version: ProtocolVersion, PartitionID: 1, Spec: sspec, Trajectories: parts[1]}, &br); err != nil {
			t.Fatal(err)
		}
		if err := ws.Snapshot(&SnapshotArgs{Version: ProtocolVersion, PartitionID: 1}, &snap); err != nil {
			t.Fatal(err)
		}
		if snap.Layout != layout {
			t.Fatalf("%v snapshot flagged %v", layout, snap.Layout)
		}
		ws2 := NewWorker()
		if err := ws2.Restore(&RestoreArgs{Version: ProtocolVersion, PartitionID: 1, Layout: layout, Data: snap.Data}, &rr); err != nil {
			t.Fatal(err)
		}
		if rr.Len != len(parts[1]) {
			t.Fatalf("%v restore reply %+v", layout, rr)
		}
		var srA, srB SearchReply
		if err := ws.Search(searchArgsV2(parts[1][0].Points, 5), &srA); err != nil {
			t.Fatal(err)
		}
		if err := ws2.Search(searchArgsV2(parts[1][0].Points, 5), &srB); err != nil {
			t.Fatal(err)
		}
		assertBitIdentical(t, layout.String()+" restored worker parity", 1, srB.Items, srA.Items)
	}
}

// TestWorkerForceLayout: a worker with a forced layout builds its
// partitions in that layout whatever the driver's spec says, answers
// bit-identically to an unforced worker, and flags its snapshots with
// the layout it actually holds.
func TestWorkerForceLayout(t *testing.T) {
	_, parts, spec := testWorld(t, 80, 2)
	plain, forced := NewWorker(), NewWorker()
	forced.ForceLayout(rptrie.LayoutCompressed)
	var br BuildReply
	for _, w := range []*Worker{plain, forced} {
		if err := w.Build(&BuildArgs{Version: ProtocolVersion, PartitionID: 0, Spec: spec, Trajectories: parts[0]}, &br); err != nil {
			t.Fatal(err)
		}
	}
	var snap SnapshotReply
	if err := forced.Snapshot(&SnapshotArgs{Version: ProtocolVersion, PartitionID: 0}, &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Layout != rptrie.LayoutCompressed {
		t.Fatalf("forced worker snapshot layout %v, want compressed", snap.Layout)
	}
	var want, got SearchReply
	if err := plain.Search(searchArgsV2(parts[0][0].Points, 6), &want); err != nil {
		t.Fatal(err)
	}
	if err := forced.Search(searchArgsV2(parts[0][0].Points, 6), &got); err != nil {
		t.Fatal(err)
	}
	assertBitIdentical(t, "forced-layout parity", 0, got.Items, want.Items)
}
