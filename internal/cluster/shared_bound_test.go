package cluster

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"testing"

	"repose/internal/dataset"
	"repose/internal/dist"
	"repose/internal/geo"
	"repose/internal/grid"
	"repose/internal/oracle"
	"repose/internal/partition"
	"repose/internal/pivot"
	"repose/internal/rptrie"
	"repose/internal/topk"
)

// tieK is the k of the cross-partition tie world: the two tied twins
// sit exactly at rank tieK.
const tieK = 3

// tieWorld builds four partitions whose top-tieK answer ends in an
// exact tie between two trajectories with identical points and ids
// lo < hi. Partition 0 holds the two closer trajectories and the twin
// with id first; partition 2 holds the other twin among five slightly
// farther near-copies that share its trie leaf (a fat leaf, so
// RefineWorkers refines it in parallel). Every trajectory carries
// timestamps, so the time-window refiner scores the same runs.
func tieWorld(t *testing.T, m dist.Measure, first, second int) ([]*geo.Trajectory, [][]*geo.Trajectory, IndexSpec, []geo.Point) {
	t.Helper()
	q := make([]geo.Point, 10)
	for i := range q {
		q[i] = geo.Point{X: 1 + 0.1*float64(i), Y: 2}
	}
	shifted := func(id int, dx, dy float64) *geo.Trajectory {
		tr := &geo.Trajectory{ID: id, Points: make([]geo.Point, len(q)), Times: make([]int64, len(q))}
		for i, p := range q {
			tr.Points[i] = geo.Point{X: p.X + dx, Y: p.Y + dy}
			tr.Times[i] = int64(10 * i)
		}
		return tr
	}
	rng := rand.New(rand.NewSource(5))
	fillers := func(base, n int) []*geo.Trajectory {
		out := make([]*geo.Trajectory, n)
		for i := range out {
			out[i] = shifted(base+i, rng.Float64()*2-1, 1.2+rng.Float64())
		}
		return out
	}
	parts := make([][]*geo.Trajectory, 4)
	parts[0] = append([]*geo.Trajectory{shifted(10, 0, 0.11), shifted(11, 0, 0.22), shifted(first, 0, 0.33)}, fillers(100, 6)...)
	parts[1] = fillers(200, 8)
	parts[2] = []*geo.Trajectory{shifted(second, 0, 0.33)}
	for i := 1; i <= 5; i++ {
		parts[2] = append(parts[2], shifted(20+i, 0, 0.33+0.001*float64(i)))
	}
	parts[2] = append(parts[2], fillers(300, 6)...)
	parts[3] = fillers(400, 8)
	var ds []*geo.Trajectory
	for _, p := range parts {
		ds = append(ds, p...)
	}
	region := geo.Rect{Min: geo.Point{X: 0, Y: 0}, Max: geo.Point{X: 4, Y: 4}}
	p := dist.DefaultParams(region)
	spec := IndexSpec{
		Algorithm: REPOSE,
		Measure:   m,
		Params:    p,
		Region:    region,
		Delta:     0.1,
		Pivots:    pivot.Select(ds, 3, 5, m, p, 7),
	}
	return ds, parts, spec, q
}

// startCappedWorkers serves n workers on loopback, each scanning at
// most scans partitions at a time (0: the default).
func startCappedWorkers(t *testing.T, n, scans int) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ln.Close() })
		w := NewWorker()
		w.SetQueryWorkers(scans)
		go Serve(ln, w)
		addrs[i] = ln.Addr().String()
	}
	return addrs
}

// TestCrossPartitionTieSurvivesSharedBound pins the exactness of the
// shared k-th distance bound on (distance, id) ties: the twin in the
// partition scanned first fills that scan's heap, and the bound it
// publishes must still admit the other partition's twin at exactly the
// same distance, so the lower id wins as in the oracle. Both twin
// orders, every query path that shares a bound, and both engines are
// checked; a scan cap of 1 makes the first partition publish before
// the second one starts, on the local engine and on the worker that
// holds partitions 0 and 2.
func TestCrossPartitionTieSurvivesSharedBound(t *testing.T) {
	ctx := context.Background()
	for _, m := range []dist.Measure{dist.Hausdorff, dist.Frechet} {
		for _, order := range [][2]int{{4, 3}, {3, 4}} {
			ds, parts, spec, q := tieWorld(t, m, order[0], order[1])
			want := oracle.TopK(spec.Measure, spec.Params, ds, q, tieK)
			if full := oracle.TopK(spec.Measure, spec.Params, ds, q, tieK+1); full[tieK-1].Dist != full[tieK].Dist || full[tieK-1].ID != 3 {
				t.Fatalf("%v: the world must tie at rank %d with id 3 first, oracle %v", m, tieK, full)
			}
			engines := map[string]Engine{}
			for _, scans := range []int{1, 4} {
				local, err := BuildLocal(spec, parts, scans)
				if err != nil {
					t.Fatal(err)
				}
				engines[fmt.Sprintf("local/scans=%d", scans)] = local
				remote, err := BuildRemote(spec, parts, startCappedWorkers(t, 2, scans))
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { remote.Close() })
				engines[fmt.Sprintf("remote/scans=%d", scans)] = remote
			}
			refined := []rptrie.RefineSpec{{Sub: true}, {Window: true, From: 0, To: 1000}}
			for name, e := range engines {
				label := fmt.Sprintf("%v twins=%v %s", m, order, name)
				for _, opt := range []QueryOptions{{}, {ProbeBudget: 1}, {RefineWorkers: 4}} {
					got, _, err := e.Search(ctx, q, tieK, opt)
					if err != nil {
						t.Fatalf("%s %+v: %v", label, opt, err)
					}
					assertBitIdentical(t, fmt.Sprintf("%s Search %+v", label, opt), 0, got, want)
				}
				batch, _, err := e.SearchBatch(ctx, [][]geo.Point{q, q}, tieK, QueryOptions{})
				if err != nil {
					t.Fatalf("%s SearchBatch: %v", label, err)
				}
				for i, got := range batch {
					assertBitIdentical(t, fmt.Sprintf("%s SearchBatch[%d]", label, i), 0, got, want)
				}
				for _, rs := range refined {
					wantR := oracle.TopKRefined(spec.Measure, spec.Params, ds, q, tieK, oracleSpecOf(rs))
					got, _, err := e.Search(ctx, q, tieK, QueryOptions{Refine: rs})
					if err != nil {
						t.Fatalf("%s %+v: %v", label, rs, err)
					}
					assertBitIdentical(t, fmt.Sprintf("%s refined %+v", label, rs), 0, got, wantR)
				}
			}
		}
	}
}

// TestSharedBoundCutsRefinement: on a seeded Frechet query set over
// the Rome stand-in, the engine's scans, which share one k-th distance
// bound, refine no more trajectories than independent scans of the
// same partitions, query by query, and strictly fewer in total.
func TestSharedBoundCutsRefinement(t *testing.T) {
	dspec, err := dataset.ByName("Rome", 0.006)
	if err != nil {
		t.Fatal(err)
	}
	ds := dataset.Generate(dspec)
	region := dspec.Region()
	g, err := grid.New(region, dataset.DefaultDelta("Rome"))
	if err != nil {
		t.Fatal(err)
	}
	const nparts, k = 8, 10
	assign, err := partition.Assign(partition.Heterogeneous, ds, g, nparts, 1)
	if err != nil {
		t.Fatal(err)
	}
	parts := partition.Split(ds, assign, nparts)
	p := dist.DefaultParams(region)
	spec := IndexSpec{
		Algorithm: REPOSE,
		Measure:   dist.Frechet,
		Params:    p,
		Region:    region,
		Delta:     dataset.DefaultDelta("Rome"),
		Pivots:    pivot.Select(ds, 5, 5, dist.Frechet, p, 7),
	}
	c, err := BuildLocal(spec, parts, 0)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	idxs := c.parts()
	sel := make([]int, len(idxs))
	for i := range sel {
		sel[i] = i
	}
	var engineTotal, aloneTotal int64
	for qi, q := range dataset.Queries(ds, 12, 17) {
		var bound topk.Bound
		_, refined, _, err := c.searchLists(ctx, idxs, sel, q.Points, k, QueryOptions{}, &bound)
		if err != nil {
			t.Fatal(err)
		}
		var engine, alone int64
		for pi, idx := range idxs {
			engine += refined[pi]
			var st rptrie.SearchStats
			if _, err := idx.(*rptrie.Index).SearchContext(ctx, q.Points, k, rptrie.SearchOptions{Stats: &st}); err != nil {
				t.Fatal(err)
			}
			alone += int64(st.ExactComputations)
		}
		if engine > alone {
			t.Errorf("query %d: shared-bound scans refined %d trajectories, independent scans %d", qi, engine, alone)
		}
		engineTotal += engine
		aloneTotal += alone
	}
	if engineTotal >= aloneTotal {
		t.Fatalf("shared-bound scans refined %d trajectories in total, independent scans %d: want strictly fewer", engineTotal, aloneTotal)
	}
	t.Logf("exact computations: shared bound %d, independent %d", engineTotal, aloneTotal)
}
