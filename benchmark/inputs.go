package main

import (
	"fmt"
	"math"
	"math/rand"

	"repose"
	"repose/internal/dataset"
	"repose/internal/dist"
	"repose/internal/geo"
	"repose/internal/grid"
	"repose/internal/oracle"
	"repose/internal/topk"
)

// Every workload indexes with the same partitioning: a fixed constant,
// not a count derived from the machine, so results compare across
// hosts.
const (
	partitions = 8
	k          = 10
	// radius is the fixed SearchRadius distance of the T-drive
	// workloads: a little below the typical 10th-neighbour Hausdorff
	// distance, so answers hold a handful of trips.
	radius = 0.04
)

// inputs is one workload's generated data: the indexed trips and the
// held-out trips that serve as queries and as the insert stream, so no
// query finds itself in the index.
type inputs struct {
	indexed []*geo.Trajectory
	held    []*geo.Trajectory
	opts    repose.Options
	params  dist.Params // the index's distance parameters
	grid    *grid.Grid  // the index's grid
}

// makeInputs generates the named stand-in at scale and holds out a
// slice of hold trips drawn with the run's seed. The stand-in itself is
// generated from its own fixed seed, the way a benchmark over a real
// dataset reads the same trips every time: the run's seed picks the
// held-out queries and insert stream, and with them the indexed set,
// and drives every operation mix and arrival schedule.
func (r *run) makeInputs(name string, scale float64, hold int, opts repose.Options) (*inputs, error) {
	spec, err := dataset.ByName(name, scale)
	if err != nil {
		return nil, err
	}
	ds := dataset.Generate(spec)
	if hold >= len(ds) {
		return nil, fmt.Errorf("hold-out %d exceeds %d trips", hold, len(ds))
	}
	isHeld := make([]bool, len(ds))
	in := &inputs{}
	for _, i := range rand.New(rand.NewSource(r.seed)).Perm(len(ds))[:hold] {
		isHeld[i] = true
		in.held = append(in.held, ds[i])
	}
	points := 0
	for i, tr := range ds {
		points += len(tr.Points)
		if !isHeld[i] {
			in.indexed = append(in.indexed, tr)
		}
	}
	r.datasets = append(r.datasets, datasetInfo{
		Name: name, Scale: scale, Seed: spec.Seed, Trips: len(ds), Points: points,
		Indexed: len(in.indexed), HeldOut: hold,
	})

	// The facade derives these from the indexed set; the oracle and the
	// layer probes need the same values.
	opts.Partitions = partitions
	opts.Strategy = repose.Heterogeneous
	opts.Delta = dataset.DefaultDelta(name)
	opts.Seed = r.seed
	in.opts = opts
	region := geo.EnclosingSquare(in.indexed, 0)
	in.params = dist.Params{Epsilon: dist.DefaultParams(region).Epsilon, Gap: region.Min}
	if in.grid, err = grid.New(region, opts.Delta); err != nil {
		return nil, err
	}
	return in, nil
}

// sameItems compares two answers bit for bit.
func sameItems(got, want []topk.Item) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.ID != w.ID || math.Float64bits(g.Dist) != math.Float64bits(w.Dist) || g.Start != w.Start || g.End != w.End {
			return false
		}
	}
	return true
}

// check is one answer the run compares with internal/oracle after the
// load: kind is "search" or "radius", and want is filled by the oracle.
type check struct {
	kind string
	op   int
	q    *geo.Trajectory
	got  []topk.Item
}

// verify computes the oracle answers over live in parallel and records
// every difference as a failed operation.
func (r *run) verify(m dist.Measure, p dist.Params, live []*geo.Trajectory, checks []check) {
	wrong := make([]bool, len(checks))
	wants := make([][]topk.Item, len(checks))
	parallel(len(checks), func(i int) {
		c := checks[i]
		if c.kind == "radius" {
			wants[i] = oracle.Radius(m, p, live, c.q.Points, radius)
		} else {
			wants[i] = oracle.TopK(m, p, live, c.q.Points, k)
		}
		wrong[i] = !sameItems(c.got, wants[i])
	})
	for i, c := range checks {
		var err error
		if wrong[i] {
			err = fmt.Errorf("mismatch")
			r.mismatch("check=%s op=%d query_id=%d got=%v want=%v", c.kind, c.op, c.q.ID, c.got, wants[i])
		}
		r.op(err)
	}
}
