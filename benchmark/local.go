package main

import (
	"context"
	"math/rand"

	"repose"
)

// localRomeFrechet is the local-rome-frechet workload: the Rome
// stand-in at 1/16 scale under Fréchet with pivots, pointer layout, the
// in-process engine, and one closed-loop client sending uniform
// held-out top-k queries. The dist DP kernel and pivot/LBt pruning do
// most of the work, at query time and at set-up, where pivot distances
// are computed. serve, RPC and storage do nothing here.
func localRomeFrechet(r *run) error {
	in, err := r.makeInputs("Rome", 1.0/16, 512, repose.Options{Measure: repose.Frechet, Layout: repose.LayoutPointer})
	if err != nil {
		return err
	}
	var idx *repose.Index
	setup, heap, err := setups(localSetupRuns, func(first bool) (func(), error) {
		x, err := repose.Build(in.indexed, in.opts)
		if err != nil {
			return nil, err
		}
		if _, err := x.Search(context.Background(), in.held[0], k); err != nil {
			x.Close()
			return nil, err
		}
		if first {
			idx = x
		}
		return func() { x.Close() }, nil
	})
	if err != nil {
		return err
	}
	defer idx.Close()
	r.set("setup_s", setup.Seconds())
	r.set("heap_mb", heap)
	always := func(*rand.Rand) string { return opSearch }
	return r.queryWorkload(idx, in, always, map[string]int{opSearch: 4}, false)
}
