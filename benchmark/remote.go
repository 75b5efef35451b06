package main

import (
	"context"
	"fmt"
	"math/rand"
	"sync"

	"repose"
)

// remoteTdriveHausdorff is the remote-tdrive-hausdorff workload: the
// T-drive stand-in at 1/16 scale under Hausdorff, compressed layout,
// built with BuildRemote over loopback TCP onto two in-process workers
// with every partition replicated on both. One closed-loop client
// sends 80% Search, 10% SearchRadius and 10% SearchBatch of 4. Short
// trips make the kernel cheap, so the wire codec, the replica read
// path, the driver-side merge and compressed traversal dominate.
func remoteTdriveHausdorff(r *run) error {
	in, err := r.makeInputs("T-drive", 1.0/16, 1024, repose.Options{Measure: repose.Hausdorff, Layout: repose.LayoutCompressed})
	if err != nil {
		return err
	}
	var idx *repose.Index
	var kept *workers
	setup, heap, err := setups(setupRuns, func(first bool) (func(), error) {
		ws, err := startWorkers(2)
		if err != nil {
			return nil, err
		}
		x, err := repose.BuildRemote(in.indexed, in.opts, ws.addrs, repose.WithReplication(2))
		if err != nil {
			ws.stop()
			return nil, err
		}
		teardown := func() {
			x.Close()
			ws.stop()
		}
		if _, err := x.Search(context.Background(), in.held[0], k); err != nil {
			teardown()
			return nil, err
		}
		if first {
			idx, kept = x, ws
		}
		return teardown, nil
	})
	if err != nil {
		return err
	}
	defer kept.stop()
	defer idx.Close()
	r.set("setup_s", setup.Seconds())
	r.set("heap_mb", heap)
	mix := func(rng *rand.Rand) string {
		switch x := rng.Float64(); {
		case x < 0.8:
			return opSearch
		case x < 0.9:
			return opRadius
		default:
			return opBatch
		}
	}
	return r.queryWorkload(idx, in, mix, map[string]int{opSearch: 8, opRadius: 4, opBatch: 1}, true)
}

// workers is a set of in-process REPOSE workers on loopback TCP.
type workers struct {
	addrs  []string
	cancel context.CancelFunc
	wg     sync.WaitGroup
}

func startWorkers(n int) (*workers, error) {
	ctx, cancel := context.WithCancel(context.Background())
	ws := &workers{cancel: cancel}
	for i := 0; i < n; i++ {
		ready := make(chan string, 1)
		errc := make(chan error, 1)
		ws.wg.Add(1)
		go func() {
			defer ws.wg.Done()
			errc <- repose.ServeWorkerContext(ctx, "127.0.0.1:0", func(addr string) { ready <- addr })
		}()
		select {
		case addr := <-ready:
			ws.addrs = append(ws.addrs, addr)
		case err := <-errc:
			ws.stop()
			return nil, fmt.Errorf("start worker: %w", err)
		}
	}
	return ws, nil
}

// stop closes the workers' listeners and waits for them to return.
// Close the driver's Index first so the served connections end too.
func (ws *workers) stop() {
	ws.cancel()
	ws.wg.Wait()
}
