package cluster

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repose/internal/geo"
	"repose/internal/topk"
)

// BatchReport describes a batch execution (Section V-A discusses
// batch search as the workload homogeneous partitioning targets; this
// engine serves batches by scheduling (query, partition) tasks over
// one shared worker pool, so partition-level load imbalance shows up
// directly in the makespan).
type BatchReport struct {
	Makespan  time.Duration   // wall time for the whole batch
	PerQuery  []time.Duration // per-query completion time (from batch start)
	TotalWork time.Duration   // summed partition compute
}

// SearchBatch answers all queries, each over all selected partitions,
// using the engine's worker budget. Results are indexed like queries.
// Cancelling ctx stops in-flight partition scans and skips unstarted
// tasks.
func (c *Local) SearchBatch(ctx context.Context, queries [][]geo.Point, k int, opt QueryOptions) ([][]topk.Item, BatchReport, error) {
	report := BatchReport{PerQuery: make([]time.Duration, len(queries))}
	if len(queries) == 0 {
		return nil, report, nil
	}
	parts := c.parts()
	sel, err := selectPartitions(opt.Partitions, len(parts))
	if err != nil {
		return nil, report, err
	}
	nq, np := len(queries), len(sel)
	locals := make([][][]topk.Item, nq)
	for qi := range locals {
		locals[qi] = make([][]topk.Item, np)
	}
	taskErrs := make([][]error, nq)
	for qi := range taskErrs {
		taskErrs[qi] = make([]error, np)
	}
	workDur := make([][]time.Duration, nq)
	for qi := range workDur {
		workDur[qi] = make([]time.Duration, np)
	}
	done := make([][]time.Time, nq)
	for qi := range done {
		done[qi] = make([]time.Time, np)
	}
	bounds := make([]topk.Bound, nq) // each query's scans share one

	type task struct{ qi, si int }
	tasks := make(chan task)
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < c.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for tk := range tasks {
				if err := ctx.Err(); err != nil {
					taskErrs[tk.qi][tk.si] = err
					continue
				}
				t0 := time.Now()
				locals[tk.qi][tk.si], taskErrs[tk.qi][tk.si] =
					searchOne(ctx, c.gpid(sel[tk.si]), parts[sel[tk.si]], queries[tk.qi], k, opt, nil, &bounds[tk.qi])
				now := time.Now()
				workDur[tk.qi][tk.si] = now.Sub(t0)
				done[tk.qi][tk.si] = now
			}
		}()
	}
	for qi := 0; qi < nq; qi++ {
		for si := 0; si < np; si++ {
			tasks <- task{qi, si}
		}
	}
	close(tasks)
	wg.Wait()
	report.Makespan = time.Since(start)
	if err := ctx.Err(); err != nil {
		return nil, report, fmt.Errorf("cluster: batch search: %w", err)
	}
	for qi := range taskErrs {
		for _, err := range taskErrs[qi] {
			if err != nil {
				return nil, report, err
			}
		}
	}

	out := make([][]topk.Item, nq)
	for qi := range out {
		out[qi] = mergeDedup(k, locals[qi])
		var last time.Time
		for si := 0; si < np; si++ {
			report.TotalWork += workDur[qi][si]
			if done[qi][si].After(last) {
				last = done[qi][si]
			}
		}
		if !last.IsZero() {
			// An empty partition selection ran no tasks; leave the
			// completion time zero instead of a negative duration.
			report.PerQuery[qi] = last.Sub(start)
		}
	}
	return out, report, nil
}

// Indexes exposes the partition indexes (read-only use).
func (c *Local) Indexes() []LocalIndex { return c.parts() }
