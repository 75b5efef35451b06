// Command repose-query builds an index over a CSV dataset (or a
// generated synthetic one) and answers ad-hoc top-k queries. With
// -workers it ships the partitions to running repose-worker processes
// and queries them over TCP instead — the query surface is identical
// either way.
//
// Usage:
//
//	repose-query -data rides.csv -measure Frechet -k 5 -qid 17
//	repose-query -dataset T-drive -scale 0.002 -k 10 -qid 3
//	repose-query -dataset Xian -workers 127.0.0.1:7701,127.0.0.1:7702 -qid 3
//
// The query is the dataset trajectory with id -qid (dropped from the
// candidates when -exclude-self is set).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"repose"
	"repose/internal/dataset"
	"repose/internal/dist"
	"repose/internal/geo"
)

func main() {
	var (
		data        = flag.String("data", "", "CSV dataset path (id,x1,y1,x2,y2,...)")
		dsName      = flag.String("dataset", "", "generate a synthetic dataset instead of -data")
		scale       = flag.Float64("scale", 1.0/512, "synthetic dataset scale")
		measureName = flag.String("measure", "Hausdorff", "Hausdorff|Frechet|DTW|LCSS|EDR|ERP")
		k           = flag.Int("k", 10, "result size")
		qid         = flag.Int("qid", 0, "query trajectory id")
		delta       = flag.Float64("delta", 0, "grid cell side δ (0 = span/64)")
		partitions  = flag.Int("partitions", 0, "partitions (0 = one per core)")
		workers     = flag.String("workers", "", "comma-separated worker addresses (empty = in-process)")
		replication = flag.Int("replication", 0, "remote replication factor: place each partition on this many workers and fail over between them (0/1 = off)")
		timeout     = flag.Duration("timeout", 0, "per-query deadline (0 = none)")
		excludeSelf = flag.Bool("exclude-self", false, "drop the query trajectory from results")
		layoutName  = flag.String("layout", "", "per-partition index layout: pointer|compressed (empty = pointer)")
		probeBudget = flag.Int("probe-budget", 0, "score-guided probing: scan this many best-scoring partitions first and prune the rest when an admissible bound proves they cannot contribute; results are identical (0 = full scatter)")
		bestEffort  = flag.Bool("best-effort", false, "with -probe-budget, skip the unproven tail instead of bound-checking it (answers may be incomplete)")
		sub         = flag.Bool("sub", false, "subtrajectory search: score each candidate by its best-matching contiguous segment and report the matched sample range")
		minSeg      = flag.Int("min-seg", 0, "with -sub, minimum segment length in samples")
		maxSeg      = flag.Int("max-seg", 0, "with -sub, maximum segment length in samples (0 = unbounded)")
		window      = flag.String("window", "", "time window \"from:to\" (unix-style int64s): match only trajectory samples inside the window; untimestamped trajectories never match")
	)
	flag.Parse()

	m, err := dist.ParseMeasure(*measureName)
	if err != nil {
		fail(err)
	}
	layout, err := repose.ParseLayout(*layoutName)
	if err != nil {
		fail(err)
	}
	ds, err := loadData(*data, *dsName, *scale)
	if err != nil {
		fail(err)
	}
	var query *geo.Trajectory
	for _, tr := range ds {
		if tr.ID == *qid {
			query = tr
			break
		}
	}
	if query == nil {
		fail(fmt.Errorf("query id %d not in dataset (%d trajectories)", *qid, len(ds)))
	}

	opts := repose.Options{
		Measure:    m,
		Delta:      *delta,
		Partitions: *partitions,
		Layout:     layout,
	}
	start := time.Now()
	var idx *repose.Index
	if *workers != "" {
		idx, err = repose.BuildRemote(ds, opts, strings.Split(*workers, ","), repose.WithReplication(*replication))
	} else {
		idx, err = repose.Build(ds, opts)
	}
	if err != nil {
		fail(err)
	}
	defer idx.Close()
	st := idx.Stats()
	fmt.Printf("built %s index (%v layout): %d trajectories, %d partitions, %.2f MB, %v\n",
		idx.Engine(), st.Layout, st.Trajectories, st.Partitions, float64(st.IndexBytes)/(1<<20), time.Since(start).Round(time.Millisecond))

	kk := *k
	if *excludeSelf {
		kk++
	}
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	qopts := []repose.QueryOption{}
	if *probeBudget > 0 {
		qopts = append(qopts, repose.WithProbeBudget(*probeBudget))
	}
	if *bestEffort {
		qopts = append(qopts, repose.WithBestEffortProbes())
	}
	if *window != "" {
		from, to, err := parseWindow(*window)
		if err != nil {
			fail(err)
		}
		qopts = append(qopts, repose.WithTimeWindow(from, to))
	}
	if *sub && (*minSeg > 0 || *maxSeg > 0) {
		qopts = append(qopts, repose.WithSegmentLength(*minSeg, *maxSeg))
	}
	var report repose.QueryReport
	start = time.Now()
	search := idx.Search
	if *sub {
		search = idx.SearchSub
	}
	res, err := search(ctx, query, kk, append(qopts, repose.WithReport(&report))...)
	if err != nil {
		fail(err)
	}
	elapsed := time.Since(start)
	fmt.Printf("top-%d by %v for trajectory %d (%d points) in %v (straggler ratio %.2f):\n",
		*k, m, query.ID, len(query.Points), elapsed.Round(time.Microsecond), report.Imbalance())
	if *probeBudget > 0 {
		fmt.Printf("probe budget %d: probed %d, pruned %d, skipped %d partitions\n",
			*probeBudget, len(report.ProbedPartitions), len(report.PrunedPartitions), len(report.SkippedPartitions))
	}
	shown := 0
	for _, r := range res {
		if *excludeSelf && r.ID == query.ID {
			continue
		}
		shown++
		if *sub {
			fmt.Printf("%3d. trajectory %-8d distance %.6f  samples [%d, %d)\n", shown, r.ID, r.Dist, r.Start, r.End)
		} else {
			fmt.Printf("%3d. trajectory %-8d distance %.6f\n", shown, r.ID, r.Dist)
		}
		if shown == *k {
			break
		}
	}
}

// parseWindow splits a "from:to" time window into its endpoints.
func parseWindow(s string) (from, to int64, err error) {
	a, b, ok := strings.Cut(s, ":")
	if !ok {
		return 0, 0, fmt.Errorf("-window wants \"from:to\", got %q", s)
	}
	if from, err = strconv.ParseInt(strings.TrimSpace(a), 10, 64); err != nil {
		return 0, 0, fmt.Errorf("-window from: %v", err)
	}
	if to, err = strconv.ParseInt(strings.TrimSpace(b), 10, 64); err != nil {
		return 0, 0, fmt.Errorf("-window to: %v", err)
	}
	return from, to, nil
}

func loadData(path, name string, scale float64) ([]*geo.Trajectory, error) {
	switch {
	case path != "":
		return dataset.Load(path)
	case name != "":
		spec, err := dataset.ByName(name, scale)
		if err != nil {
			return nil, err
		}
		return dataset.Generate(spec), nil
	default:
		return nil, fmt.Errorf("one of -data or -dataset is required")
	}
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "repose-query: %v\n", err)
	os.Exit(1)
}
