// Package experiments regenerates every table and figure of the
// REPOSE paper's evaluation (Section VII) on synthetic stand-ins for
// the seven datasets. Each runner returns a Table whose rows mirror
// what the paper reports.
package experiments

import (
	"context"
	"fmt"
	"io"
	"strings"
	"text/tabwriter"
	"time"

	"repose/internal/cluster"
	"repose/internal/dataset"
	"repose/internal/dist"
	"repose/internal/geo"
	"repose/internal/grid"
	"repose/internal/partition"
	"repose/internal/pivot"
)

// Config scales and parameterizes an experiment run.
type Config struct {
	// Scale multiplies the paper's dataset cardinalities (default
	// 1/512 — small enough for a laptop, large enough to show the
	// relative behaviours; the cmd can raise it).
	Scale float64

	// Partitions is the global partition count (paper default: 64).
	// Defaults to 8 at reduced scale.
	Partitions int

	// Workers caps parallelism (default GOMAXPROCS).
	Workers int

	// K is the result size (paper default: 100; defaults to 10 at
	// reduced scale so selectivity stays comparable).
	K int

	// Queries is the number of random query trajectories averaged
	// per measurement (paper: 100 queries × 20 repetitions;
	// default 5).
	Queries int

	// Verbose streams progress lines to Out.
	Verbose bool
	Out     io.Writer
}

func (c Config) withDefaults() Config {
	if c.Scale <= 0 {
		c.Scale = 1.0 / 512
	}
	if c.Partitions <= 0 {
		c.Partitions = 8
	}
	if c.K <= 0 {
		c.K = 10
	}
	if c.Queries <= 0 {
		c.Queries = 5
	}
	if c.Out == nil {
		c.Out = io.Discard
	}
	return c
}

func (c Config) logf(format string, args ...interface{}) {
	if c.Verbose {
		fmt.Fprintf(c.Out, format+"\n", args...)
	}
}

// Table is a printable experiment result.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
}

// Fprint renders the table with aligned columns.
func (t *Table) Fprint(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "%s\n", t.Title); err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, strings.Join(t.Header, "\t"))
	for _, row := range t.Rows {
		fmt.Fprintln(tw, strings.Join(row, "\t"))
	}
	return tw.Flush()
}

// CSV renders the table as comma-separated values.
func (t *Table) CSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, strings.Join(t.Header, ",")); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if _, err := fmt.Fprintln(w, strings.Join(row, ",")); err != nil {
			return err
		}
	}
	return nil
}

// env caches generated datasets and query workloads across an
// experiment run.
type env struct {
	cfg     Config
	data    map[string][]*geo.Trajectory
	queries map[string][]*geo.Trajectory
}

func newEnv(cfg Config) *env {
	return &env{
		cfg:     cfg,
		data:    make(map[string][]*geo.Trajectory),
		queries: make(map[string][]*geo.Trajectory),
	}
}

func (e *env) dataset(name string) ([]*geo.Trajectory, dataset.Spec, error) {
	spec, err := dataset.ByName(name, e.cfg.Scale)
	if err != nil {
		return nil, spec, err
	}
	if ds, ok := e.data[name]; ok {
		return ds, spec, nil
	}
	e.cfg.logf("generating %s (%d trajectories)", name, spec.Cardinality)
	ds := dataset.Generate(spec)
	e.data[name] = ds
	return ds, spec, nil
}

func (e *env) queriesFor(name string) ([]*geo.Trajectory, error) {
	if q, ok := e.queries[name]; ok {
		return q, nil
	}
	ds, _, err := e.dataset(name)
	if err != nil {
		return nil, err
	}
	q := dataset.Queries(ds, e.cfg.Queries, 999)
	e.queries[name] = q
	return q, nil
}

// paperDelta returns the δ value Section VII-A assigns to each
// dataset (Hausdorff column; Frechet/DTW use the second value where
// the paper distinguishes them).
func paperDelta(name string, m dist.Measure) float64 {
	switch name {
	case "SF", "Porto", "Rome":
		return 0.05
	case "T-drive":
		return 0.15
	case "OSM":
		return 1.0
	case "Chengdu":
		if m == dist.Hausdorff {
			return 0.01
		}
		return 0.02
	case "Xian":
		if m == dist.Hausdorff {
			return 0.01
		}
		return 0.03
	default:
		return 0.05
	}
}

// buildResult captures one built engine plus its build metrics.
type buildResult struct {
	eng       *cluster.Local
	buildTime time.Duration
	sizeBytes int
}

// buildOpts parameterizes buildEngine beyond the algorithm/measure.
type buildOpts struct {
	strategy   partition.Strategy
	delta      float64 // 0 → paperDelta
	np         int     // pivots; 0 → 5, negative → none
	optimize   *bool   // nil → auto (order-independent measures)
	partitions int     // 0 → cfg.Partitions
	disableLBt bool
	disableLBp bool
}

// buildEngine partitions ds and builds the distributed index for one
// (algorithm, measure, dataset) cell. Index construction time
// includes discretization, clustering, pivot selection, and trie
// building — matching the paper's IT metric.
func (e *env) buildEngine(algo cluster.Algorithm, m dist.Measure, name string, ds []*geo.Trajectory, spec dataset.Spec, o buildOpts) (*buildResult, error) {
	cfg := e.cfg
	region := spec.Region()
	delta := o.delta
	if delta <= 0 {
		delta = paperDelta(name, m)
	}
	nparts := o.partitions
	if nparts <= 0 {
		nparts = cfg.Partitions
	}
	params := dist.Params{Epsilon: dist.DefaultParams(region).Epsilon, Gap: region.Min}

	start := time.Now()
	g, err := grid.New(region, delta)
	if err != nil {
		return nil, err
	}
	strategy := o.strategy
	// DFT and DITA natively use homogeneous (STR-style) partitioning;
	// Tables VIII/IX bolt the heterogeneous strategy onto them.
	assign, err := partition.Assign(strategy, ds, g, nparts, 7)
	if err != nil {
		return nil, err
	}
	parts := partition.Split(ds, assign, nparts)

	np := o.np
	if np == 0 {
		np = 5
	}
	var pivots []*geo.Trajectory
	if algo == cluster.REPOSE && np > 0 && m.IsMetric() {
		pivots = pivot.Select(ds, np, pivot.DefaultGroups, m, params, 13)
	}
	optimize := m.OrderIndependent()
	if o.optimize != nil {
		optimize = *o.optimize
	}
	ispec := cluster.IndexSpec{
		Algorithm:  algo,
		Measure:    m,
		Params:     params,
		Region:     region,
		Delta:      delta,
		Pivots:     pivots,
		Optimize:   optimize,
		DisableLBt: o.disableLBt,
		DisableLBp: o.disableLBp,
		DFTC:       5,
		DITANL:     32,
		DITAPivot:  4,
		DITAC:      5,
		Seed:       17,
	}
	eng, err := cluster.BuildLocal(ispec, parts, cfg.Workers)
	if err != nil {
		return nil, err
	}
	return &buildResult{
		eng:       eng,
		buildTime: time.Since(start),
		sizeBytes: eng.IndexSizeBytes(),
	}, nil
}

// nativeStrategy returns the global partitioning each algorithm uses
// by default: REPOSE heterogeneous, the others homogeneous grouping
// (DFT: close centroids; DITA: close first/last points — both are
// similarity-grouping schemes).
func nativeStrategy(algo cluster.Algorithm) partition.Strategy {
	if algo == cluster.REPOSE {
		return partition.Heterogeneous
	}
	if algo == cluster.LS {
		return partition.Random
	}
	return partition.Homogeneous
}

// avgQueryTime runs the query workload and returns the mean
// distributed query wall time.
func avgQueryTime(eng *cluster.Local, queries []*geo.Trajectory, k int) (time.Duration, error) {
	if len(queries) == 0 {
		return 0, fmt.Errorf("experiments: no queries")
	}
	var total time.Duration
	for _, q := range queries {
		start := time.Now()
		if _, _, err := eng.Search(context.Background(), q.Points, k, cluster.QueryOptions{}); err != nil {
			return 0, err
		}
		total += time.Since(start)
	}
	return total / time.Duration(len(queries)), nil
}

// fmtDur renders a duration in milliseconds with 3 significant
// decimals, the resolution the scaled-down tables need.
func fmtDur(d time.Duration) string {
	return fmt.Sprintf("%.3f", float64(d.Microseconds())/1000.0)
}

// fmtBytes renders a byte count in MB.
func fmtBytes(b int) string {
	return fmt.Sprintf("%.3f", float64(b)/(1024*1024))
}
