package experiments

import (
	"repose/internal/cluster"
	"repose/internal/dist"
	"repose/internal/partition"
)

// Table7 reproduces the partitioning-strategy study: REPOSE's RP-Trie
// local index under heterogeneous, homogeneous, and random global
// partitioning.
func Table7(cfg Config, datasets []string) (*Table, error) {
	cfg = cfg.withDefaults()
	if datasets == nil {
		datasets = sweepDatasets
	}
	e := newEnv(cfg)
	t := &Table{
		Title:  "Table VII: effect of partitioning strategy (ms)",
		Header: append([]string{"Distance", "Partitioning"}, datasets...),
	}
	strategies := []partition.Strategy{
		partition.Heterogeneous, partition.Homogeneous, partition.Random,
	}
	for _, m := range sweepMeasures {
		for _, s := range strategies {
			row := []string{m.String(), s.String()}
			for _, name := range datasets {
				ds, spec, err := e.dataset(name)
				if err != nil {
					return nil, err
				}
				queries, err := e.queriesFor(name)
				if err != nil {
					return nil, err
				}
				cfg.logf("table7: %s %v %v", name, m, s)
				br, err := e.buildEngine(cluster.REPOSE, m, name, ds, spec, buildOpts{strategy: s})
				if err != nil {
					return nil, err
				}
				qt, err := avgQueryTime(br.eng, queries, cfg.K)
				if err != nil {
					return nil, err
				}
				row = append(row, fmtDur(qt))
			}
			t.Rows = append(t.Rows, row)
		}
	}
	return t, nil
}

// heterRow describes one algorithm/partitioning pairing of Tables
// VIII and IX.
type heterRow struct {
	label    string
	algo     cluster.Algorithm
	strategy partition.Strategy
}

// heterStudy runs the shared shape of Tables VIII and IX: REPOSE vs a
// baseline with its native partitioning vs the same baseline with
// REPOSE's heterogeneous partitioning bolted on.
func heterStudy(cfg Config, title string, rows []heterRow, measures []dist.Measure, datasets []string) (*Table, error) {
	cfg = cfg.withDefaults()
	if datasets == nil {
		datasets = sweepDatasets
	}
	e := newEnv(cfg)
	t := &Table{
		Title:  title,
		Header: append([]string{"Distance", "Algorithm"}, datasets...),
	}
	for _, m := range measures {
		for _, r := range rows {
			row := []string{m.String(), r.label}
			for _, name := range datasets {
				ds, spec, err := e.dataset(name)
				if err != nil {
					return nil, err
				}
				queries, err := e.queriesFor(name)
				if err != nil {
					return nil, err
				}
				cfg.logf("%s: %s %v %s", title[:9], name, m, r.label)
				br, err := e.buildEngine(r.algo, m, name, ds, spec, buildOpts{strategy: r.strategy})
				if err != nil {
					return nil, err
				}
				qt, err := avgQueryTime(br.eng, queries, cfg.K)
				if err != nil {
					return nil, err
				}
				row = append(row, fmtDur(qt))
			}
			t.Rows = append(t.Rows, row)
		}
	}
	return t, nil
}

// Table8 compares REPOSE against DITA and Heter-DITA (DITA with the
// heterogeneous partitioning) on DTW and Frechet.
func Table8(cfg Config, datasets []string) (*Table, error) {
	rows := []heterRow{
		{label: "REPOSE", algo: cluster.REPOSE, strategy: partition.Heterogeneous},
		{label: "Heter-DITA", algo: cluster.DITA, strategy: partition.Heterogeneous},
		{label: "DITA", algo: cluster.DITA, strategy: partition.Homogeneous},
	}
	return heterStudy(cfg, "Table VIII: DITA with heterogeneous partitioning (ms)",
		rows, []dist.Measure{dist.DTW, dist.Frechet}, datasets)
}

// Table9 compares REPOSE against DFT and Heter-DFT (DFT with the
// heterogeneous partitioning) on Hausdorff and Frechet.
func Table9(cfg Config, datasets []string) (*Table, error) {
	rows := []heterRow{
		{label: "REPOSE", algo: cluster.REPOSE, strategy: partition.Heterogeneous},
		{label: "Heter-DFT", algo: cluster.DFT, strategy: partition.Heterogeneous},
		{label: "DFT", algo: cluster.DFT, strategy: partition.Homogeneous},
	}
	return heterStudy(cfg, "Table IX: DFT with heterogeneous partitioning (ms)",
		rows, []dist.Measure{dist.Hausdorff, dist.Frechet}, datasets)
}

// Runners maps experiment ids to their entry points for the bench
// CLI. Fig8/Fig9 default to OSM (the paper's choice) and use only the
// first entry of any dataset restriction.
var Runners = map[string]func(Config, []string) (*Table, error){
	"table4":   Table4,
	"table5":   Table5,
	"table6":   Table6,
	"table7":   Table7,
	"table8":   Table8,
	"table9":   Table9,
	"fig6":     Fig6,
	"fig7":     Fig7,
	"fig8":     Fig8,
	"fig9":     Fig9,
	"batch":    BatchStudy,
	"coverage": MeasureCoverage,
}

// ExperimentIDs lists the runnable experiment ids in report order.
// "batch" and "coverage" are extensions beyond the paper's
// evaluation.
var ExperimentIDs = []string{
	"table4", "fig6", "table5", "table6", "fig7", "fig8", "fig9",
	"table7", "table8", "table9", "batch", "coverage",
}
