package cluster

import (
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"time"

	"repose/internal/geo"
	"repose/internal/grid"
	"repose/internal/partition"
	"repose/internal/rptrie"
	"repose/internal/storage"
)

// Disk-backed partitions: when an engine or worker is given a data
// directory, every REPOSE partition index lives in its own
// subdirectory ("p<pid>") as a durable rptrie.Index — checkpoint
// image + WAL on the page store. A restarted process recovers each
// partition from its own log (OpenDurable) instead of rebuilding from
// the dataset or streaming an image from a peer; the driver's failure
// detector only falls back to Worker.Restore when the recovered
// generation is behind the authoritative one. Baseline indexes have
// no persistence and pass through unchanged.

// partDirName returns the subdirectory holding one partition's store.
func partDirName(pid int) string { return "p" + strconv.Itoa(pid) }

// parsePartDir inverts partDirName; ok is false for foreign entries.
func parsePartDir(name string) (int, bool) {
	if len(name) < 2 || name[0] != 'p' {
		return 0, false
	}
	pid, err := strconv.Atoi(name[1:])
	if err != nil || pid < 0 {
		return 0, false
	}
	return pid, true
}

// wrapDurablePartition installs idx durably under dataDir, wiping
// whatever the partition's subdirectory held. Non-REPOSE indexes
// (baselines) pass through unchanged — they have no persistence.
func wrapDurablePartition(dataDir string, pid int, idx LocalIndex) (LocalIndex, error) {
	ri, ok := idx.(*rptrie.Index)
	if !ok {
		return idx, nil
	}
	if _, err := rptrie.WrapDurable(filepath.Join(dataDir, partDirName(pid)), ri, rptrie.DurableOptions{}); err != nil {
		return nil, fmt.Errorf("cluster: partition %d durable install: %w", pid, err)
	}
	return ri, nil
}

// closeDurable closes idx's disk store when it has one.
func closeDurable(idx LocalIndex) {
	if ri, ok := idx.(*rptrie.Index); ok {
		ri.Close()
	}
}

// destroyDurable closes idx and wipes its on-disk store so a future
// recovery scan does not resurrect a partition the driver dropped.
func destroyDurable(idx LocalIndex) {
	if ri, ok := idx.(*rptrie.Index); ok {
		if dir := ri.Dir(); dir != "" {
			ri.Close()
			storage.Destroy(dir, nil)
		}
	}
}

// recoverDurablePartitions opens every recoverable partition store
// under dataDir. Subdirectories that never reached a first checkpoint
// recover nothing (the driver rebuilds or restores them); anything
// else failing to open is a real error.
func recoverDurablePartitions(dataDir string) (map[int]*rptrie.Index, error) {
	fs := storage.OSFS{}
	names, err := fs.ReadDir(dataDir)
	if err != nil {
		return nil, fmt.Errorf("cluster: data dir scan: %w", err)
	}
	out := make(map[int]*rptrie.Index)
	for _, name := range names {
		pid, ok := parsePartDir(name)
		if !ok {
			continue
		}
		d, err := rptrie.OpenDurable(filepath.Join(dataDir, name), rptrie.DurableOptions{})
		if err != nil {
			if errors.Is(err, rptrie.ErrNoDurable) {
				continue
			}
			for _, open := range out {
				open.Close()
			}
			return nil, fmt.Errorf("cluster: partition %d recovery: %w", pid, err)
		}
		out[pid] = d
	}
	return out, nil
}

// BuildLocalDurable is BuildLocal with every REPOSE partition index
// installed disk-backed under dataDir ("p<pid>" per partition). The
// build returns only after every partition's initial checkpoint is on
// disk.
func BuildLocalDurable(spec IndexSpec, parts [][]*geo.Trajectory, workers int, dataDir string) (*Local, error) {
	fs := storage.OSFS{}
	if err := fs.MkdirAll(dataDir); err != nil {
		return nil, err
	}
	c, err := BuildLocal(spec, parts, workers)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	indexes := c.parts()
	for pid, idx := range indexes {
		d, err := wrapDurablePartition(dataDir, pid, idx)
		if err != nil {
			c.Close()
			return nil, err
		}
		indexes[pid] = d
	}
	c.setParts(indexes)
	c.dataDir = dataDir
	c.buildTime += time.Since(start)
	return c, nil
}

// OpenLocalDurable recovers a BuildLocalDurable engine from its data
// directory: every one of the numPartitions stores must open, each
// replaying its own WAL to its exact pre-crash generation, and the
// mutation-routing directory is rebuilt from the recovered live ids.
func OpenLocalDurable(spec IndexSpec, numPartitions, workers int, dataDir string) (*Local, error) {
	if numPartitions <= 0 {
		return nil, errors.New("cluster: durable open needs a positive partition count")
	}
	start := time.Now()
	recovered, err := recoverDurablePartitions(dataDir)
	if err != nil {
		return nil, err
	}
	closeAll := func() {
		for _, d := range recovered {
			d.Close()
		}
	}
	indexes := make([]LocalIndex, numPartitions)
	for pid := 0; pid < numPartitions; pid++ {
		d, ok := recovered[pid]
		if !ok {
			closeAll()
			return nil, fmt.Errorf("cluster: partition %d has no recoverable store under %s", pid, dataDir)
		}
		indexes[pid] = d
	}
	for pid := range recovered {
		if pid >= numPartitions {
			closeAll()
			return nil, fmt.Errorf("cluster: recovered partition %d exceeds the engine's %d partitions", pid, numPartitions)
		}
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	dir, err := recoveredDirectory(spec, indexes)
	if err != nil {
		closeAll()
		return nil, err
	}
	c := &Local{
		workers:   workers,
		sem:       make(chan struct{}, workers),
		buildTime: time.Since(start),
		dir:       dir,
		dataDir:   dataDir,
	}
	c.setParts(indexes)
	return c, nil
}

// recoveredDirectory rebuilds the driver-side routing directory from
// the recovered partitions' live ids. The online router restarts with
// fresh placement counters — a heuristic drift, not a correctness
// one: the id → partition map below is the routing truth. A recovered
// durable engine is always REPOSE-backed, so failing to rebuild the
// grid or the online router is a recovery error, not a baseline
// without routing: swallowing it would half-open an engine whose
// post-recovery inserts have no router to assign them.
func recoveredDirectory(spec IndexSpec, indexes []LocalIndex) (*directory, error) {
	d := &directory{loc: make(map[int32]int), spec: spec}
	for pid, idx := range indexes {
		if ri, ok := idx.(*rptrie.Index); ok {
			ids := ri.LiveIDs()
			sort.Ints(ids)
			for _, id := range ids {
				d.loc[int32(id)] = pid
			}
		}
	}
	g, err := grid.New(spec.Region, spec.Delta)
	if err != nil {
		return nil, fmt.Errorf("cluster: recovered directory grid: %w", err)
	}
	r, err := partition.NewOnlineRouter(spec.Strategy, g, len(indexes), spec.Seed)
	if err != nil {
		return nil, fmt.Errorf("cluster: recovered directory router: %w", err)
	}
	d.grid = g
	d.router = r
	return d, nil
}
