package repose

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"os"
	"path/filepath"

	"repose/internal/cluster"
	"repose/internal/geo"
)

// Durability: Build with WithDurableDir keeps every partition index
// on disk — a checkpoint image plus a write-ahead log per partition,
// under <dir>/p<pid> — and OpenDurable recovers the whole index from
// that directory after a crash or restart, each partition replaying
// its own log to the exact generation it had acknowledged. Every
// mutation (Insert, Delete, Upsert, CompactNow) returns only after
// its log record is fsynced.

// WithDurableDir makes Build install every partition disk-backed
// under dir (created if missing, wiped of any previous index):
//
//	idx, err := repose.Build(ds, repose.Options{}, repose.WithDurableDir("/var/lib/repose"))
//
// A later repose.OpenDurable(dir) recovers the index without the
// dataset. Local engine only; remote workers persist with the
// repose-worker binary's -data-dir flag instead.
func WithDurableDir(dir string) BuildOption {
	return func(o *Options) { o.DurableDir = dir }
}

// manifestName is the file recording what the durable directory
// holds; partitions live next to it in p<pid> subdirectories.
const manifestName = "MANIFEST"

// durableManifest is the gob-encoded description OpenDurable rebuilds
// an Index from: the normalized build options, the dataset region,
// and the engine spec (grid, pivots, partitioning strategy).
type durableManifest struct {
	Opts   Options
	Region geo.Rect
	Spec   cluster.IndexSpec
}

// writeManifest commits the manifest atomically (temp file + rename)
// so a crash mid-build never leaves a readable-but-wrong manifest.
func writeManifest(dir string, m durableManifest) error {
	f, err := os.CreateTemp(dir, ".manifest-*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	err = gob.NewEncoder(f).Encode(&m)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, filepath.Join(dir, manifestName))
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("repose: durable manifest: %w", err)
	}
	return nil
}

// succinctManifest is the part of a manifest that records the
// retired succinct layout: Layout value 1, or the Succinct flag that
// Options and the engine spec carried before it was retired. gob
// needs a distinct type for each of the two fields.
type succinctManifest struct {
	Opts succinctOpts
	Spec succinctSpec
}

type succinctOpts struct {
	Layout   Layout
	Succinct bool
}

type succinctSpec succinctOpts

// readManifest loads a directory's manifest. A manifest of the retired
// succinct layout reads as LayoutCompressed, the layout its partitions
// recover in.
func readManifest(dir string) (durableManifest, error) {
	raw, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		return durableManifest{}, fmt.Errorf("repose: not a durable index directory: %w", err)
	}
	var m durableManifest
	var old succinctManifest
	if err := gob.NewDecoder(bytes.NewReader(raw)).Decode(&m); err != nil {
		return durableManifest{}, fmt.Errorf("repose: durable manifest unreadable: %w", err)
	}
	if err := gob.NewDecoder(bytes.NewReader(raw)).Decode(&old); err != nil {
		return durableManifest{}, fmt.Errorf("repose: durable manifest unreadable: %w", err)
	}
	if old.Opts.Succinct || old.Spec.Succinct || old.Opts.Layout == 1 || old.Spec.Layout == 1 {
		m.Opts.Layout, m.Spec.Layout = LayoutCompressed, LayoutCompressed
	}
	return m, nil
}

// OpenDurable recovers an index built with WithDurableDir from its
// directory: no dataset needed — every partition reloads its newest
// checkpoint and replays its own write-ahead log, arriving at the
// exact state whose mutations were acknowledged before the process
// died. The recovered Index answers the same query and mutation
// surface as the Build result it resumes.
func OpenDurable(dir string) (*Index, error) {
	m, err := readManifest(dir)
	if err != nil {
		return nil, err
	}
	eng, err := cluster.OpenLocalDurable(m.Spec, m.Opts.Partitions, m.Opts.Workers, dir)
	if err != nil {
		return nil, err
	}
	m.Opts.DurableDir = dir // the directory may have moved since the build
	return &Index{eng: engineLocal{eng}, region: m.Region, opts: m.Opts}, nil
}
