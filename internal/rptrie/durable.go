package rptrie

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"

	"repose/internal/geo"
	"repose/internal/storage"
)

// Durability is an option of the Index handle: BuildDurable,
// WrapDurable and OpenDurable give an index a write-ahead log on an
// internal/storage page store, so the partition recovers to its exact
// pre-crash generation after kill -9. Either layout can be made
// durable.
//
// Protocol (the WAL-before-acknowledge discipline, see storage's
// package doc): a mutation stages its successor state, appends one WAL
// record carrying the successor's generation, publishes the successor,
// and is acknowledged only after the record is fsynced (concurrent
// committers share fsyncs — group commit; see Index.commit).
// Checkpoint folds the current index image into the page file and
// resets the log; Compact triggers one automatically, since the
// rebuild has already paid for the image. Queries never touch the log
// — the delta-empty hot path is untouched and stays allocation-free.

// wal is the disk side of a durable index. Index.mu guards broken.
type wal struct {
	store           *storage.Store
	dir             string
	noCkptOnCompact bool
	broken          error // poisoning error; mutations fail once set
}

// ErrNoDurable reports a directory holding no recoverable index —
// never created, wiped, or its creation crashed before the initial
// checkpoint was acknowledged. Callers fall back to rebuilding or to
// a peer restore.
var ErrNoDurable = errors.New("rptrie: no recoverable durable index")

// ErrDurability reports a storage failure that left a mutation's
// durability unknown; the handle is poisoned read-only.
var ErrDurability = errors.New("rptrie: durable log write failed; index is read-only")

// WAL record types (storage record type byte).
const (
	recInsert  = byte(1)
	recDelete  = byte(2)
	recUpsert  = byte(3)
	recCompact = byte(4)
)

// A checkpoint image is the Layout of the index that wrote it, as one
// byte, ahead of that layout's own Save encoding (Read's input). An
// image tagged with the retired succinct layout loads as compressed.

// walPayload is the gob body of one WAL record. Gen is the
// generation the mutation produced, the replay cross-check.
type walPayload struct {
	Trs []*geo.Trajectory
	IDs []int
	Gen uint64
}

// walVersion prefixes every WAL record payload written by this build,
// aligned with the image format's wireVersion (trajectories may carry
// timestamps from version 2 on; gob's field additivity does the rest).
// Legacy payloads were bare gob streams with no version byte — those
// always open with the uvarint byte length of walPayload's type
// descriptor, several dozen bytes, so a leading byte this small
// unambiguously marks a versioned record and replay accepts both.
const walVersion byte = 2

// DurableOptions configures the disk side of a durable index.
type DurableOptions struct {
	// VFS is the filesystem to run on; nil means the real one.
	VFS storage.VFS
	// PageSize and PoolFrames pass through to storage.Options.
	PageSize   int
	PoolFrames int
	// Layout selects which layout BuildDurable installs the built
	// index in. The zero value is the pointer layout.
	Layout Layout
	// NoCheckpointOnCompact disables the automatic checkpoint after
	// Compact (the WAL then carries compaction as a replayed record).
	NoCheckpointOnCompact bool
}

func (o DurableOptions) storage() storage.Options {
	return storage.Options{VFS: o.VFS, PageSize: o.PageSize, PoolFrames: o.PoolFrames}
}

// BuildDurable builds an index over ds in the requested layout (see
// BuildLayout) and installs it durably at dir, wiping whatever the
// directory held. It returns only after the initial checkpoint is on
// disk.
func BuildDurable(dir string, cfg Config, ds []*geo.Trajectory, o DurableOptions) (*Index, error) {
	x, err := BuildLayout(cfg, ds, o.Layout)
	if err != nil {
		return nil, err
	}
	return WrapDurable(dir, x, o)
}

// WrapDurable installs an in-memory index (e.g. one restored from a
// peer snapshot) as the durable index at dir, wiping whatever the
// directory held, and returns it: from then on x journals its
// mutations. It returns only after the initial checkpoint is on disk,
// and fails for an index that already is durable. o.Layout is
// ignored; x keeps its layout.
func WrapDurable(dir string, x *Index, o DurableOptions) (*Index, error) {
	x.mu.Lock()
	defer x.mu.Unlock()
	if x.wal != nil {
		return nil, fmt.Errorf("rptrie: index is already durable at %s", x.wal.dir)
	}
	if err := storage.Destroy(dir, o.VFS); err != nil {
		return nil, err
	}
	st, err := storage.Open(dir, o.storage())
	if err != nil {
		return nil, err
	}
	x.wal = &wal{store: st, dir: dir, noCkptOnCompact: o.NoCheckpointOnCompact}
	if err := x.checkpointLocked(); err != nil {
		x.wal = nil
		st.Close()
		return nil, err
	}
	return x, nil
}

// OpenDurable recovers the durable index at dir: it loads the newest
// checkpoint image and replays the WAL's well-formed records in LSN
// order, arriving at the exact generation the durable log prefix
// reaches. Directories without a recoverable index (never created,
// or creation crashed before the first checkpoint) fail with
// ErrNoDurable.
func OpenDurable(dir string, o DurableOptions) (*Index, error) {
	st, err := storage.Open(dir, o.storage())
	if err != nil {
		if errors.Is(err, storage.ErrCorrupt) {
			return nil, fmt.Errorf("%w: %s: %v", ErrNoDurable, dir, err)
		}
		return nil, err
	}
	x, err := recoverIndex(st, dir)
	if err != nil {
		st.Close()
		return nil, err
	}
	x.wal = &wal{store: st, dir: dir, noCkptOnCompact: o.NoCheckpointOnCompact}
	return x, nil
}

// recoverIndex rebuilds the in-memory index from st's checkpoint + WAL.
func recoverIndex(st *storage.Store, dir string) (*Index, error) {
	if !st.HasCheckpoint() {
		return nil, fmt.Errorf("%w: %s: store bootstrapped but never checkpointed", ErrNoDurable, dir)
	}
	image, _, err := st.LoadCheckpoint()
	if err != nil {
		return nil, fmt.Errorf("%w: %s: %v", ErrNoDurable, dir, err)
	}
	if len(image) == 0 {
		return nil, fmt.Errorf("%w: %s: empty checkpoint image", ErrNoDurable, dir)
	}
	x, err := Read(Layout(image[0]), bytes.NewReader(image[1:]))
	if err != nil {
		return nil, fmt.Errorf("%w: %s: %v", ErrNoDurable, dir, err)
	}
	if err := st.Replay(func(rec storage.WALRecord) error {
		return applyRecord(x, rec)
	}); err != nil {
		return nil, fmt.Errorf("%w: %s: %v", ErrNoDurable, dir, err)
	}
	return x, nil
}

// applyRecord re-applies one logged mutation during recovery. The
// staging code is deterministic, so the replayed generation must
// match the recorded one exactly; a mismatch means the image and log
// diverged and the state cannot be trusted.
func applyRecord(inner *Index, rec storage.WALRecord) error {
	payload := rec.Payload
	if len(payload) > 0 && payload[0] <= walVersion {
		// Versioned record (see walVersion): strip the prefix. Bytes
		// above walVersion are a legacy bare-gob payload's descriptor
		// length and decode as-is.
		payload = payload[1:]
	}
	var p walPayload
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&p); err != nil {
		return fmt.Errorf("record %d undecodable: %v", rec.LSN, err)
	}
	if p.Gen <= inner.Generation() {
		// Already covered by the checkpoint; legal only for logs the
		// checkpoint obsoleted but whose reset was lost.
		return nil
	}
	switch rec.Type {
	case recInsert:
		if err := inner.Insert(p.Trs...); err != nil {
			return fmt.Errorf("record %d replay: %v", rec.LSN, err)
		}
	case recDelete:
		if n := inner.Delete(p.IDs...); n == 0 {
			return fmt.Errorf("record %d replay: logged delete removed nothing", rec.LSN)
		}
	case recUpsert:
		if err := inner.Upsert(p.Trs...); err != nil {
			return fmt.Errorf("record %d replay: %v", rec.LSN, err)
		}
	case recCompact:
		if err := inner.Compact(); err != nil {
			return fmt.Errorf("record %d replay: %v", rec.LSN, err)
		}
	default:
		return fmt.Errorf("record %d has unknown type %d", rec.LSN, rec.Type)
	}
	if got := inner.Generation(); got != p.Gen {
		return fmt.Errorf("record %d replayed to generation %d, logged %d", rec.LSN, got, p.Gen)
	}
	return nil
}

// append writes one mutation's WAL record and returns its LSN.
func (w *wal) append(typ byte, p walPayload) (uint64, error) {
	var buf bytes.Buffer
	buf.WriteByte(walVersion)
	if err := gob.NewEncoder(&buf).Encode(&p); err != nil {
		return 0, err
	}
	return w.store.Append(typ, buf.Bytes())
}

// errNotDurable reports a disk operation on an in-memory index.
var errNotDurable = errors.New("rptrie: index is not durable")

// Checkpoint folds the current index image into the page file and
// resets the WAL (storage.Store.Checkpoint's copy-on-write protocol).
// Recovery cost drops to image-load plus whatever mutations follow.
func (x *Index) Checkpoint() error {
	x.mu.Lock()
	defer x.mu.Unlock()
	if x.wal == nil {
		return errNotDurable
	}
	return x.checkpointLocked()
}

// checkpointLocked writes the checkpoint image — the Layout as one
// byte ahead of the layout's Save encoding — under x.mu.
func (x *Index) checkpointLocked() error {
	w := x.wal
	if w.broken != nil {
		return w.broken
	}
	var buf bytes.Buffer
	buf.WriteByte(byte(x.Layout()))
	if err := x.Save(&buf); err != nil {
		return err
	}
	if err := w.store.Checkpoint(buf.Bytes(), x.Generation()); err != nil {
		w.broken = fmt.Errorf("%w: %v", ErrDurability, err)
		return w.broken
	}
	return nil
}

// Close flushes and closes a durable index's store; a no-op in
// memory. The index keeps answering queries; mutations fail once
// closed.
func (x *Index) Close() error {
	x.mu.Lock()
	defer x.mu.Unlock()
	w := x.wal
	if w == nil {
		return nil
	}
	alreadyBroken := w.broken != nil
	if w.broken == nil {
		w.broken = errors.New("rptrie: durable index closed")
	}
	err := w.store.Close()
	if alreadyBroken && err == nil {
		// Closing a poisoned handle: surface nothing new.
		return nil
	}
	return err
}

// Err returns the poisoning error, nil while the index is healthy or
// in memory.
func (x *Index) Err() error {
	x.mu.Lock()
	defer x.mu.Unlock()
	if x.wal == nil {
		return nil
	}
	return x.wal.broken
}

// Dir returns a durable index's store directory, "" in memory.
func (x *Index) Dir() string {
	x.mu.Lock()
	defer x.mu.Unlock()
	if x.wal == nil {
		return ""
	}
	return x.wal.dir
}
