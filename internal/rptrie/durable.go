package rptrie

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"sync"

	"repose/internal/geo"
	"repose/internal/storage"
	"repose/internal/topk"
)

// Durable is the disk-backed backing mode of the pointer and
// compressed layouts: it wraps either of them and journals
// every mutation through internal/storage so the partition recovers
// to its exact pre-crash generation after kill -9.
//
// Protocol (the WAL-before-acknowledge discipline, see storage's
// package doc): a mutation applies to the in-memory index, appends
// one WAL record carrying the resulting generation, and is
// acknowledged only after the record is fsynced (concurrent
// committers share fsyncs — group commit). Checkpoint folds the
// current index image into the page file and resets the log;
// Compact triggers one automatically, since the rebuild has already
// paid for the image. Queries go straight to the wrapped index —
// the delta-empty hot path is untouched and stays allocation-free.
//
// A storage failure in the middle of a mutation leaves durability
// unknown, so it poisons the handle: the failed mutation is rolled
// back when no later mutation has applied, and every subsequent
// mutation fails with the original error. Queries keep answering
// from memory.
type Durable struct {
	mu              sync.Mutex
	inner           memIndex
	store           *storage.Store
	dir             string
	noCkptOnCompact bool
	broken          error
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

// DurableOptions configures the disk side of a Durable index.
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
func BuildDurable(dir string, cfg Config, ds []*geo.Trajectory, o DurableOptions) (*Durable, error) {
	idx, err := BuildLayout(cfg, ds, o.Layout)
	if err != nil {
		return nil, err
	}
	return WrapDurable(dir, idx, o)
}

// WrapDurable installs a pre-built in-memory index (a *Trie or
// *Compressed, e.g. one restored from a peer snapshot) as the durable
// index at dir, wiping whatever the directory held. It returns only
// after the initial checkpoint is on disk.
func WrapDurable(dir string, idx Index, o DurableOptions) (*Durable, error) {
	inner, ok := idx.(memIndex)
	if !ok {
		return nil, fmt.Errorf("rptrie: cannot make a %T durable", idx)
	}
	if err := storage.Destroy(dir, o.VFS); err != nil {
		return nil, err
	}
	st, err := storage.Open(dir, o.storage())
	if err != nil {
		return nil, err
	}
	d := &Durable{inner: inner, store: st, dir: dir, noCkptOnCompact: o.NoCheckpointOnCompact}
	if err := d.Checkpoint(); err != nil {
		st.Close()
		return nil, err
	}
	return d, nil
}

// OpenDurable recovers the durable index at dir: it loads the newest
// checkpoint image and replays the WAL's well-formed records in LSN
// order, arriving at the exact generation the durable log prefix
// reaches. Directories without a recoverable index (never created,
// or creation crashed before the first checkpoint) fail with
// ErrNoDurable.
func OpenDurable(dir string, o DurableOptions) (*Durable, error) {
	st, err := storage.Open(dir, o.storage())
	if err != nil {
		if errors.Is(err, storage.ErrCorrupt) {
			return nil, fmt.Errorf("%w: %s: %v", ErrNoDurable, dir, err)
		}
		return nil, err
	}
	d, err := recoverIndex(st, dir, o)
	if err != nil {
		st.Close()
		return nil, err
	}
	return d, nil
}

// recoverIndex rebuilds the in-memory index from st's checkpoint + WAL.
func recoverIndex(st *storage.Store, dir string, o DurableOptions) (*Durable, error) {
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
	inner, err := readMem(Layout(image[0]), bytes.NewReader(image[1:]))
	if err != nil {
		return nil, fmt.Errorf("%w: %s: %v", ErrNoDurable, dir, err)
	}
	if err := st.Replay(func(rec storage.WALRecord) error {
		return applyRecord(inner, rec)
	}); err != nil {
		return nil, fmt.Errorf("%w: %s: %v", ErrNoDurable, dir, err)
	}
	return &Durable{inner: inner, store: st, dir: dir, noCkptOnCompact: o.NoCheckpointOnCompact}, nil
}

// applyRecord re-applies one logged mutation during recovery. The
// staging code is deterministic, so the replayed generation must
// match the recorded one exactly; a mismatch means the image and log
// diverged and the state cannot be trusted.
func applyRecord(inner Index, rec storage.WALRecord) error {
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

// logMutation journals one applied mutation and returns its LSN. The
// caller holds d.mu and has already applied the mutation; prev is the
// pre-mutation state for rollback. On failure the handle is poisoned
// and the mutation rolled back (no later mutation can have applied —
// d.mu is held from apply through append).
func (d *Durable) logMutation(typ byte, p walPayload, prev any) (uint64, error) {
	var buf bytes.Buffer
	buf.WriteByte(walVersion)
	err := gob.NewEncoder(&buf).Encode(&p)
	var lsn uint64
	if err == nil {
		lsn, err = d.store.Append(typ, buf.Bytes())
	}
	if err != nil {
		d.inner.restore(prev)
		d.broken = fmt.Errorf("%w: %v", ErrDurability, err)
		return 0, d.broken
	}
	return lsn, nil
}

// ackSync makes the record durable, completing the acknowledge half
// of the protocol. Called without d.mu so concurrent committers share
// fsyncs. genAfter is the generation this mutation produced: if the
// sync fails and no later mutation has applied, the mutation is
// rolled back; either way the handle is poisoned.
func (d *Durable) ackSync(lsn uint64, genAfter uint64, prev any) error {
	if err := d.store.Sync(lsn); err != nil {
		d.mu.Lock()
		if d.inner.Generation() == genAfter {
			d.inner.restore(prev)
		}
		if d.broken == nil {
			d.broken = fmt.Errorf("%w: %v", ErrDurability, err)
		}
		err = d.broken
		d.mu.Unlock()
		return err
	}
	return nil
}

// Insert adds trajectories durably; see Trie.Insert. It returns only
// after the mutation's WAL record is fsynced.
func (d *Durable) Insert(trs ...*geo.Trajectory) error {
	if len(trs) == 0 {
		return nil
	}
	d.mu.Lock()
	if d.broken != nil {
		d.mu.Unlock()
		return d.broken
	}
	prev := d.inner.snapshot()
	if err := d.inner.Insert(trs...); err != nil {
		d.mu.Unlock()
		return err
	}
	gen := d.inner.Generation()
	lsn, err := d.logMutation(recInsert, walPayload{Trs: trs, Gen: gen}, prev)
	d.mu.Unlock()
	if err != nil {
		return err
	}
	return d.ackSync(lsn, gen, prev)
}

// Delete removes ids durably, returning how many were live; see
// Trie.Delete. A count of zero is returned without touching the log.
// On a storage failure the handle poisons, the deletion rolls back,
// and 0 is returned — the caller never gets an acknowledgement the
// log cannot honor.
func (d *Durable) Delete(ids ...int) int {
	if len(ids) == 0 {
		return 0
	}
	d.mu.Lock()
	if d.broken != nil {
		d.mu.Unlock()
		return 0
	}
	prev := d.inner.snapshot()
	n := d.inner.Delete(ids...)
	if n == 0 {
		d.mu.Unlock()
		return 0
	}
	gen := d.inner.Generation()
	lsn, err := d.logMutation(recDelete, walPayload{IDs: ids, Gen: gen}, prev)
	d.mu.Unlock()
	if err != nil {
		return 0
	}
	if d.ackSync(lsn, gen, prev) != nil {
		return 0
	}
	return n
}

// Upsert inserts with replace semantics, durably; see Trie.Upsert.
func (d *Durable) Upsert(trs ...*geo.Trajectory) error {
	if len(trs) == 0 {
		return nil
	}
	d.mu.Lock()
	if d.broken != nil {
		d.mu.Unlock()
		return d.broken
	}
	prev := d.inner.snapshot()
	if err := d.inner.Upsert(trs...); err != nil {
		d.mu.Unlock()
		return err
	}
	gen := d.inner.Generation()
	lsn, err := d.logMutation(recUpsert, walPayload{Trs: trs, Gen: gen}, prev)
	d.mu.Unlock()
	if err != nil {
		return err
	}
	return d.ackSync(lsn, gen, prev)
}

// Compact folds the pending delta into a rebuilt core, journals the
// compaction, and (unless disabled) checkpoints — the rebuild has
// already produced everything the image needs. A no-op on an empty
// delta.
func (d *Durable) Compact() error {
	d.mu.Lock()
	if d.broken != nil {
		d.mu.Unlock()
		return d.broken
	}
	if d.inner.DeltaLen() == 0 {
		d.mu.Unlock()
		return nil
	}
	prev := d.inner.snapshot()
	if err := d.inner.Compact(); err != nil {
		d.mu.Unlock()
		return err
	}
	gen := d.inner.Generation()
	lsn, err := d.logMutation(recCompact, walPayload{Gen: gen}, prev)
	d.mu.Unlock()
	if err != nil {
		return err
	}
	if err := d.ackSync(lsn, gen, prev); err != nil {
		return err
	}
	if d.noCkptOnCompact {
		return nil
	}
	return d.Checkpoint()
}

// Checkpoint folds the current index image into the page file and
// resets the WAL (storage.Store.Checkpoint's copy-on-write protocol).
// Recovery cost drops to image-load plus whatever mutations follow.
func (d *Durable) Checkpoint() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.broken != nil {
		return d.broken
	}
	var buf bytes.Buffer
	buf.WriteByte(byte(d.inner.Layout()))
	if err := d.inner.Save(&buf); err != nil {
		return err
	}
	if err := d.store.Checkpoint(buf.Bytes(), d.inner.Generation()); err != nil {
		d.broken = fmt.Errorf("%w: %v", ErrDurability, err)
		return d.broken
	}
	return nil
}

// Close flushes and closes the store. The in-memory index keeps
// answering queries; mutations fail once closed.
func (d *Durable) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	alreadyBroken := d.broken != nil
	if d.broken == nil {
		d.broken = errors.New("rptrie: durable index closed")
	}
	err := d.store.Close()
	if alreadyBroken && err == nil {
		// Closing a poisoned handle: surface nothing new.
		return nil
	}
	return err
}

// Err returns the poisoning error, nil while the handle is healthy.
func (d *Durable) Err() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.broken
}

// Dir returns the store directory.
func (d *Durable) Dir() string { return d.dir }

// Layout reports the wrapped layout.
func (d *Durable) Layout() Layout { return d.inner.Layout() }

// Generation returns the current snapshot's generation.
func (d *Durable) Generation() uint64 { return d.inner.Generation() }

// DeltaLen returns the number of pending (uncompacted) mutations.
func (d *Durable) DeltaLen() int { return d.inner.DeltaLen() }

// Len returns the number of live trajectories.
func (d *Durable) Len() int { return d.inner.Len() }

// Config returns the wrapped index's build configuration.
func (d *Durable) Config() Config { return d.inner.Config() }

// SizeBytes reports the wrapped index footprint (the disk store and
// buffer pool are not index state).
func (d *Durable) SizeBytes() int { return d.inner.SizeBytes() }

// Search answers a top-k query on the wrapped index.
func (d *Durable) Search(q []geo.Point, k int) []topk.Item { return d.inner.Search(q, k) }

// SearchAppend is Search appending results to dst.
func (d *Durable) SearchAppend(dst []topk.Item, q []geo.Point, k int) []topk.Item {
	return d.inner.SearchAppend(dst, q, k)
}

// SearchContext is Search honoring per-query options and a context.
func (d *Durable) SearchContext(ctx context.Context, q []geo.Point, k int, opt SearchOptions) ([]topk.Item, error) {
	return d.inner.SearchContext(ctx, q, k, opt)
}

// BoundContext returns an admissible lower bound on the distance from
// q to every trajectory held by the wrapped index; see
// Trie.BoundContext.
func (d *Durable) BoundContext(ctx context.Context, q []geo.Point, opt SearchOptions) (float64, error) {
	return d.inner.BoundContext(ctx, q, opt)
}

// SearchRadiusContext answers a range query on the wrapped index.
func (d *Durable) SearchRadiusContext(ctx context.Context, q []geo.Point, radius float64, opt SearchOptions) ([]topk.Item, error) {
	return d.inner.SearchRadiusContext(ctx, q, radius, opt)
}

// Save serializes the wrapped index in its layout's wire format
// (readable by Read under Layout) — the cluster snapshot path.
func (d *Durable) Save(w io.Writer) error { return d.inner.Save(w) }

// LiveIDs returns the ids of every live trajectory, unordered — the
// input for rebuilding a driver's routing directory after recovery and
// for computing a split's keep set.
func (d *Durable) LiveIDs() []int { return d.inner.LiveIDs() }

func liveIDsOf(core map[int32]*geo.Trajectory, dl *delta) []int {
	out := make([]int, 0, len(core))
	for tid := range core {
		if dl != nil {
			if _, dead := dl.dels[tid]; dead {
				continue
			}
		}
		out = append(out, int(tid))
	}
	if dl != nil {
		for _, tr := range dl.adds {
			out = append(out, tr.ID)
		}
	}
	return out
}
