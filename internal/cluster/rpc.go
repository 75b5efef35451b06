package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/rpc"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repose/internal/geo"
	"repose/internal/rptrie"
	"repose/internal/storage"
	"repose/internal/topk"
)

// The RPC transport simulates the paper's multi-node deployment on
// one machine: worker processes own partitions, the driver ships
// trajectories + an IndexSpec at build time and broadcasts queries,
// and each worker returns its merged local top-k. Everything is
// stdlib net/rpc with gob encoding.
//
// Protocol v2 adds a version handshake, radius and batch search
// endpoints, and per-query cancellation: every query carries a
// salted unique ID plus an optional time budget, and the driver
// fires Worker.Cancel for in-flight IDs when its context is
// cancelled, so a straggler worker stops computing instead of
// burning cores on an answer nobody is waiting for.
//
// Protocol v3 adds online index maintenance: Insert/Delete/Compact
// endpoints targeting one partition (the driver routes; workers
// apply), and per-partition generation pins in the query header so a
// driver can demand read-your-writes snapshots.
//
// Protocol v4 adds replication and recovery: Worker.Status reports
// which partitions a worker holds at which generations (the driver's
// failure detector reconciles a rejoining worker against it),
// Worker.Snapshot streams one partition's serialized index out of a
// healthy replica, and Worker.Restore installs such a stream into a
// recovering worker — the state transfer that lets a restarted worker
// rejoin without replaying the build. Query headers are otherwise
// unchanged; replication is entirely driver-side policy (placement,
// per-replica generation tracking, failover routing — see
// failover.go).
//
// Protocol v6 adds live rebalancing and score-guided probing:
// SearchReply carries each partition's unmerged result list and cost
// counters (the driver's load tracker and split-window dedup need
// per-partition attribution, not a per-worker merge), Worker.Bound
// answers the probe budget's admissible lower-bound check without a
// full scan, Worker.Split clones the moved half of a partition into a
// new partition id on the same worker, and Worker.Drop discards a
// partition after its replica migrated away. A worker now also errors
// on a query naming a partition it does not hold (it used to answer
// silently from the intersection): the driver always asks exactly
// what it believes the worker owns, so a miss means the plan raced an
// ownership change and the driver must retry elsewhere rather than
// accept a silently incomplete answer.
//
// Protocol v7 adds refined query modes: the four query arg shapes
// (Search/Bound/SearchRadius/SearchBatch) gain a rptrie.RefineSpec
// selecting subtrajectory and/or time-windowed scoring. The worker
// builds the refiner per partition from the partition's own index
// configuration, so the spec travels as plain data — no measure or
// parameters on the wire. A zero spec encodes the pre-v7 behaviour,
// and reply shapes are unchanged (topk.Item already carries the
// matched [Start, End) segment).

// ProtocolVersion is the driver↔worker wire protocol version. The
// worker rejects requests from a driver speaking a different version
// rather than mis-decoding them.
const ProtocolVersion = 8

// checkVersion rejects a peer speaking a different protocol version.
func checkVersion(v int) error {
	if v != ProtocolVersion {
		return fmt.Errorf("cluster: protocol version mismatch: peer speaks v%d, this build speaks v%d", v, ProtocolVersion)
	}
	return nil
}

// HandshakeArgs announces the driver's protocol version.
type HandshakeArgs struct {
	Version int
}

// HandshakeReply reports the worker's protocol version.
type HandshakeReply struct {
	Version int
}

// BuildArgs ships one partition to a worker.
type BuildArgs struct {
	Version      int
	PartitionID  int
	Spec         IndexSpec
	Trajectories []*geo.Trajectory
}

// BuildReply reports the built partition index.
type BuildReply struct {
	SizeBytes  int
	Len        int
	BuildNanos int64
}

// QueryHeader is the common preamble of every v2 query RPC.
type QueryHeader struct {
	Version int
	// ID identifies the query; Worker.Cancel aborts the in-flight
	// query carrying it. Drivers salt their ids with random high
	// bits so concurrent drivers sharing a worker do not collide.
	// 0 means not cancellable.
	ID uint64
	// BudgetNanos is the time remaining until the driver context's
	// deadline when the query was sent (0 = none, negative =
	// already expired). A relative budget rather than an absolute
	// timestamp: worker clocks may be skewed from the driver's. The
	// worker aborts on its own once the budget is spent, even if
	// the cancel RPC never arrives.
	BudgetNanos int64
	// Partitions restricts the query to these partition ids
	// (deduplicated by the driver); the worker intersects it with
	// the partitions it owns. nil = all.
	Partitions []int
	// MinGens pins the query per global partition id; see
	// QueryOptions.MinGens.
	MinGens []uint64
}

// SearchArgs broadcasts a top-k query.
type SearchArgs struct {
	QueryHeader
	Query         []geo.Point
	K             int
	NoPivots      bool
	RefineWorkers int
	Refine        rptrie.RefineSpec
}

// SearchReply carries a worker's merged local top-k plus, since v6,
// each partition's unmerged result list and cost counters keyed by
// partition id — the attribution the driver's load tracker scores
// partitions by, and what lets the driver dedup a split's
// install→prune window where a trajectory briefly lives in two
// partitions.
type SearchReply struct {
	Items       []topk.Item
	PartNanos   map[int]int64
	PartItems   map[int][]topk.Item
	PartRefined map[int]int64 // exact-distance refinements per partition
	Partitions  []int
}

// BoundArgs asks for each selected partition's admissible lower bound
// on the best distance any of its trajectories could achieve for the
// query — the probe budget's pruning test, answered by a bounded
// best-first walk instead of a full scan.
type BoundArgs struct {
	QueryHeader
	Query    []geo.Point
	NoPivots bool
	Refine   rptrie.RefineSpec
}

// BoundReply carries the per-partition bounds. A partition whose
// index cannot bound (a baseline) reports 0, which never prunes.
type BoundReply struct {
	Bounds map[int]float64
}

// RadiusArgs broadcasts a range query.
type RadiusArgs struct {
	QueryHeader
	Query         []geo.Point
	Radius        float64
	NoPivots      bool
	RefineWorkers int
	Refine        rptrie.RefineSpec
}

// RadiusReply carries every in-range trajectory of the worker's
// partitions (each worker's list arrives sorted; the driver re-sorts
// the concatenated global merge).
type RadiusReply struct {
	Items      []topk.Item
	PartNanos  map[int]int64
	Partitions []int
}

// SearchBatchArgs broadcasts a whole query batch.
type SearchBatchArgs struct {
	QueryHeader
	Queries       [][]geo.Point
	K             int
	NoPivots      bool
	RefineWorkers int
	Refine        rptrie.RefineSpec
}

// SearchBatchReply carries the worker's per-query merged local top-k
// lists, indexed like the queries. PerQueryNanos is each query's
// completion offset from the worker's batch start (including
// intra-worker queuing); the driver reports the max across workers,
// so cross-worker RPC arrival skew is the only slack versus the
// local engine's from-batch-start semantics.
type SearchBatchReply struct {
	Items          [][]topk.Item
	PerQueryNanos  []int64
	TotalWorkNanos int64
}

// CancelArgs aborts the in-flight query with the given id.
type CancelArgs struct {
	ID uint64
}

// InsertArgs applies pending inserts to one partition the worker
// owns. The driver routes and validates; the worker only applies.
// With Replace set the trajectories upsert (live ids are replaced in
// one snapshot-atomic swap) instead of strictly inserting.
type InsertArgs struct {
	Version      int
	PartitionID  int
	Trajectories []*geo.Trajectory
	Replace      bool
	AutoCompact  float64
}

// InsertReply reports the partition's post-insert state.
type InsertReply struct {
	Gen uint64
	Len int
}

// DeleteArgs removes ids from one partition the worker owns.
type DeleteArgs struct {
	Version     int
	PartitionID int
	IDs         []int
	AutoCompact float64
}

// DeleteReply reports how many ids were live and the partition's
// post-delete state.
type DeleteReply struct {
	Removed int
	Gen     uint64
	Len     int
}

// CompactArgs folds the pending deltas of the selected partitions the
// worker owns (nil = all owned).
type CompactArgs struct {
	Version    int
	Partitions []int
}

// CompactReply carries the compacted partitions' new generations.
type CompactReply struct {
	Gens map[int]uint64
}

// ClearArgs empties a worker between experiments.
type ClearArgs struct {
	Version int
}

// StatusArgs asks a worker which partitions it holds.
type StatusArgs struct {
	Version int
}

// StatusReply reports the worker's partitions: each one's index
// generation and live trajectory count. The driver's failure detector
// compares these against the authoritative generations to decide what
// a rejoining worker must be restored.
type StatusReply struct {
	Gens map[int]uint64
	Lens map[int]int
}

// SnapshotArgs asks a worker to serialize one partition it owns.
type SnapshotArgs struct {
	Version     int
	PartitionID int
}

// SnapshotReply carries the partition's serialized index image (the
// rptrie wire format, pending delta folded in, at the source's
// generation). Layout distinguishes the three layouts' formats — the
// compressed layout's images are several times smaller, which is what
// makes failover transfers of compressed partitions cheap.
type SnapshotReply struct {
	Data   []byte
	Layout rptrie.Layout
	Gen    uint64
	Len    int
}

// RestoreArgs installs a partition image produced by Worker.Snapshot
// into a recovering worker, replacing whatever it held for that
// partition.
type RestoreArgs struct {
	Version     int
	PartitionID int
	Layout      rptrie.Layout
	Data        []byte
}

// RestoreReply reports the restored partition's state.
type RestoreReply struct {
	Gen uint64
	Len int
}

// SplitArgs carves the MoveIDs half of an owned partition into a new
// partition installed on the same worker; the source partition is
// left intact (the driver prunes it afterwards, and its merge dedups
// the overlap window). The driver computes MoveIDs so every replica
// of the partition splits identically.
type SplitArgs struct {
	Version        int
	PartitionID    int
	NewPartitionID int
	MoveIDs        []int
}

// SplitReply reports the newly installed partition's state.
type SplitReply struct {
	Gen       uint64
	Len       int
	SizeBytes int
}

// DropArgs discards an owned partition (after its replica migrated to
// another worker), wiping any durable store so a restart does not
// resurrect it.
type DropArgs struct {
	Version     int
	PartitionID int
}

// Worker is the RPC service hosted by a worker process.
type Worker struct {
	mu       sync.Mutex
	indexes  map[int]LocalIndex
	inflight map[uint64]context.CancelFunc
	// cancelled holds ids whose Worker.Cancel arrived before the
	// query registered (net/rpc runs handlers concurrently, so the
	// race is inherent); queryContext consumes the tombstone and
	// starts the query already cancelled. cancelledQ bounds the set:
	// a tombstone for a query that already finished is never
	// consumed and must not accumulate.
	cancelled  map[uint64]struct{}
	cancelledQ []uint64
	// awaitRestore marks a worker started with the -rejoin flag: it
	// replaces a dead peer and expects the driver's failure detector
	// to stream it partition state. Until the first Build or Restore
	// lands, its queries fail with a distinctive diagnostic instead of
	// the generic "no partitions".
	awaitRestore bool
	// dataDir, when set, backs every REPOSE partition with a durable
	// store under dataDir/p<pid>; NewDurableWorker recovers them at
	// startup so a restarted worker rejoins from its own WAL.
	dataDir string
	// restores counts Worker.Restore calls that installed state — the
	// observable distinguishing a local-replay rejoin from a peer
	// state transfer.
	restores int
	// forceLayout, when non-nil, overrides the layout of every REPOSE
	// partition this worker builds, whatever the driver's spec says —
	// the knob for memory-constrained workers in a heterogeneous
	// fleet. Safe because every layout answers queries bit-identically.
	forceLayout *rptrie.Layout
	// queryWorkers/qsem, when set, cap the worker's total
	// partition-scan concurrency across all in-flight queries (the
	// default is GOMAXPROCS per query view, which hides per-worker
	// saturation when many workers share one test machine).
	queryWorkers int
	qsem         chan struct{}
}

// SetQueryWorkers caps this worker's total partition-scan concurrency
// across all in-flight queries. Call before serving; n <= 0 restores
// the default (GOMAXPROCS per query view). The cap is what makes one
// worker's overload observable — and a migration's relief measurable
// — when several workers share a machine.
func (w *Worker) SetQueryWorkers(n int) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if n <= 0 {
		w.queryWorkers, w.qsem = 0, nil
		return
	}
	w.queryWorkers = n
	w.qsem = make(chan struct{}, n)
}

// maxPendingCancels bounds the early-cancel tombstone set.
const maxPendingCancels = 1024

// ForceLayout makes every REPOSE partition this worker builds use the
// given layout regardless of the driver's build spec. Call it before
// serving; it does not rebuild already-installed partitions. Restored
// partitions (Worker.Restore) keep the image's layout — a state
// transfer must land at the source's exact generation, not re-encode.
func (w *Worker) ForceLayout(l rptrie.Layout) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.forceLayout = &l
}

// NewWorker returns an empty worker service.
func NewWorker() *Worker {
	return &Worker{
		indexes:   make(map[int]LocalIndex),
		inflight:  make(map[uint64]context.CancelFunc),
		cancelled: make(map[uint64]struct{}),
	}
}

// NewRejoinWorker returns an empty worker that announces itself as a
// replacement for a dead peer: it starts with no partitions and
// expects the driver to restore state into it (see RestoreArgs).
func NewRejoinWorker() *Worker {
	w := NewWorker()
	w.awaitRestore = true
	return w
}

// NewDurableWorker returns a worker whose REPOSE partitions are
// disk-backed under dataDir. Partitions already recoverable there
// (from a previous run of the same worker) are opened immediately,
// each replaying its own WAL to its exact pre-crash generation — the
// driver's failure detector then re-admits them without a peer state
// transfer as long as they are current.
// With rejoin set and nothing recoverable on disk, the worker starts
// in the awaiting-restore state like NewRejoinWorker.
func NewDurableWorker(dataDir string, rejoin bool) (*Worker, error) {
	fs := storage.OSFS{}
	if err := fs.MkdirAll(dataDir); err != nil {
		return nil, err
	}
	recovered, err := recoverDurablePartitions(dataDir)
	if err != nil {
		return nil, err
	}
	w := NewWorker()
	w.dataDir = dataDir
	w.awaitRestore = rejoin && len(recovered) == 0
	for pid, d := range recovered {
		w.indexes[pid] = d
	}
	return w, nil
}

// RecoveredPartitions lists the partitions a NewDurableWorker opened
// from disk at startup, ascending.
func (w *Worker) RecoveredPartitions() []int {
	w.mu.Lock()
	defer w.mu.Unlock()
	var pids []int
	for pid, idx := range w.indexes {
		if ri, ok := idx.(*rptrie.Index); ok && ri.Dir() != "" {
			pids = append(pids, pid)
		}
	}
	sort.Ints(pids)
	return pids
}

// RestoreCount reports how many Worker.Restore calls installed state.
func (w *Worker) RestoreCount() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.restores
}

// CloseData flushes and closes every disk-backed partition store.
// The worker keeps answering queries from memory; call it on process
// shutdown so a restart recovers from a cleanly closed log.
func (w *Worker) CloseData() {
	w.mu.Lock()
	indexes := make([]LocalIndex, 0, len(w.indexes))
	for _, idx := range w.indexes {
		indexes = append(indexes, idx)
	}
	w.mu.Unlock()
	for _, idx := range indexes {
		closeDurable(idx)
	}
}

// Handshake verifies the driver and worker speak the same protocol.
func (w *Worker) Handshake(args *HandshakeArgs, reply *HandshakeReply) error {
	reply.Version = ProtocolVersion
	return checkVersion(args.Version)
}

// Build constructs the index for one partition.
func (w *Worker) Build(args *BuildArgs, reply *BuildReply) error {
	if err := checkVersion(args.Version); err != nil {
		return err
	}
	start := time.Now()
	spec := args.Spec
	w.mu.Lock()
	if w.forceLayout != nil && spec.Algorithm == REPOSE {
		spec.Layout = *w.forceLayout
	}
	w.mu.Unlock()
	idx, err := spec.BuildLocal(args.Trajectories)
	if err != nil {
		return err
	}
	// Uninstall the old index before closing its store and wiping its
	// directory: if the durable install below fails, the partition
	// must read as absent (the driver rebuilds or restores it), not be
	// served by a closed index whose on-disk state is gone.
	w.mu.Lock()
	old := w.indexes[args.PartitionID]
	delete(w.indexes, args.PartitionID)
	w.mu.Unlock()
	closeDurable(old) // release the store before WrapDurable wipes its directory
	if w.dataDir != "" {
		if idx, err = wrapDurablePartition(w.dataDir, args.PartitionID, idx); err != nil {
			return err
		}
	}
	w.mu.Lock()
	w.indexes[args.PartitionID] = idx
	w.awaitRestore = false
	w.mu.Unlock()
	reply.SizeBytes = idx.SizeBytes()
	reply.Len = idx.Len()
	reply.BuildNanos = time.Since(start).Nanoseconds()
	return nil
}

// view snapshots the worker's indexes for the selected partitions (in
// ascending partition-id order) as a query-ready Local.
func (w *Worker) view(subset []int) (*Local, []int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if len(w.indexes) == 0 {
		if w.awaitRestore {
			return nil, nil, errors.New("cluster: worker awaiting state restore (started with -rejoin)")
		}
		return nil, nil, errors.New("cluster: worker has no partitions")
	}
	var pids []int
	if len(subset) == 0 {
		for id := range w.indexes {
			pids = append(pids, id)
		}
	} else {
		// Defensive dedup: a duplicated id must not double-count a
		// partition's results. A requested partition this worker does
		// not hold is an error, not a silent intersection: the driver
		// asks exactly what it believes the worker owns, so a miss
		// means the plan raced a migration or split and the driver
		// must retry the partition elsewhere — answering without it
		// would return a silently incomplete result.
		seen := make(map[int]bool, len(subset))
		for _, id := range subset {
			if seen[id] {
				continue
			}
			seen[id] = true
			if _, ok := w.indexes[id]; !ok {
				return nil, nil, fmt.Errorf("cluster: worker "+notOwnerMsg+" %d", id)
			}
			pids = append(pids, id)
		}
	}
	sort.Ints(pids)
	indexes := make([]LocalIndex, len(pids))
	for i, id := range pids {
		indexes[i] = w.indexes[id]
	}
	v := localView(indexes, pids, w.queryWorkers)
	if w.qsem != nil {
		// Share one semaphore across every in-flight query's view so
		// the cap bounds the worker, not each query.
		v.sem = w.qsem
	}
	return v, pids, nil
}

// queryContext derives the query's context from the wire header and
// registers it for Worker.Cancel. The returned stop func must be
// called when the query finishes.
func (w *Worker) queryContext(h QueryHeader) (context.Context, func()) {
	var ctx context.Context
	var cancel context.CancelFunc
	if h.BudgetNanos != 0 {
		// A non-positive budget yields an already-expired context.
		ctx, cancel = context.WithTimeout(context.Background(), time.Duration(h.BudgetNanos))
	} else {
		ctx, cancel = context.WithCancel(context.Background())
	}
	if h.ID != 0 {
		w.mu.Lock()
		if _, early := w.cancelled[h.ID]; early {
			// The cancel won the race with registration: start the
			// query already aborted.
			delete(w.cancelled, h.ID)
			cancel()
		} else {
			w.inflight[h.ID] = cancel
		}
		w.mu.Unlock()
	}
	return ctx, func() {
		if h.ID != 0 {
			w.mu.Lock()
			delete(w.inflight, h.ID)
			w.mu.Unlock()
		}
		cancel()
	}
}

// Cancel aborts the in-flight query with args.ID. An id not yet
// registered is remembered as a tombstone so a query racing its own
// cancel still aborts; the query may also simply have finished first.
func (w *Worker) Cancel(args *CancelArgs, _ *struct{}) error {
	if args.ID == 0 {
		return nil
	}
	w.mu.Lock()
	cancel := w.inflight[args.ID]
	if cancel == nil {
		if _, ok := w.cancelled[args.ID]; !ok {
			w.cancelled[args.ID] = struct{}{}
			w.cancelledQ = append(w.cancelledQ, args.ID)
			if len(w.cancelledQ) > maxPendingCancels {
				delete(w.cancelled, w.cancelledQ[0])
				w.cancelledQ = w.cancelledQ[1:]
			}
		}
	}
	w.mu.Unlock()
	if cancel != nil {
		cancel()
	}
	return nil
}

// partNanos re-keys a view's positional partition timings by
// partition id.
func partNanos(pids []int, rep QueryReport) map[int]int64 {
	out := make(map[int]int64, len(pids))
	for i, d := range rep.PartitionTimes {
		out[pids[i]] = d.Nanoseconds()
	}
	return out
}

// Search answers the query over the selected partitions this worker
// owns and merges them into one local top-k.
func (w *Worker) Search(args *SearchArgs, reply *SearchReply) error {
	if err := checkVersion(args.Version); err != nil {
		return err
	}
	ctx, stop := w.queryContext(args.QueryHeader)
	defer stop()
	view, pids, err := w.view(args.Partitions)
	if err != nil {
		return err
	}
	opt := QueryOptions{NoPivots: args.NoPivots, RefineWorkers: args.RefineWorkers, MinGens: args.MinGens, Refine: args.Refine}
	parts := view.parts()
	sel := make([]int, len(parts))
	for i := range sel {
		sel[i] = i
	}
	var bound topk.Bound
	locals, refined, rep, err := view.searchLists(ctx, parts, sel, args.Query, args.K, opt, &bound)
	if err != nil {
		return err
	}
	reply.Items = mergeDedup(args.K, locals)
	reply.PartNanos = partNanos(pids, rep)
	reply.Partitions = pids
	reply.PartItems = make(map[int][]topk.Item, len(pids))
	reply.PartRefined = make(map[int]int64, len(pids))
	for si, pid := range pids {
		reply.PartItems[pid] = locals[si]
		reply.PartRefined[pid] = refined[si]
	}
	return nil
}

// Bound answers the probe budget's pruning test for the selected
// partitions: each partition's admissible lower bound on the best
// distance it could contribute, from a bounded best-first walk.
func (w *Worker) Bound(args *BoundArgs, reply *BoundReply) error {
	if err := checkVersion(args.Version); err != nil {
		return err
	}
	ctx, stop := w.queryContext(args.QueryHeader)
	defer stop()
	view, pids, err := w.view(args.Partitions)
	if err != nil {
		return err
	}
	opt := QueryOptions{NoPivots: args.NoPivots, MinGens: args.MinGens, Refine: args.Refine}
	parts := view.parts()
	reply.Bounds = make(map[int]float64, len(pids))
	for si, pid := range pids {
		b, err := boundOne(ctx, pid, parts[si], args.Query, opt)
		if err != nil {
			return err
		}
		reply.Bounds[pid] = b
	}
	return nil
}

// SearchRadius answers the range query over the selected partitions
// this worker owns.
func (w *Worker) SearchRadius(args *RadiusArgs, reply *RadiusReply) error {
	if err := checkVersion(args.Version); err != nil {
		return err
	}
	ctx, stop := w.queryContext(args.QueryHeader)
	defer stop()
	view, pids, err := w.view(args.Partitions)
	if err != nil {
		return err
	}
	items, rep, err := view.SearchRadius(ctx, args.Query, args.Radius, QueryOptions{NoPivots: args.NoPivots, RefineWorkers: args.RefineWorkers, MinGens: args.MinGens, Refine: args.Refine})
	if err != nil {
		return err
	}
	reply.Items = items
	reply.PartNanos = partNanos(pids, rep)
	reply.Partitions = pids
	return nil
}

// SearchBatch answers the whole batch over the selected partitions
// this worker owns, one merged local top-k per query.
func (w *Worker) SearchBatch(args *SearchBatchArgs, reply *SearchBatchReply) error {
	if err := checkVersion(args.Version); err != nil {
		return err
	}
	ctx, stop := w.queryContext(args.QueryHeader)
	defer stop()
	view, _, err := w.view(args.Partitions)
	if err != nil {
		return err
	}
	items, rep, err := view.SearchBatch(ctx, args.Queries, args.K, QueryOptions{NoPivots: args.NoPivots, RefineWorkers: args.RefineWorkers, MinGens: args.MinGens, Refine: args.Refine})
	if err != nil {
		return err
	}
	reply.Items = items
	reply.PerQueryNanos = make([]int64, len(rep.PerQuery))
	for i, d := range rep.PerQuery {
		reply.PerQueryNanos[i] = d.Nanoseconds()
	}
	reply.TotalWorkNanos = rep.TotalWork.Nanoseconds()
	return nil
}

// ownedMutable resolves one owned partition's index as mutable.
func (w *Worker) ownedMutable(pid int) (*rptrie.Index, error) {
	w.mu.Lock()
	idx := w.indexes[pid]
	w.mu.Unlock()
	if idx == nil {
		return nil, fmt.Errorf("cluster: worker "+notOwnerMsg+" %d", pid)
	}
	m, ok := idx.(*rptrie.Index)
	if !ok {
		return nil, fmt.Errorf("%w (partition %d, %T)", ErrImmutable, pid, idx)
	}
	return m, nil
}

// Insert applies pending inserts (or, with Replace, upserts) to one
// owned partition.
func (w *Worker) Insert(args *InsertArgs, reply *InsertReply) error {
	if err := checkVersion(args.Version); err != nil {
		return err
	}
	m, err := w.ownedMutable(args.PartitionID)
	if err != nil {
		return err
	}
	if args.Replace {
		err = m.Upsert(args.Trajectories...)
	} else {
		err = m.Insert(args.Trajectories...)
	}
	if err != nil {
		return err
	}
	if err := maybeCompact(m, args.AutoCompact); err != nil {
		return err
	}
	reply.Gen = m.Generation()
	reply.Len = m.Len()
	return nil
}

// Delete removes ids from one owned partition.
func (w *Worker) Delete(args *DeleteArgs, reply *DeleteReply) error {
	if err := checkVersion(args.Version); err != nil {
		return err
	}
	m, err := w.ownedMutable(args.PartitionID)
	if err != nil {
		return err
	}
	reply.Removed = m.Delete(args.IDs...)
	if err := maybeCompact(m, args.AutoCompact); err != nil {
		return err
	}
	reply.Gen = m.Generation()
	reply.Len = m.Len()
	return nil
}

// Compact folds the pending deltas of the selected owned partitions.
func (w *Worker) Compact(args *CompactArgs, reply *CompactReply) error {
	if err := checkVersion(args.Version); err != nil {
		return err
	}
	w.mu.Lock()
	var pids []int
	if len(args.Partitions) == 0 {
		for pid := range w.indexes {
			pids = append(pids, pid)
		}
	} else {
		for _, pid := range args.Partitions {
			if _, ok := w.indexes[pid]; ok {
				pids = append(pids, pid)
			}
		}
	}
	w.mu.Unlock()
	sort.Ints(pids)
	reply.Gens = make(map[int]uint64, len(pids))
	for _, pid := range pids {
		m, err := w.ownedMutable(pid)
		if err != nil {
			return err
		}
		if err := m.Compact(); err != nil {
			return err
		}
		reply.Gens[pid] = m.Generation()
	}
	return nil
}

// Clear drops all partitions.
func (w *Worker) Clear(args *ClearArgs, _ *struct{}) error {
	if err := checkVersion(args.Version); err != nil {
		return err
	}
	w.mu.Lock()
	dropped := w.indexes
	w.indexes = make(map[int]LocalIndex)
	w.mu.Unlock()
	// Wipe dropped stores so a restart does not resurrect them.
	for _, idx := range dropped {
		destroyDurable(idx)
	}
	return nil
}

// Ping checks liveness.
func (w *Worker) Ping(_ *struct{}, ok *bool) error {
	*ok = true
	return nil
}

// Status reports the partitions this worker holds, with each one's
// generation and live length — the reconciliation input for a driver
// deciding whether a rejoining worker needs a state restore.
func (w *Worker) Status(args *StatusArgs, reply *StatusReply) error {
	if err := checkVersion(args.Version); err != nil {
		return err
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	reply.Gens = make(map[int]uint64, len(w.indexes))
	reply.Lens = make(map[int]int, len(w.indexes))
	for pid, idx := range w.indexes {
		gen := uint64(0)
		if m, ok := idx.(*rptrie.Index); ok {
			gen = m.Generation()
		}
		reply.Gens[pid] = gen
		reply.Lens[pid] = idx.Len()
	}
	return nil
}

// Snapshot serializes one owned partition's index (rptrie layouts
// only; the baselines have no persistence) for replication to a
// recovering peer. The image folds any pending delta and carries this
// replica's generation, so the restored copy re-aligns exactly.
func (w *Worker) Snapshot(args *SnapshotArgs, reply *SnapshotReply) error {
	if err := checkVersion(args.Version); err != nil {
		return err
	}
	w.mu.Lock()
	idx := w.indexes[args.PartitionID]
	w.mu.Unlock()
	if idx == nil {
		return fmt.Errorf("cluster: worker "+notOwnerMsg+" %d", args.PartitionID)
	}
	data, layout, gen, err := encodeIndex(idx)
	if err != nil {
		if errors.Is(err, errNoSnapshot) {
			return fmt.Errorf("cluster: partition %d index (%T) does not support snapshots", args.PartitionID, idx)
		}
		return err
	}
	reply.Data, reply.Layout, reply.Gen = data, layout, gen
	reply.Len = idx.Len()
	return nil
}

// errNoSnapshot reports an index type without a serialized form.
var errNoSnapshot = errors.New("cluster: index does not support snapshots")

// encodeIndex serializes an rptrie-layout index (pending delta folded
// in) with its layout and generation — the payload of Snapshot and
// the first half of a clone.
func encodeIndex(idx LocalIndex) ([]byte, rptrie.Layout, uint64, error) {
	ri, ok := idx.(*rptrie.Index)
	if !ok {
		return nil, 0, 0, fmt.Errorf("%w (%T)", errNoSnapshot, idx)
	}
	var buf bytes.Buffer
	if err := ri.Save(&buf); err != nil {
		return nil, 0, 0, err
	}
	return buf.Bytes(), ri.Layout(), ri.Generation(), nil
}

// cloneLocalIndex deep-copies an index through a Save/Read round trip,
// preserving layout and generation. A durable source clones to an
// in-memory index; the caller decides whether the clone gets its own
// store.
func cloneLocalIndex(idx LocalIndex) (*rptrie.Index, error) {
	data, layout, _, err := encodeIndex(idx)
	if err != nil {
		return nil, err
	}
	return rptrie.Read(layout, bytes.NewReader(data))
}

// Restore installs a partition image produced by Snapshot, replacing
// whatever this worker held for that partition — the rejoin path for
// a restarted or lagging worker.
func (w *Worker) Restore(args *RestoreArgs, reply *RestoreReply) error {
	if err := checkVersion(args.Version); err != nil {
		return err
	}
	ri, err := rptrie.Read(args.Layout, bytes.NewReader(args.Data))
	if err != nil {
		return err
	}
	gen := ri.Generation()
	var idx LocalIndex = ri
	// As in Build: uninstall before wiping, so a failed durable
	// install leaves the partition absent rather than installed with a
	// closed store and a destroyed directory.
	w.mu.Lock()
	old := w.indexes[args.PartitionID]
	delete(w.indexes, args.PartitionID)
	w.mu.Unlock()
	closeDurable(old) // release the store before WrapDurable wipes its directory
	if w.dataDir != "" {
		var err error
		if idx, err = wrapDurablePartition(w.dataDir, args.PartitionID, idx); err != nil {
			return err
		}
	}
	w.mu.Lock()
	w.indexes[args.PartitionID] = idx
	w.awaitRestore = false
	w.restores++
	w.mu.Unlock()
	reply.Gen = gen
	reply.Len = idx.Len()
	return nil
}

// Split installs the MoveIDs half of an owned partition as a new
// partition on this worker: clone the source, delete everything but
// the moved ids from the clone, compact, and install it under the new
// id. The source partition is untouched — the driver prunes it once
// every replica has split, and its merges dedup the overlap window.
// Identical inputs on in-sync replicas produce identical clones at
// identical generations, so the driver can register the new partition
// with every replica immediately eligible.
func (w *Worker) Split(args *SplitArgs, reply *SplitReply) error {
	if err := checkVersion(args.Version); err != nil {
		return err
	}
	w.mu.Lock()
	idx := w.indexes[args.PartitionID]
	_, taken := w.indexes[args.NewPartitionID]
	w.mu.Unlock()
	if idx == nil {
		return fmt.Errorf("cluster: worker "+notOwnerMsg+" %d", args.PartitionID)
	}
	if taken {
		return fmt.Errorf("cluster: split target partition %d already exists", args.NewPartitionID)
	}
	clone, err := cloneLocalIndex(idx)
	if err != nil {
		return err
	}
	keep := make(map[int]bool, len(args.MoveIDs))
	for _, id := range args.MoveIDs {
		keep[id] = true
	}
	var drop []int
	for _, id := range clone.LiveIDs() {
		if !keep[id] {
			drop = append(drop, id)
		}
	}
	sort.Ints(drop) // deterministic across replicas
	if len(drop) > 0 {
		clone.Delete(drop...)
	}
	if err := clone.Compact(); err != nil {
		return err
	}
	var installed LocalIndex = clone
	if w.dataDir != "" {
		if installed, err = wrapDurablePartition(w.dataDir, args.NewPartitionID, clone); err != nil {
			return err
		}
	}
	w.mu.Lock()
	if _, raced := w.indexes[args.NewPartitionID]; raced {
		w.mu.Unlock()
		destroyDurable(installed)
		return fmt.Errorf("cluster: split target partition %d already exists", args.NewPartitionID)
	}
	w.indexes[args.NewPartitionID] = installed
	w.mu.Unlock()
	reply.Gen = clone.Generation()
	reply.Len = installed.Len()
	reply.SizeBytes = installed.SizeBytes()
	return nil
}

// Drop discards an owned partition after its replica migrated away,
// wiping any durable store so a restart does not resurrect it.
// Dropping a partition the worker does not hold is a no-op: the call
// is the best-effort tail of a migration, and repeating it must not
// fail.
func (w *Worker) Drop(args *DropArgs, _ *struct{}) error {
	if err := checkVersion(args.Version); err != nil {
		return err
	}
	w.mu.Lock()
	idx := w.indexes[args.PartitionID]
	delete(w.indexes, args.PartitionID)
	w.mu.Unlock()
	if idx != nil {
		destroyDurable(idx)
	}
	return nil
}

// Serve accepts RPC connections on ln until the listener closes.
// It always returns a non-nil error (from Accept).
func Serve(ln net.Listener, w *Worker) error {
	srv := rpc.NewServer()
	if err := srv.RegisterName("Worker", w); err != nil {
		return err
	}
	for {
		conn, err := ln.Accept()
		if err != nil {
			return err
		}
		go srv.ServeConn(conn)
	}
}

// Remote is the driver side of the multi-process engine. With
// IndexSpec.Replicas > 1 it places each partition on several workers,
// routes every query to one in-sync replica per partition, fails a
// partition over to its next replica when a worker dies mid-call, and
// heals recovering workers in the background (see failover.go).
type Remote struct {
	slots    []*workerSlot
	owners   [][]int // partition → worker slots, primary first
	replicas int

	buildTime time.Duration
	partSizes []int // per-partition index bytes, as reported at build
	// partLen holds each partition's live trajectory count as last
	// reported by a worker (build reply, then every mutation
	// reply). Worker-authoritative numbers rather than driver-side
	// arithmetic: a mutation whose outcome was unknown leaves the
	// count stale only until the next successful mutation on that
	// partition refreshes it.
	partLen []atomic.Int64
	qidSalt uint64 // random high bits distinguishing this driver
	qid     atomic.Uint64
	dir     *directory // online-mutation routing, driver side

	// genMu guards the replica generation table: repGen[pid][j] is the
	// last generation replica j of pid acknowledged (genAbsent when it
	// holds nothing), curGen[pid] the newest acknowledged by anyone.
	// Since partitions can split at runtime it also guards the
	// lengths of owners, repGen, curGen, partLen, and partSizes.
	genMu  sync.Mutex
	repGen [][]uint64
	curGen []uint64

	// rebalMu serializes partition-set changes against mutations:
	// mutateReplicas and Compact hold it shared, Rebalance and
	// SplitPartition hold it exclusively (see rebalance.go). Queries
	// never touch it — reads stay available throughout a migration.
	// Lock order: dir.mu → rebalMu → genMu.
	rebalMu sync.RWMutex
	// loads accumulates per-partition query cost and reward — the
	// rebalancer's hotness signal and the probe budget's score input.
	loads *loadTracker

	foMu sync.Mutex
	fo   FailoverConfig

	closed    atomic.Bool
	probeStop chan struct{}
	probeWG   sync.WaitGroup
}

// BuildRemote dials the worker addresses, verifies the protocol
// handshake, places each partition's spec.Replicas copies on distinct
// workers round-robin (replica j of partition p on worker (p+j) mod
// W), and builds all partition indexes in parallel.
func BuildRemote(spec IndexSpec, parts [][]*geo.Trajectory, addrs []string) (*Remote, error) {
	if len(addrs) == 0 {
		return nil, errors.New("cluster: no worker addresses")
	}
	replicas := spec.Replicas
	if replicas <= 0 {
		replicas = 1
	}
	if replicas > len(addrs) {
		return nil, fmt.Errorf("cluster: replication factor %d needs at least %d workers, have %d", replicas, replicas, len(addrs))
	}
	r := &Remote{
		replicas:  replicas,
		qidSalt:   uint64(rand.Uint32()) << 32,
		probeStop: make(chan struct{}),
	}
	r.fo = FailoverConfig{}.withDefaults(replicas)
	for _, addr := range addrs {
		r.slots = append(r.slots, &workerSlot{addr: addr})
	}
	for _, s := range r.slots {
		c, err := rpc.Dial("tcp", s.addr)
		if err != nil {
			r.Close()
			return nil, fmt.Errorf("cluster: dial %s: %w", s.addr, err)
		}
		s.setClient(c)
		var hr HandshakeReply
		if err := c.Call("Worker.Handshake", &HandshakeArgs{Version: ProtocolVersion}, &hr); err != nil {
			r.Close()
			return nil, fmt.Errorf("cluster: handshake with %s: %w", s.addr, err)
		}
	}
	r.owners = make([][]int, len(parts))
	for pid := range parts {
		for j := 0; j < replicas; j++ {
			r.owners[pid] = append(r.owners[pid], (pid+j)%len(addrs))
		}
	}
	start := time.Now()
	var wg sync.WaitGroup
	errs := make([][]error, len(parts))
	replies := make([][]BuildReply, len(parts))
	for pid, part := range parts {
		errs[pid] = make([]error, replicas)
		replies[pid] = make([]BuildReply, replicas)
		for j, si := range r.owners[pid] {
			wg.Add(1)
			go func(pid, j, si int, part []*geo.Trajectory) {
				defer wg.Done()
				args := &BuildArgs{Version: ProtocolVersion, PartitionID: pid, Spec: spec, Trajectories: part}
				errs[pid][j] = r.slots[si].get().Call("Worker.Build", args, &replies[pid][j])
			}(pid, j, si, part)
		}
	}
	wg.Wait()
	for pid := range errs {
		for j, err := range errs[pid] {
			if err != nil {
				r.Close()
				return nil, fmt.Errorf("cluster: build partition %d replica %d on %s: %w", pid, j, r.slots[r.owners[pid][j]].addr, err)
			}
		}
	}
	r.partLen = make([]atomic.Int64, len(parts))
	r.partSizes = make([]int, len(parts))
	r.repGen = make([][]uint64, len(parts))
	r.curGen = make([]uint64, len(parts))
	for pid := range replies {
		r.partSizes[pid] = replies[pid][0].SizeBytes
		r.partLen[pid].Store(int64(replies[pid][0].Len))
		r.repGen[pid] = make([]uint64, replicas)
	}
	r.buildTime = time.Since(start)
	r.dir = newDirectory(spec, parts)
	r.loads = newLoadTracker(len(parts))
	r.probeWG.Add(1)
	go r.probeLoop()
	return r, nil
}

// header prepares the common query preamble for one broadcast.
func (r *Remote) header(ctx context.Context, partitions []int, minGens []uint64) QueryHeader {
	h := QueryHeader{
		Version:    ProtocolVersion,
		ID:         r.qidSalt | r.qid.Add(1),
		Partitions: partitions,
		MinGens:    minGens,
	}
	if deadline, ok := ctx.Deadline(); ok {
		h.BudgetNanos = int64(time.Until(deadline))
		if h.BudgetNanos == 0 {
			h.BudgetNanos = -1
		}
	}
	return h
}

// ErrClosed reports a query issued after the engine released its
// worker connections.
var ErrClosed = errors.New("cluster: engine closed")

// cancelGrace bounds how long a cancelled query waits for a worker's
// reply after firing Worker.Cancel before abandoning the in-flight
// call. A responsive worker aborts within milliseconds; a hung or
// partitioned one must not block the driver past its deadline.
const cancelGrace = 500 * time.Millisecond

// Search routes the query to one in-sync replica per selected
// partition (failing over as needed) and merges the local top-k
// results; with a probe budget it scans score-ordered partitions
// first and prunes the tail it can prove irrelevant (see
// QueryOptions.ProbeBudget).
func (r *Remote) Search(ctx context.Context, q []geo.Point, k int, opt QueryOptions) ([]topk.Item, QueryReport, error) {
	sel, err := selectPartitions(opt.Partitions, r.NumPartitions())
	if err != nil {
		return nil, QueryReport{}, err
	}
	gens := r.Generations()
	start := time.Now()
	var report QueryReport
	items, err := r.searchBudgeted(ctx, q, k, opt, sel, &report)
	report.finish(start)
	report.Generations = gens
	report.CacheEligible = len(opt.Partitions) == 0 && len(report.SkippedPartitions) == 0
	report.IndexBytes = r.PartitionIndexBytes()
	if err != nil {
		return nil, report, err
	}
	return items, report, nil
}

// searchBudgeted is the Remote half of the probe-budget search; the
// admissibility argument is the same as Local.searchBudgeted's.
func (r *Remote) searchBudgeted(ctx context.Context, q []geo.Point, k int, opt QueryOptions, sel []int, report *QueryReport) ([]topk.Item, error) {
	budget := opt.ProbeBudget
	if budget <= 0 || budget >= len(sel) {
		lists, times, refined, err := r.searchWave(ctx, q, k, opt, sel)
		if err != nil {
			return nil, err
		}
		report.PartitionTimes = times
		items := mergeDedup(k, lists)
		r.loads.recordWave(sel, lists, refined, times, items)
		return items, nil
	}
	order := r.loads.order(sel)
	head, tail := order[:budget], order[budget:]
	lists, times, refined, err := r.searchWave(ctx, q, k, opt, head)
	report.ProbedPartitions = append([]int(nil), head...)
	report.PartitionTimes = times
	if err != nil {
		return nil, err
	}
	items := mergeDedup(k, lists)
	r.loads.recordWave(head, lists, refined, times, items)
	if opt.BestEffort {
		report.SkippedPartitions = append([]int(nil), tail...)
		return items, nil
	}
	dk := math.Inf(1)
	if len(items) >= k {
		dk = items[k-1].Dist
	}
	bounds, err := r.boundWave(ctx, q, opt, tail)
	if err != nil {
		if ctx.Err() != nil || r.closed.Load() {
			return nil, err
		}
		// The bound wave is an optimization, not a correctness step: a
		// partition we could not bound proves nothing either way.
		// Conservatively treat the whole tail as survivors and scan it
		// — zero bounds never prune, the answer stays exact, and a
		// genuinely unreachable partition still fails the query
		// through the search wave itself.
		bounds = make([]float64, len(tail))
	}
	var survivors []int
	for i, pid := range tail {
		if bounds[i] > dk {
			report.PrunedPartitions = append(report.PrunedPartitions, pid)
			continue
		}
		survivors = append(survivors, pid)
	}
	if len(survivors) == 0 {
		return items, nil
	}
	lists2, times2, refined2, err := r.searchWave(ctx, q, k, opt, survivors)
	report.ProbedPartitions = append(report.ProbedPartitions, survivors...)
	report.PartitionTimes = append(report.PartitionTimes, times2...)
	if err != nil {
		return nil, err
	}
	items = mergeDedup(k, append(lists, lists2...))
	r.loads.recordWave(survivors, lists2, refined2, times2, items)
	return items, nil
}

// searchWave scatters one Worker.Search round over pids and returns
// each partition's result list, scan time, and refine count, indexed
// like pids.
func (r *Remote) searchWave(ctx context.Context, q []geo.Point, k int, opt QueryOptions, pids []int) ([][]topk.Item, []time.Duration, []int64, error) {
	replies, err := r.scatter(ctx, pids, opt.MinGens, callSpec{
		method: "Worker.Search",
		makeArgs: func(h QueryHeader, pids []int) any {
			return &SearchArgs{QueryHeader: h, Query: q, K: k, NoPivots: opt.NoPivots, RefineWorkers: opt.RefineWorkers, Refine: opt.Refine}
		},
		newReply: func() any { return new(SearchReply) },
	})
	if err != nil {
		return nil, nil, nil, err
	}
	lists := make([][]topk.Item, len(pids))
	times := make([]time.Duration, len(pids))
	refined := make([]int64, len(pids))
	pos := make(map[int]int, len(pids))
	for i, pid := range pids {
		pos[pid] = i
	}
	for _, pr := range replies {
		rep := pr.reply.(*SearchReply)
		for pid, its := range rep.PartItems {
			if i, ok := pos[pid]; ok {
				lists[i] = its
			}
		}
		for pid, nanos := range rep.PartNanos {
			if i, ok := pos[pid]; ok {
				times[i] = time.Duration(nanos)
			}
		}
		for pid, n := range rep.PartRefined {
			if i, ok := pos[pid]; ok {
				refined[i] = n
			}
		}
	}
	return lists, times, refined, nil
}

// boundWave collects the admissible lower bounds for pids, one
// Worker.Bound round over the same failover scatter as a search. A
// partition the replies do not cover reports 0 (never pruned).
func (r *Remote) boundWave(ctx context.Context, q []geo.Point, opt QueryOptions, pids []int) ([]float64, error) {
	if len(pids) == 0 {
		return nil, nil
	}
	replies, err := r.scatter(ctx, pids, opt.MinGens, callSpec{
		method: "Worker.Bound",
		makeArgs: func(h QueryHeader, _ []int) any {
			return &BoundArgs{QueryHeader: h, Query: q, NoPivots: opt.NoPivots, Refine: opt.Refine}
		},
		newReply: func() any { return new(BoundReply) },
	})
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(pids))
	pos := make(map[int]int, len(pids))
	for i, pid := range pids {
		pos[pid] = i
	}
	for _, pr := range replies {
		for pid, b := range pr.reply.(*BoundReply).Bounds {
			if i, ok := pos[pid]; ok {
				out[i] = b
			}
		}
	}
	return out, nil
}

// Generations implements Engine: a copy of the authoritative
// generation vector (curGen — the newest generation any replica
// acknowledged per partition). Replicas behind it never serve reads,
// so it is a valid answer floor for queries dispatched afterwards.
func (r *Remote) Generations() []uint64 {
	r.genMu.Lock()
	defer r.genMu.Unlock()
	return append([]uint64(nil), r.curGen...)
}

// SearchRadius routes the range query to one in-sync replica per
// selected partition and merges the in-range trajectories, ascending
// by (distance, id).
func (r *Remote) SearchRadius(ctx context.Context, q []geo.Point, radius float64, opt QueryOptions) ([]topk.Item, QueryReport, error) {
	// Radius queries have no probe-budget phase: neutralize the
	// top-k-only fields so they can neither alter execution nor leak
	// into the eligibility accounting below.
	opt.ProbeBudget, opt.BestEffort = 0, false
	sel, err := selectPartitions(opt.Partitions, r.NumPartitions())
	if err != nil {
		return nil, QueryReport{}, err
	}
	gens := r.Generations()
	start := time.Now()
	replies, err := r.scatter(ctx, sel, opt.MinGens, callSpec{
		method: "Worker.SearchRadius",
		makeArgs: func(h QueryHeader, pids []int) any {
			return &RadiusArgs{QueryHeader: h, Query: q, Radius: radius, NoPivots: opt.NoPivots, RefineWorkers: opt.RefineWorkers, Refine: opt.Refine}
		},
		newReply: func() any { return new(RadiusReply) },
	})
	if err != nil {
		return nil, QueryReport{}, err
	}
	var report QueryReport
	var out []topk.Item
	for _, pr := range replies {
		rep := pr.reply.(*RadiusReply)
		out = append(out, rep.Items...)
		for _, nanos := range rep.PartNanos {
			report.PartitionTimes = append(report.PartitionTimes, time.Duration(nanos))
		}
	}
	report.finish(start)
	report.Generations = gens
	report.CacheEligible = len(opt.Partitions) == 0 && len(report.SkippedPartitions) == 0
	report.IndexBytes = r.PartitionIndexBytes()
	topk.SortItems(out)
	return dedupItems(out), report, nil
}

// SearchBatch routes the whole batch to one in-sync replica per
// selected partition and merges the per-query local top-k lists.
func (r *Remote) SearchBatch(ctx context.Context, qs [][]geo.Point, k int, opt QueryOptions) ([][]topk.Item, BatchReport, error) {
	report := BatchReport{PerQuery: make([]time.Duration, len(qs))}
	if len(qs) == 0 {
		return nil, report, nil
	}
	sel, err := selectPartitions(opt.Partitions, r.NumPartitions())
	if err != nil {
		return nil, report, err
	}
	start := time.Now()
	replies, err := r.scatter(ctx, sel, opt.MinGens, callSpec{
		method: "Worker.SearchBatch",
		makeArgs: func(h QueryHeader, pids []int) any {
			return &SearchBatchArgs{QueryHeader: h, Queries: qs, K: k, NoPivots: opt.NoPivots, RefineWorkers: opt.RefineWorkers, Refine: opt.Refine}
		},
		newReply: func() any { return new(SearchBatchReply) },
	})
	if err != nil {
		return nil, report, err
	}
	out := make([][]topk.Item, len(qs))
	for qi := range qs {
		var lists [][]topk.Item
		for _, pr := range replies {
			rep := pr.reply.(*SearchBatchReply)
			if qi < len(rep.Items) {
				lists = append(lists, rep.Items[qi])
			}
			if qi < len(rep.PerQueryNanos) {
				if d := time.Duration(rep.PerQueryNanos[qi]); d > report.PerQuery[qi] {
					report.PerQuery[qi] = d
				}
			}
		}
		out[qi] = mergeDedup(k, lists)
	}
	for _, pr := range replies {
		report.TotalWork += time.Duration(pr.reply.(*SearchBatchReply).TotalWorkNanos)
	}
	report.Makespan = time.Since(start)
	return out, report, nil
}

// BuildTime returns the wall time of the distributed build.
func (r *Remote) BuildTime() time.Duration { return r.buildTime }

// Len returns the total number of indexed trajectories.
func (r *Remote) Len() int {
	r.genMu.Lock()
	defer r.genMu.Unlock()
	n := int64(0)
	for i := range r.partLen {
		n += r.partLen[i].Load()
	}
	return int(n)
}

// IndexSizeBytes sums the reported index footprints, one replica per
// partition — the logical index size. Physical cluster memory is
// replicas times this.
func (r *Remote) IndexSizeBytes() int {
	sz := 0
	for _, b := range r.PartitionIndexBytes() {
		sz += b
	}
	return sz
}

// PartitionIndexBytes reports each partition's index footprint as
// declared by its primary replica at build (or split) time, indexed
// by partition id. Online mutations are not reflected until a
// rebuild.
func (r *Remote) PartitionIndexBytes() []int {
	r.genMu.Lock()
	defer r.genMu.Unlock()
	return append([]int(nil), r.partSizes...)
}

// NumPartitions returns the partition count (splits grow it).
func (r *Remote) NumPartitions() int {
	r.genMu.Lock()
	defer r.genMu.Unlock()
	return len(r.owners)
}

// LoadStats reports the per-partition load profile the driver has
// accumulated — query counts, refine ops, p99 scan latency, and the
// learned reward-per-probe score the probe budget orders by.
func (r *Remote) LoadStats() []PartitionLoad {
	if r.loads == nil {
		return nil
	}
	return r.loads.snapshot()
}

// Replicas returns the replication factor partitions were placed with.
func (r *Remote) Replicas() int { return r.replicas }

// Close stops the background prober and releases all worker
// connections (the workers keep running). Safe to call concurrently
// with in-flight queries, which fail fast once the clients are gone.
func (r *Remote) Close() error {
	if r.closed.Swap(true) {
		return nil
	}
	close(r.probeStop)
	r.probeWG.Wait()
	var first error
	for _, s := range r.slots {
		s.mu.Lock()
		c := s.client
		s.client = nil
		s.mu.Unlock()
		if c != nil {
			if err := c.Close(); err != nil && first == nil {
				first = err
			}
		}
	}
	return first
}
