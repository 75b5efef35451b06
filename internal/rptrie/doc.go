// Package rptrie implements the Reference Point Trie (RP-Trie), the
// core index of REPOSE (Sections III and IV of the paper).
//
// Trajectories are discretized into reference trajectories (z-value
// sequences) on a grid; the trie indexes those sequences. Leaves
// record the ids of all trajectories sharing a reference trajectory,
// the maximum distance Dmax from the reference trajectory to those
// trajectories, and per-pivot distance ranges HR. Top-k queries
// traverse the trie best-first (Algorithm 2), pruning with the
// one-side bound LBo (Section IV-B), the two-side bound LBt
// (Section IV-C), and the pivot bound LBp (Section IV-D); the bound
// computations themselves live in repose/internal/dist (LBo/LBt) and
// repose/internal/pivot (LBp).
//
// Two structural optimizations are provided: z-value re-arrangement
// for order-independent measures via the greedy hitting-set
// construction (Section III-C, Appendix B) and a compressed layout in
// place of the paper's two-tier bitmap layout (Section III-B). Tries
// persist via Save/Read so a restarted worker skips the construction
// cost; range search (SearchRadius) is provided as an extension beyond
// the paper.
//
// # One handle, two cores
//
// Index is the one partition-index handle. It holds an atomically
// swapped immutable state whose core is the pointer trie (Build) or
// its trit-array encoding (CompressTST); Layout names which.
// BuildLayout builds either and Read loads a saved image of either.
// Both cores present their nodes to the searchers through one
// interface (searchNode), so the best-first top-k search, the bound
// walk and the depth-first radius walk are each written once, and so
// are Insert, Delete, Upsert and Compact. Durability is an option of
// the same handle: BuildDurable, WrapDurable and OpenDurable attach a
// write-ahead log (durable.go) that every mutation journals to before
// it is acknowledged.
//
// The paper's two-tier layout (rank-addressable bitmaps for the dense
// upper levels, lazily decoded byte sequences for the sparse lower
// ones) shipped here as the succinct layout until the compressed
// layout beat it on memory (4.3× smaller), allocations (0 against 927
// per search) and features (radius search); only its top-k was
// faster, by about 20%, and the pointer layout is faster still. It is
// retired. Its Layout value 1 stays reserved, and its images —
// snapshots and durable checkpoints — still load: the core of either
// layout is a deterministic function of (config, trajectories), so
// Read decodes only those and rebuilds the image as compressed at the
// same generation.
//
// # The compressed trit-array layout (tSTAT)
//
// CompressTST produces the maximally compact layout after the
// succinct trit-array trie of Kanda et al., "Succinct Trit-array Trie
// for Scalable Trajectory Similarity Search" (arXiv 2005.10917),
// adapted to the RP-Trie, as a second core of the same Index. Nodes
// are BFS-numbered; structure is two bitvector planes (a trit per node
// classifying it pure leaf / terminal-with-children / plain internal)
// plus a degree-unary LOUDS vector, all answered by O(1) rank/select
// over repose/internal/bits. Edge z-values are coded
// as bit-packed indices into a sorted alphabet of the distinct
// z-values actually present, and per-leaf metadata lives in shared
// flat arrays. Per-node pivot distance ranges are quantized to 16
// buckets per pivot (one nibble per bound): the min rounds down and
// the max rounds up to bucket boundaries, so the stored interval only
// ever widens, LBp remains admissible, and top-k/radius results stay
// bit-identical to the pointer layout — the quantization trades a
// little pruning power, never correctness. The layout supports the
// full surface (top-k, radius, delta-overlay mutations, Compact) and
// keeps the delta-empty hot path allocation-free.
//
// Its Save image deliberately omits the encoded core: the core is a
// pure, deterministic function of (config, trajectories) — the same
// derivation Compact runs — so ReadCompressed rebuilds it from the
// trajectory payload and cross-checks the recorded node/leaf counts.
// Snapshot transfers therefore ship little more than delta-coded
// coordinates, which is what makes failover heals of compressed
// partitions cheap (see BENCH_memory.json at the repo root).
//
// # Query hot path
//
// Every query draws a recycled working set (the scratch) from a
// per-index sync.Pool: the memoized query→cell distance table and
// bound-state arena (dist.QueryBounds), the DP rows of the exact
// kernels (dist.Scratch), the best-first priority queue, and the
// top-k heap. In steady state — once the pool has warmed to the
// workload's high-water sizes — a top-k query on the pointer layout
// performs no heap allocations (BenchmarkSearch/trie reports
// 0 allocs/op).
//
// # Parallel leaf refinement and the atomic threshold
//
// SearchOptions.RefineWorkers fans a fat leaf's exact-distance
// computations over a worker group. Workers share the current
// pruning threshold through an atomic float64 (a topk.Bound) and
// serialize result-heap pushes behind a mutex, so a worker may read a
// *stale* threshold — one that a concurrent push has since tightened.
// That is admissible: the threshold only ever decreases, so a stale
// value is only ever too large, and DistanceBounded with a larger
// cutoff abandons less eagerly — it returns the exact distance for
// every candidate the fresh threshold would have kept, and for
// candidates it need not have computed the push simply rejects them.
// The final top-k set is determined by the exact (distance, id) order
// alone, which is why the parallel path returns bit-identical results
// to the sequential one (TestParallelRefineParity).
//
// # The cross-partition bound
//
// The same atomic carries one bound across all the partition scans of
// a query. The paper's collect step (Section V-C) has every partition
// prove its own local top-k and leaves the merge to the master; on an
// 8-way split a local 10th distance is roughly the global 80th, so
// most of that refinement is thrown away by the merge. Instead, the
// engine hands every scan of one query the same SearchOptions.Shared.
// Each scan offers its k-th distance once its heap is full, keeping
// the minimum, and prunes and early-abandons at the tighter of its own
// k-th distance and the shared value. Without Shared, a scan runs on a
// private bound in its scratch, which is the parallel workers'
// threshold. Three arguments keep the merged answer exact:
//
//   - The shared value is an upper bound on the global k-th distance.
//     A full heap holds k items with distinct ids, so its k-th distance
//     is at least the k-th distance of the merged, deduplicated answer.
//     This holds even inside a split's install→prune window, when one
//     trajectory lives in two partitions: the duplicates are in
//     different heaps, and each heap alone has k distinct ids.
//   - It is stored as math.Nextafter(dk, +Inf), the next float above
//     dk. The existing tests of the form lb ≥ threshold then prune only
//     entries strictly above dk, and a kernel cut off at it returns the
//     exact distance of a candidate at exactly dk. A trajectory in
//     another partition that ties the k-th item at dk survives, and the
//     merge picks the lower id as the oracle does
//     (TestCrossPartitionTieSurvivesSharedBound).
//   - No +Inf enters a heap that is not yet full. A heap that is not
//     full used to refine with threshold +Inf, so every kernel ran to
//     completion; now the shared value may cut the kernel off, and the
//     abandoned candidate comes back as +Inf. So every candidate at or
//     above the shared value is dropped before the push, full heap or
//     not. It is farther than some scan's k distinct items and cannot
//     place in the answer.
//
// A scan's list then holds every item of its partition that can place
// in the merged top-k, not its full local top-k. Together the scans
// refine no more trajectories than independent scans would
// (TestSharedBoundCutsRefinement). The engine shares one bound across
// a query's partitions within one process: both waves of a probe-
// budget search on the local engine, each query of a batch, and the
// partitions of one worker RPC. It does not cross the wire.
//
// # Online updates: generations, deltas, and compaction
//
// Both cores support Insert, Delete, and Upsert through an
// epoch/generation scheme (dynamic.go). The structural core built at
// construction time is immutable; mutations accumulate in a small
// immutable delta overlay — an append buffer of pending inserts plus
// a tombstone set — and every mutation publishes a whole new state
// (shallow core copy, cloned delta, generation+1) through one atomic
// pointer swap. A query loads the pointer exactly once, so it is
// snapshot-isolated: it observes all of a mutation or none of it,
// with no read-side locking, and the delta-empty read path is
// byte-identical to the static one (BenchmarkSearch/trie stays
// 0 allocs/op). Compact rebuilds the core over the live set — core
// minus tombstones plus pending inserts — re-running the ordinary
// build (including z-value re-arrangement), and swaps the compacted
// state in as the next generation; SearchOptions.MinGen lets a caller
// pin a query to a generation floor (ErrStale below it), which the
// cluster layer uses for read-your-writes.
//
// # Refined query modes and segment admissibility
//
// SearchOptions.Refiner swaps the leaf-refinement strategy while the
// traversal machinery stays put. A nil Refiner is the built-in exact
// whole-trajectory distance (the allocation-free default, pinned by
// BenchmarkSearch/refiner); NewRefiner builds the two refined modes:
// subtrajectory search (RefineSpec.Sub — score each candidate's
// best-matching contiguous segment, dist.SubDistance) and
// time-windowed search (RefineSpec.Window — candidates must have a
// sample timestamped inside [From, To], and only the in-window run is
// scored; both compose). Matched segments come back as [Start, End)
// on topk.Item.
//
// A segment-scoring refiner invalidates two of the three stored
// bounds. LBt folds the leaf's Dmax — the distance from the reference
// trajectory to the whole candidate — into a triangle-style bound,
// and LBp compares whole-trajectory pivot distances; a segment of the
// candidate satisfies neither inequality, so both are dropped
// (Refiner.Subsequence reports this and the searcher also skips
// computing query–pivot distances entirely). What remains admissible
// is the query-side half of LBo, exposed as dist.PathBounder.LBoSub:
// terms aggregating min-distances from query points to the
// trajectory's grid cells survive segment restriction for measures
// whose definition quantifies over every query point —
//
//   - Hausdorff, Frechet: max over query points of the cell min
//     distance (every query point must still be matched by any
//     segment) — complete reference paths only;
//   - DTW: the sum of those minima (every query point appears in any
//     warping path);
//   - LCSS: 1 when no query point can match within Epsilon (then no
//     segment can either); otherwise 0;
//   - EDR: m − MaxLen when positive (alignment needs at least
//     m − |segment| ≥ m − |trajectory| edits — valid even on
//     incomplete paths), plus the count of query points matchable by
//     no cell;
//   - ERP: the sum over query points of min(cell min distance, gap
//     distance) — each query point is either matched or gapped.
//
// Candidate-side terms (cells the *trajectory* must visit) are all
// dropped: a segment may omit any prefix or suffix of the reference
// path. For measures/nodes where every surviving term degenerates to
// zero (e.g. LCSS with any matchable query point, or any incomplete
// reference path under Hausdorff/Frechet/DTW/ERP), LBoSub returns 0
// and the traversal decays to bound-free leaf enumeration — every
// leaf is refined exactly, so answers remain oracle-exact, just
// without pruning. The admissibility of LBoSub is property-tested
// against the brute-force best segment in internal/dist, and the
// refined modes are differential-tested against internal/oracle for
// all measures, both layouts, and mid-mutation interleavings
// (refine_differential_test.go). The time-window clip is itself a
// contiguous segment, so the same argument covers windowed scoring,
// and trajectories without timestamps never match a windowed query.
//
// The bounds stay admissible under mutation without being touched:
// deleting a member only loosens a leaf's precomputed Dmax/HR/length
// bounds (they still lower-bound every remaining member, tombstones
// are simply skipped at refinement), and pending inserts are never
// covered by any stored bound — they are answered by an exact linear
// scan of the append buffer, run before the best-first loop so the
// threshold it establishes tightens trie pruning rather than
// weakening it. Correctness across random mutation interleavings is
// pinned to the brute-force oracle for all six measures and both
// layouts in differential_test.go.
package rptrie
