// Package cluster implements REPOSE's distributed in-memory engine
// (Section V-C). The paper runs on Spark: a custom Partitioner
// spreads trajectories, mapPartitions builds one local index per
// partition (the RpTraj pairing of data and index), queries broadcast
// to all partitions, and the master merges local top-k results.
//
// This package reproduces that dataflow with two interchangeable
// transports behind one Engine interface: an in-process engine that
// runs partitions on goroutines (Local), and a multi-process engine
// that ships partitions to worker processes over net/rpc + gob
// (Remote) for multi-node simulation on one machine. Every query
// method takes a context — deadlines and cancellations stop partition
// scans mid-flight on either transport; the wire protocol carries
// per-query ids and deadlines so the driver can abort straggler
// workers remotely.
//
// One departure from the paper's dataflow: the partition scans of a
// query that run in one process share a topk.Bound. Each scan
// publishes its k-th distance once its heap is full and prunes at the
// smallest one published, so a partition does not prove a local top-k
// that the merge would discard. The lists stay sufficient for an exact
// merge, ties included; rptrie's doc.go gives the argument. The bound
// spans a query's partitions on the local engine (both probe-budget
// waves included), each query of a batch, and the partitions one
// worker RPC carries; it does not cross the wire.
//
// The paper inherits fault tolerance from Spark's RDD lineage; this
// engine replicates instead (IndexSpec.Replicas): each partition is
// built on several distinct workers, queries are routed to one
// in-sync replica per partition and retried on the next replica when
// a worker fails, and a background prober heals recovering workers by
// streaming partition snapshots from their peers (protocol v4's
// Status/Snapshot/Restore; see failover.go).
//
// Why per-replica generation pins preserve snapshot isolation across
// failover: a partition's generation counter (PR 4's epoch scheme)
// advances identically on every replica because a single driver
// serializes mutations and fans each one out to all in-sync replicas
// in the same order — state is a pure function of the mutation prefix
// applied, and the generation number identifies that prefix. The
// driver records, per replica, the last generation it acknowledged
// (repGen) alongside the partition's authoritative generation
// (curGen); a replica serves reads only while repGen ≥ curGen. A
// query pinned to MinGens[pid] = g therefore cannot observe a
// pre-mutation snapshot on *any* replica the scatter may choose: g
// was acknowledged, so g ≤ curGen ≤ repGen of every eligible replica,
// and within one replica the rptrie layer already guarantees a query
// sees a single atomic snapshot at or above its pin. Failing over a
// partition call to another replica switches between states that are
// bit-identical at the pinned generation, so read-your-writes and
// snapshot isolation survive worker death. A replica that missed a
// mutation (down, timed out, outcome unknown) has repGen < curGen and
// is silently excluded until Worker.Restore installs a peer's image —
// which carries the donor's generation, re-aligning the counters
// exactly. The one case where no acknowledgement exists to anchor
// curGen — a mutation whose outcome was unknown on every replica —
// marks all of them unknown, making the partition unavailable rather
// than divergent, until the prober's reconcile pass asks the workers
// what they actually hold and re-anchors the authoritative generation
// on the highest surviving state.
//
// Why rebalancing preserves those pins: Rebalance and SplitPartition
// hold rebalMu exclusively while mutations hold it shared, so no
// mutation is in flight while ownership moves — the snapshot streamed
// to the new owner carries a generation ≥ curGen, and the eligibility
// rule above (repGen ≥ curGen) admits the new replica for reads only
// because it is at least as new as anything a query could have
// pinned. Queries never take rebalMu at all: a scatter that races the
// flip either reaches the donor before the drop (fine — its state is
// identical at the pinned generation) or gets the worker's typed
// not-owner rejection and retries on the current owner without a
// failover strike. A split installs the new partition on every
// eligible replica and registers it in the directory before pruning
// the moved ids from the donor, so during the overlap window a
// trajectory may be reported by both partitions but can never be
// missed; the driver's merge dedups by id, keeping answers exact.
//
// Why probe budgets stay exact: QueryOptions.ProbeBudget scans the n
// best-scoring partitions first (per-partition EWMA reward-per-cost,
// loadstats.go), then asks each remaining partition for its
// admissible lower bound — the same LBo/LBt bound the trie's
// best-first search orders by, which never exceeds the true distance
// of any trajectory in the partition. A partition whose bound is ≥
// the current k-th result distance therefore cannot contribute to the
// top-k and is pruned; every other partition is scanned in a second
// wave. The answer is bit-identical to the full scatter because only
// provably non-contributing work is skipped. BestEffort drops the
// second wave instead, trading exactness for latency — the report
// lists SkippedPartitions and the answer is marked cache-ineligible.
package cluster
