// Package storage is the paged, durable backing store behind a
// partition's RP-Trie: a disk manager over fixed-size pages, a
// buffer-pool manager with pinned frames and LRU-K eviction, and a
// write-ahead log with sequenced CRC-framed records, group commit,
// and a replay iterator. A durable rptrie.Index (BuildDurable,
// WrapDurable, OpenDurable) holds one Store as its write-ahead log and
// layers the trie's epoch/generation scheme on top (see
// rptrie/durable.go); this package knows nothing about trajectories —
// it stores checkpoint images and replays opaque log records.
//
// # On-disk layout
//
// A Store owns one directory with two files:
//
//	pages.db — page 0 and page 1 are the two meta slots; data pages
//	           follow. Every data page carries a 24-byte header
//	           (magic, format version, type, next-page link, payload
//	           length, payload CRC); a checkpoint image is chunked
//	           into a singly linked chain of such pages.
//	wal.log  — a CRC'd header followed by append-only records
//	           [LSN | type | length | CRC | payload].
//
// # The WAL-before-acknowledge invariant
//
// A mutation is acknowledged to the caller only after its log record
// is fsynced (Append then Sync; concurrent committers share one
// fsync — group commit). The in-memory index may briefly run ahead
// of the durable log between apply and sync, but the caller has not
// been told the mutation succeeded yet, and a crash in that window
// destroys the memory state anyway — so every *acknowledged*
// mutation is always recoverable, and an unacknowledged one is
// either recovered whole (its record made it to disk) or dropped
// whole (it did not). Records are applied atomically: a torn tail
// record fails its CRC and replay treats it as end-of-log.
//
// # The copy-on-write checkpoint invariant
//
// Checkpoint pages are never written in place. A new checkpoint
// image is chunked onto pages drawn from the free set — pages
// referenced by neither valid meta slot — flushed through the buffer
// pool, and fsynced; only then is the older meta slot overwritten
// (with an incremented epoch, a pointer to the new chain, and a CRC)
// and fsynced. A crash at any point leaves at least one valid meta
// slot whose entire chain is intact: before the meta write the old
// slot still rules, after it the new one does, and a torn meta write
// fails its CRC so recovery falls back to the surviving slot. The
// WAL is truncated only after the meta slot that obsoletes its
// records is durable, so a crash during truncation merely leaves
// records whose generations the checkpoint already covers (replay
// skips them by generation).
//
// # Recovery ≡ generation
//
// Recovery loads the newest valid meta slot's checkpoint image
// (generation G) and replays every well-formed log record whose
// resulting generation exceeds G, in LSN order, stopping at the
// first torn or corrupt record. Because mutations are serialized by
// the owning index's writer lock, record order equals apply order;
// because each record captures one whole mutation batch and replay
// re-applies it through the exact same (deterministic) staging code,
// the recovered index is bit-identical to the pre-crash index at
// whatever generation the durable log prefix reaches — never a
// half-applied state. The crash-point differential harness in
// rptrie/durable_crash_test.go checks exactly this claim against
// internal/oracle for every reachable IO cut point.
package storage
