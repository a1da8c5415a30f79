#ifndef SWST_SWST_SWST_INDEX_H_
#define SWST_SWST_SWST_INDEX_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <shared_mutex>
#include <vector>

#include "btree/btree.h"
#include "common/epoch.h"
#include "common/status.h"
#include "common/types.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "storage/buffer_pool.h"
#include "storage/wal.h"
#include "swst/is_present_memo.h"
#include "swst/live_tier.h"
#include "swst/options.h"
#include "swst/overlap.h"
#include "swst/query_executor.h"
#include "swst/spatial_grid.h"
#include "swst/temporal_key.h"

namespace swst {

namespace obs {
class SlowQueryLog;
}  // namespace obs

/// Per-query cost counters, matching the metrics reported in the paper's
/// evaluation (node accesses) plus finer-grained breakdowns. All counters
/// are computed from per-query locals, so they are exact even when many
/// queries (or a query's own cell tasks) run concurrently.
struct QueryStats {
  uint64_t node_accesses = 0;     ///< B+ tree page fetches for this query.
  uint64_t spatial_cells = 0;     ///< Overlapping spatial grid cells.
  uint64_t columns = 0;           ///< Overlapping s-partition columns.
  uint64_t key_ranges = 0;        ///< Key ranges searched in B+ trees.
  uint64_t candidates = 0;        ///< Records produced by the tree search.
  uint64_t full_cell_accepts = 0; ///< Accepted with no refinement check.
  uint64_t refined_out = 0;       ///< False positives removed by refinement.
  uint64_t memo_pruned_columns = 0;  ///< Columns skipped entirely by memo.
  /// Overlapping cells the memo pruned wholesale: every active column of
  /// the cell was trimmed to nothing, so no key range was searched there.
  uint64_t cells_pruned = 0;
  /// Overlapping cells where at least one key range was actually searched.
  /// `cells_pruned + cells_visited <= spatial_cells` (cells with no live
  /// tree for any active column count in neither).
  uint64_t cells_visited = 0;
  /// Candidates that went through the refinement predicate (i.e. were not
  /// fast-accepted by the full-overlap rule): `refined_out` of them were
  /// rejected, the rest emitted.
  uint64_t candidates_refined = 0;
  /// Live-tier (memory-resident current entries) records scanned. Not
  /// included in `candidates`, which counts disk-tier tree records only.
  uint64_t live_candidates = 0;
  /// Results emitted from the live tier (subset of `results`).
  uint64_t live_results = 0;
  /// Overlapping cells answered *entirely* from the live tier: the
  /// snapshot's closed-end watermark proved no disk-tier entry can match,
  /// so the whole B+ search (memo, key ranges, page fetches) was skipped.
  /// Such cells count in neither `cells_visited` nor `cells_pruned`.
  uint64_t live_only_cells = 0;
  uint64_t results = 0;  ///< Entries emitted to the caller.

  /// Accumulates another query's (or cell task's) counters.
  QueryStats& operator+=(const QueryStats& o) {
    node_accesses += o.node_accesses;
    spatial_cells += o.spatial_cells;
    columns += o.columns;
    key_ranges += o.key_ranges;
    candidates += o.candidates;
    full_cell_accepts += o.full_cell_accepts;
    refined_out += o.refined_out;
    memo_pruned_columns += o.memo_pruned_columns;
    cells_pruned += o.cells_pruned;
    cells_visited += o.cells_visited;
    candidates_refined += o.candidates_refined;
    live_candidates += o.live_candidates;
    live_results += o.live_results;
    live_only_cells += o.live_only_cells;
    results += o.results;
    return *this;
  }
};

/// \name WAL payload layouts
/// The logical records `SwstIndex` appends to its `Wal` (see
/// `WalRecordType` in storage/wal.h). `kInsert` and `kDelete` carry a raw
/// `Entry`; the composite operations use these packed PODs. All layouts
/// are fixed-width little-endian memcpys — replay rejects any record whose
/// payload length does not match its type exactly.
/// @{
struct WalClosePayload {
  Entry current;    ///< The still-open entry being closed.
  Duration actual;  ///< Its actual duration.
};
struct WalAdvancePayload {
  Timestamp t;  ///< Clock value passed to `Advance`.
};
/// @}

/// Per-query options.
struct QueryOptions {
  /// Logical sliding window W' <= W (paper §III-A): restricts the queriable
  /// period to the most recent W' time units. 0 means the physical window.
  Timestamp logical_window = 0;

  /// Variable per-entry retention (paper §IV-B.d): entries may carry
  /// retention times shorter than the physical window. When set, this
  /// predicate runs in the refinement step with the entry and the current
  /// clock; returning false excludes an entry that has expired under its
  /// own retention. Full-overlap fast-accepts are disabled for such
  /// queries so every candidate is checked — exactly the modification the
  /// paper describes. Window drops are unchanged.
  std::function<bool(const Entry& entry, Timestamp now)> retention_filter;

  /// Per-query tracing: when non-null, the query records a span tree
  /// (plan / per-cell search / BFS levels / refinement / merge wait) into
  /// this trace — see docs/observability.md for the schema. Null (the
  /// default) keeps the query on the untraced path; the only cost is one
  /// pointer test per stage. `SwstIndex::Explain` packages query + render.
  obs::QueryTrace* trace = nullptr;
};

/// \brief The SWST index: sliding-window spatio-temporal index (the paper's
/// primary contribution).
///
/// Two layers: a uniform spatial grid, and per spatial cell two B+ trees
/// keyed by `KEY(s, d, x, y)` covering the two most recent epochs of start
/// timestamps. Window maintenance is a wholesale drop of the expired tree
/// (plus a memo slot reset) — no per-entry deletion.
///
/// ### Concurrency
///
/// All per-cell state (tree directory, isPresent memo) is split into
/// *shards* — contiguous ranges of spatial cells — and reads are MVCC:
///  - Every mutation runs under the target shard's writer lock, rewrites
///    the affected B+ tree pages copy-on-write, and *publishes* a new
///    immutable `ShardSnapshot` (directory slice + version + clock) via an
///    atomic pointer swap. Superseded snapshots and superseded tree pages
///    are retired through epoch-based reclamation.
///  - Queries acquire **no mutex at all**: each cell search pins an epoch
///    (`EpochManager::Guard`, one CAS), loads the shard's current snapshot
///    pointer, and runs entirely against that frozen directory; isPresent
///    memo reads are wait-free seqlock copies validated against the
///    snapshot's version. Queries never block behind `CloseCurrent`,
///    `Advance`, or `Save` — and never make a writer wait.
///  - `Advance` sweeps shards independently, each under its own writer
///    lock, publishing per shard;
///  - `Save` acquires every shard lock (in ascending shard order) to write
///    a consistent checkpoint; readers are unaffected.
/// Each query therefore sees every individual cell atomically (a whole
/// `CloseCurrent` is one publish: no torn "both ND and closed" views), but
/// not an atomic snapshot across cells while writers are active — the
/// natural semantics of a streaming window. Results and their order are
/// identical for any `query_threads` / `shard_count` setting. See
/// docs/concurrency.md for the full protocol and lock hierarchy.
///
/// ### Streaming usage
///
/// Positions arrive in non-decreasing start-timestamp order. A position
/// report with no known end time is inserted as a *current* entry; when the
/// object's next report arrives, the previous entry is closed (deleted and
/// re-inserted with its actual duration) — the paper's "two insertions and
/// one deletion" per update. `ReportPosition` packages that protocol;
/// `Insert` / `Delete` are the raw operations (SWST, unlike MV3R, has no
/// partial-persistency restriction: any valid entry may be deleted or
/// updated).
///
/// ### Queries
///
/// `IntervalQuery` and `TimesliceQuery` evaluate the paper's two query
/// types against the current queriable period [tau', tau], optionally under
/// a logical window W' <= W. All failures surface as `Status`.
class SwstIndex {
 public:
  /// Creates an empty index. `pool` must outlive the index.
  static Result<std::unique_ptr<SwstIndex>> Create(BufferPool* pool,
                                                   const SwstOptions& options);

  /// Re-opens an index previously persisted with `Save` from the pager
  /// behind `pool`. `options` must match the options the index was created
  /// with (they parameterize the key codec and grid; a fingerprint stored
  /// in the metadata is verified — `shard_count` and `query_threads` are
  /// runtime knobs and may differ). The isPresent memo is rebuilt by
  /// scanning the live trees.
  static Result<std::unique_ptr<SwstIndex>> Open(BufferPool* pool,
                                                 const SwstOptions& options,
                                                 PageId meta_page);

  /// Persists the index directory (per-cell tree roots and epochs, the
  /// clock, an options fingerprint) into a chain of pages, returning the
  /// chain head through `meta_page`. Call once after Create (the page id
  /// is stable across subsequent saves); store it in your application's
  /// superblock. Flushes the buffer pool so tree pages are durable too.
  /// Acquires every shard lock, so the checkpoint is consistent even with
  /// concurrent readers and writers.
  ///
  /// With a `SwstOptions::wal` attached, Save is a *checkpoint*: it first
  /// syncs the log, then (under a lock that excludes all in-flight logged
  /// mutations, so every operation is entirely inside or entirely outside
  /// the checkpoint) records the LSN watermark the snapshot covers in the
  /// metadata. `Recover` replays only records past that watermark —
  /// exactly-once redo without any presence checks.
  Status Save(PageId* meta_page);

  /// `Save` plus log truncation: after the checkpoint is durable, deletes
  /// every whole WAL segment the checkpoint made redundant
  /// (`Wal::TruncateBefore`). Without a WAL this is identical to `Save`.
  Status Checkpoint(PageId* meta_page);

  /// Outcome of the redo pass of `Recover`.
  struct RecoverStats {
    uint64_t records_replayed = 0;  ///< Records redone into the index.
    /// Records whose redo was a no-op (e.g. a logged Delete that had
    /// found nothing, replayed to the same NotFound) — skipped, counted.
    uint64_t records_skipped = 0;
    Lsn first_lsn = kInvalidLsn;  ///< First LSN delivered (0 if none).
    Lsn last_lsn = kInvalidLsn;   ///< Last valid LSN in the log (0 if none).
    /// True when the log ended at a torn or corrupt frame (crash cut the
    /// un-synced tail). Everything replayed is still a verified prefix.
    bool torn_tail = false;
    uint64_t segments_scanned = 0;
    uint64_t replay_us = 0;  ///< Wall microseconds of the redo pass.
  };

  /// Crash recovery: opens the index from its last checkpoint (`Open`, or
  /// `Create` when `meta_page` is `kInvalidPageId` — i.e. the crash
  /// happened before the first checkpoint) and redoes the suffix of
  /// `options.wal` past the checkpoint's watermark. Replay is idempotent:
  /// recovering an already-recovered directory redoes nothing, and
  /// crashing *during* recovery loses nothing — the watermark only
  /// advances at the next checkpoint. Requires the data file to reflect
  /// exactly the last checkpoint (see docs/durability.md on the crash
  /// model). With a null `options.wal` this is just Open/Create.
  static Result<std::unique_ptr<SwstIndex>> Recover(
      BufferPool* pool, const SwstOptions& options, PageId meta_page,
      RecoverStats* stats = nullptr);

  SwstIndex(const SwstIndex&) = delete;
  SwstIndex& operator=(const SwstIndex&) = delete;

  /// Unregisters this index's callback metrics from
  /// `SwstOptions::metrics` (if one was attached).
  ~SwstIndex();

  /// Inserts an entry (closed or current): a batch of one, so it takes
  /// exactly the `InsertBatch` path. Advances the index clock to
  /// `entry.start` if it is ahead. Requirements: the position lies in the
  /// spatial domain; a closed duration is in [1, Dmax]; the start timestamp
  /// is inside the current queriable period (not already expired).
  ///
  /// Routing is by entry kind: closed entries go to the cell's on-disk B+
  /// tree; *current* entries go to the shard's memory-resident live tier
  /// and touch zero pages (see docs/swst_internals.md, "Two tiers").
  Status Insert(const Entry& entry);

  /// Inserts a batch of entries with the exact end state a loop of
  /// one-entry batches over `entries` (in order) would produce — the same
  /// tree contents (including duplicate-key order), the same memo
  /// statistics, and the same clock — through the group-insert pipeline:
  /// keys are computed once, entries are grouped by (spatial cell, epoch)
  /// and sorted by key, each group lands in its tree through
  /// `BTree::InsertBatch` (one descent per leaf run), and the memo is
  /// updated once per temporal cell. This is the index's only insert path.
  ///
  /// Validation (domain, then `Accept` against a running clock) runs up
  /// front: if any entry is invalid, its `InvalidArgument` is returned and
  /// *nothing* is inserted or logged, unlike a loop which stops mid-way.
  /// I/O errors can still leave a prefix of the groups applied, exactly
  /// like an aborted loop. Each touched shard is locked exclusively once,
  /// in ascending order. A group whose epoch expired concurrently (its
  /// tree slot already holds a newer epoch) is skipped, never applied over
  /// the newer tree — see docs/write_path.md.
  Status InsertBatch(const Entry* entries, size_t n);
  Status InsertBatch(const std::vector<Entry>& entries);

  /// Deletes a specific entry (matched by oid + start, located via its
  /// key). InvalidArgument if the position is outside the spatial domain;
  /// NotFound if absent or already dropped with an expired tree.
  Status Delete(const Entry& entry);

  /// Closes a previously inserted *current* entry: migrates it from the
  /// in-memory live tier into the cell's closed B+ tree with duration
  /// `actual`, in one atomic publish. If the entry's epoch has already
  /// expired out of the window, this is a no-op; NotFound if the entry is
  /// in a live epoch but was never inserted (or was already closed).
  /// InvalidArgument if the position is outside the spatial domain, or if
  /// `Accept` rejects the closed entry (duration outside [1, Dmax], or
  /// outside the window). The tree insert is the batch pipeline's group
  /// apply with one record.
  Status CloseCurrent(const Entry& current, Duration actual);

  /// Streaming convenience: report that `oid` is at `pos` from time `t`
  /// on. If `previous` is non-null it must be the object's still-open
  /// previous entry; it is closed with duration `t - previous->start`.
  /// Returns the new current entry through `out_current` if non-null.
  /// Runs the `CloseCurrent` body, then the `InsertBatch` body for the new
  /// current entry; with a WAL attached, both are one group commit (one
  /// sync). On failure the same report may simply be retried (see
  /// docs/durability.md).
  Status ReportPosition(ObjectId oid, const Point& pos, Timestamp t,
                        const Entry* previous, Entry* out_current = nullptr);

  /// Advances the index clock to `t` and performs window maintenance:
  /// drops every B+ tree whose epoch is fully expired (paper §IV-C).
  /// Shards are swept independently, each under its own exclusive lock.
  Status Advance(Timestamp t);

  /// Interval query ([x_l,y_l],[x_h,y_h],[t_l,t_h]): entries of the output
  /// relation R(tau) inside `area` whose valid time overlaps `interval`.
  Result<std::vector<Entry>> IntervalQuery(const Rect& area,
                                           const TimeInterval& interval,
                                           const QueryOptions& opts = {},
                                           QueryStats* stats = nullptr);

  /// Timeslice query: entries inside `area` valid at time `t`.
  Result<std::vector<Entry>> TimesliceQuery(const Rect& area, Timestamp t,
                                            const QueryOptions& opts = {},
                                            QueryStats* stats = nullptr);

  /// Streaming interval query: `fn` is invoked for every matching entry
  /// as the search proceeds (no result materialization); returning false
  /// stops the query early. Useful for large results, existence tests,
  /// and aggregations. With `query_threads > 1` cell searches run on the
  /// pool but `fn` is always invoked from the calling thread, in the same
  /// deterministic order as serial execution; early termination raises a
  /// cancellation flag that stops in-flight cell tasks.
  Status IntervalQueryStream(const Rect& area, const TimeInterval& interval,
                             const QueryOptions& opts,
                             const std::function<bool(const Entry&)>& fn,
                             QueryStats* stats = nullptr);

  /// K-nearest-neighbour query over the sliding window (the paper's §VI
  /// future-work extension): the `k` entries closest to `center` whose
  /// valid time overlaps `interval`, searched via expanding grid rings.
  Result<std::vector<Entry>> Knn(const Point& center, size_t k,
                                 const TimeInterval& interval,
                                 const QueryOptions& opts = {},
                                 QueryStats* stats = nullptr);

  /// EXPLAIN: runs the interval query with tracing enabled and returns the
  /// results together with the rendered plan. `text` is the indented
  /// per-stage breakdown (wall time + counters per span), `json` the
  /// machine-readable span tree; per-stage `node_accesses` counters sum to
  /// `stats.node_accesses` exactly. A timeslice query is explained as the
  /// degenerate interval [t, t]. Any `opts.trace` the caller set is used
  /// (and appended to) instead of an internal trace.
  struct ExplainResult {
    std::vector<Entry> results;
    QueryStats stats;
    std::string text;
    std::string json;
  };
  Result<ExplainResult> Explain(const Rect& area, const TimeInterval& interval,
                                const QueryOptions& opts = {});

  /// Current index clock (tau).
  Timestamp now() const { return now_.load(std::memory_order_acquire); }

  /// Queriable period [tau', tau] (paper §III-A), under an optional
  /// logical window.
  TimeInterval QueriablePeriod(Timestamp logical_window = 0) const;

  /// Bytes of in-memory statistical state (isPresent memos + directory).
  size_t StatisticsMemoryUsage() const;

  /// Total live entries across all trees (O(data) walk; tests only).
  Result<uint64_t> CountEntries() const;

  /// Introspection snapshot (O(data) walk over live trees).
  struct DebugStats {
    uint64_t live_trees = 0;       ///< B+ trees currently live (<= 2/cell).
    uint64_t entries = 0;          ///< Live entries (incl. expired-not-yet-dropped).
    uint64_t current_entries = 0;  ///< Entries with unknown duration.
    int max_tree_height = 0;
    uint64_t memo_nonempty_cells = 0;
    size_t memo_bytes = 0;
  };
  Result<DebugStats> GetDebugStats() const;

  /// Validates every live B+ tree's structural invariants (tests only).
  Status ValidateTrees() const;

  /// Full isPresent-memo snapshot, concatenated over shards in shard order
  /// (i.e. global cell order); lets differential tests assert that batched
  /// and serial insertion leave bit-identical statistics.
  std::vector<IsPresentMemo::CellStat> MemoSnapshot() const;

  const SwstOptions& options() const { return options_; }
  const SpatialGrid& grid() const { return grid_; }

  /// Attached write-ahead log (null when none; see `SwstOptions::wal`).
  Wal* wal() const { return wal_; }

  /// Highest LSN whose operation has been applied to the in-memory state
  /// (the redo watermark a checkpoint would store). Tests only.
  Lsn applied_lsn() const {
    return applied_lsn_.load(std::memory_order_acquire);
  }

  /// Number of shards the cell directory is split into (runtime knob).
  uint32_t shard_count() const {
    return static_cast<uint32_t>(shards_.size());
  }

  /// Epoch-reclamation counters (snapshots/pages retired vs reclaimed,
  /// currently pinned guards). Tests use this to assert the retire list
  /// stays bounded and drains at quiescence.
  EpochManager::Stats EpochStats() const { return epoch_.stats(); }

 private:
  /// Live B+ trees of one spatial cell: slot k%2 holds epoch k.
  struct CellTrees {
    PageId root[2] = {kInvalidPageId, kInvalidPageId};
    uint64_t epoch[2] = {0, 0};
  };

  /// Immutable read view of one shard, published by writers via atomic
  /// pointer swap and reclaimed through `epoch_`. Readers resolve every
  /// tree root from `cells` and validate memo reads against `version`;
  /// the copy-on-write tree pages those roots reach are retired *after*
  /// the snapshot that exposed them, so a pinned snapshot transitively
  /// protects its whole tree slice.
  struct ShardSnapshot {
    uint64_t version = 0;          ///< Shard mutation count at publish.
    Timestamp clock = 0;           ///< Index clock at publish.
    std::vector<CellTrees> cells;  ///< Frozen directory slice.
    /// Frozen live-tier buckets (current entries), one per cell; shared
    /// immutable values, so publication costs refcount bumps only. The
    /// live tier and the tree directory of one snapshot are always
    /// mutually consistent: a `CloseCurrent` migration publishes the
    /// live-removal and the tree-insert as one snapshot.
    std::vector<LiveTier::BucketRef> live;
    /// Strict upper bound over the end timestamps (start + duration) of
    /// every closed entry ever inserted into this shard's trees. Queries
    /// with `q.lo >= max_closed_end` cannot match any disk-tier entry
    /// (closed entries match iff end > q.lo), so they skip the B+ search
    /// of every cell outright — the zero-I/O path for now-queries.
    Timestamp max_closed_end = 0;
  };

  /// A contiguous range of spatial cells with all of their mutable state:
  /// the cell-tree directory and the isPresent-memo slice. `mu` is a
  /// *writer-only* lock — it serializes mutations (and the test-only
  /// whole-tree walks); queries never take it, reading through `snap`
  /// instead. Shards never share mutable state, so operations on
  /// different shards proceed fully in parallel.
  struct Shard {
    /// Covers the cells whose rectangles are `cell_rects`, from `begin` on.
    Shard(uint32_t begin, const std::vector<Rect>& cell_rects,
          uint32_t s_partitions, uint32_t d_slots)
        : cell_begin(begin),
          cells(cell_rects.size()),
          memo(cell_rects, s_partitions, d_slots),
          live(static_cast<uint32_t>(cell_rects.size())) {}

    mutable std::shared_mutex mu;
    uint32_t cell_begin;            ///< First global cell index covered.
    std::vector<CellTrees> cells;   ///< Writer state; indexed by
                                    ///< (cell - cell_begin).
    IsPresentMemo memo;             ///< Indexed by (cell - cell_begin).
    /// Hot tier: current entries of this shard, cell-bucketed and
    /// key-sorted in memory. Mutated under `mu`, read through `snap`.
    LiveTier live;
    /// Writer-side watermark behind `ShardSnapshot::max_closed_end`;
    /// guarded by `mu`, max-updated on every closed-entry tree insert.
    Timestamp max_closed_end = 0;
    /// Current published snapshot (never null after construction); swapped
    /// with seq_cst by `PublishShard`, loaded lock-free by queries.
    std::atomic<ShardSnapshot*> snap{nullptr};
    /// Mutation counter behind `ShardSnapshot::version`; guarded by `mu`.
    uint64_t version = 0;
  };

  /// Static per-query plan: classification of every active column, indexed
  /// by the key's s-partition field (paper: computed once, valid for all
  /// overlapping spatial cells). Immutable after BuildPlan, so cell tasks
  /// share it without synchronization.
  struct ColumnPlan {
    struct Column {
      bool active = false;
      uint32_t n_partial = 0;
      uint32_t n_full = 0;
      bool in_window = false;
      uint64_t epoch = 0;
      uint32_t m_local = 0;
      int slot = 0;
    };
    std::vector<Column> by_field;          ///< Size 2*Sp.
    std::vector<uint32_t> active_fields;   ///< Ascending within each slot.
  };

  SwstIndex(BufferPool* pool, const SwstOptions& options);

  Shard& ShardFor(uint32_t cell) { return *shards_[cell / cells_per_shard_]; }
  const Shard& ShardFor(uint32_t cell) const {
    return *shards_[cell / cells_per_shard_];
  }
  static CellTrees& CellIn(Shard& shard, uint32_t cell) {
    return shard.cells[cell - shard.cell_begin];
  }
  static const CellTrees& CellIn(const Shard& shard, uint32_t cell) {
    return shard.cells[cell - shard.cell_begin];
  }

  /// Monotonically advances the clock (lock-free CAS max).
  void BumpClock(Timestamp t);

  /// Lower bound of the slide-aligned window of length `length` ending at
  /// `clock` (paper §III-A: tau' = floor(tau / slide) * slide - W).
  Timestamp WindowLo(Timestamp clock, Timestamp length) const;

  /// The one accept/reject decision for a written entry (domain checks
  /// aside): a closed duration must lie in [1, Dmax], then the start must
  /// not precede the window of the running clock `*clock` advanced to it.
  /// On accept `*clock` is advanced; on reject nothing changes.
  Status Accept(const Entry& entry, Timestamp* clock) const;

  /// \name Write-ahead logging (all no-ops when `wal_` is null or during
  /// replay).
  /// @{

  /// Appends one logical record and advances the applied-LSN watermark
  /// (CAS max). Callers hold the lock(s) that make the append atomic with
  /// the apply relative to `Save` — see `checkpoint_mu_`.
  Status LogOp(WalRecordType type, const void* payload, size_t len);

  /// Makes everything logged so far durable (the per-operation / per-batch
  /// commit point). Called after the shard locks are released.
  Status SyncWal();

  /// Unsynced bodies of `InsertBatch` and `CloseCurrent`: validate, log,
  /// apply, publish — everything but the commit point. Each public call is
  /// its body plus `SyncWal()`; `ReportPosition` runs both bodies under
  /// one.
  Status InsertBatchUnsynced(const Entry* entries, size_t n);
  Status CloseCurrentUnsynced(const Entry& current, Duration actual);

  /// Redo pass of `Recover`: replays `wal_` from the watermark with
  /// logging suppressed. Benign per-record failures (InvalidArgument /
  /// NotFound — the operation's original outcome) count as skips; I/O
  /// errors abort.
  Status ReplayWal(RecoverStats* stats);

  /// Dispatches one replayed record to the matching operation.
  Status ApplyLogged(WalRecordType type, const char* payload, uint32_t len);
  /// @}

  /// Acquires `shard.mu` exclusively, recording the wait in the
  /// `swst_index_shard_lock_wait_us` histogram when metrics are attached
  /// (0 for an uncontended acquisition). Writer paths only — the read
  /// path's whole point is that it never calls this.
  std::unique_lock<std::shared_mutex> LockShard(Shard& shard);

  /// Publishes the shard's current writer state as a new immutable
  /// snapshot (version + 1, current clock, a copy of the directory slice)
  /// and retires the superseded snapshot together with `retired` — the
  /// copy-on-write pages the mutation superseded — through `epoch_`.
  /// Caller holds `shard.mu` exclusively. Mutations that fail mid-way
  /// simply skip the publish: readers keep the old snapshot, whose pages
  /// were never freed.
  void PublishShard(Shard& shard, std::vector<PageId> retired);

  /// An accepted entry of a write, routed: its spatial cell, epoch and
  /// key, and its position in the caller's entry array.
  struct WriteItem {
    uint32_t cell;
    uint64_t epoch;
    uint64_t key;
    uint32_t index;
  };

  /// \name Shard-local operations; caller holds `shard.mu` exclusively,
  /// collects superseded pages into `retired`, and publishes once on
  /// success.
  /// @{

  /// Applies one (cell, epoch) group of accepted entries: `items[0..n)`
  /// share a cell and an epoch, are sorted by key (ties in arrival order)
  /// and index into `entries`. Closed entries go to the slot's tree in one
  /// `BTree::InsertBatch` (raising `max_closed_end`) and to the memo in
  /// one `AddN` per temporal cell; current entries go to the live tier.
  /// If the slot already holds a *newer* epoch, the group expired after it
  /// was validated and is skipped whole — the newer tree is never dropped.
  Status ApplyGroup(Shard& shard, const WriteItem* items, size_t n,
                    const Entry* entries, std::vector<PageId>* retired);
  Status DeleteLocked(Shard& shard, uint32_t cell, const Entry& entry,
                      std::vector<PageId>* retired);

  /// Ensures the cell's slot holds a live tree for `epoch`, dropping a
  /// stale (older) tree first. Creates the tree lazily.
  Status PrepareTree(Shard& shard, uint32_t cell, uint64_t epoch,
                     std::vector<PageId>* retired);

  /// Drops any tree in `cell` whose epoch is < `min_live_epoch`. Each
  /// dropped tree bumps `*dropped` (when non-null).
  Status DropExpired(Shard& shard, uint32_t cell, uint64_t min_live_epoch,
                     std::vector<PageId>* retired, size_t* dropped = nullptr);
  /// @}

  /// The observed-query wrapper behind `IntervalQueryStream` and `Knn`:
  /// `run` executes the query pipeline. With no registry, trace or slow
  /// log attached it calls `run` straight through. Otherwise it runs it
  /// against a fresh stats block (1-in-N untraced queries get an
  /// auto-attached trace for the slow log), records latency and counters
  /// in the registry, stamps `SlowLogCounters` on the trace root, and
  /// hands slow or sampled queries to the slow log as "<kind> <detail>";
  /// `detail` is only called for those.
  Status ObserveQuery(
      const char* kind, const QueryOptions& opts, QueryStats* stats,
      const std::function<Status(const QueryOptions&, QueryStats*)>& run,
      const std::function<std::string(const QueryStats&)>& detail);

  Status BuildPlan(const TimeInterval& q, const TimeInterval& win,
                   ColumnPlan* plan) const;

  /// Runs the temporal search of one overlapping spatial cell and emits
  /// every accepted entry. It takes no lock: it pins an epoch, reads the
  /// cell's trees and live bucket from the shard's published snapshot and
  /// trims with the memo's wait-free seqlock read. Shared by
  /// the rectangle queries and KNN. `emit` returning false stops the
  /// search of this cell; `emit` is not called again. All counters land in `stats` (a per-task local
  /// under parallel execution), including exact node accesses. When
  /// `opts.trace` is set a "cell <N>" span (with "bfs slot<k>" / "refine"
  /// children) is attached under `trace_parent`.
  Status SearchCell(const SpatialGrid::CellOverlap& co, const ColumnPlan& plan,
                    const TimeInterval& q, const TimeInterval& win,
                    const QueryOptions& opts, QueryStats* stats,
                    const std::function<bool(const Entry&)>& emit,
                    obs::TraceSpan* trace_parent = nullptr);

  /// True when `SearchCells` fans `n` cells out over `executor_`.
  bool FansOut(size_t n) const { return executor_ != nullptr && n > 1; }

  /// Searches every cell in `cells` and emits the accepted entries in
  /// ascending cell order — the order, results and stats of a serial
  /// walk — fanning out via `FanOutCells` when `FansOut(cells.size())`.
  /// `emit` returning false stops the walk. Cell spans attach under
  /// `trace_parent`.
  Status SearchCells(const std::vector<SpatialGrid::CellOverlap>& cells,
                     const ColumnPlan& plan, const TimeInterval& q,
                     const TimeInterval& win, const QueryOptions& opts,
                     QueryStats* stats,
                     const std::function<bool(const Entry&)>& emit,
                     obs::TraceSpan* trace_parent);

  /// Fans `SearchCell` out over `executor_` for every cell in `cells`,
  /// buffering each cell's accepted entries. They are passed to `emit` on
  /// the calling thread in ascending cell order as tasks complete;
  /// returning false cancels in-flight tasks (they stop at the next
  /// emitted entry) and skips the remaining cells' results. Cell stats are
  /// merged into `stats` in deterministic cell order. Cell tasks attach
  /// their trace spans under `trace_parent`; a sibling "merge" span
  /// records the consumer's wait time.
  Status FanOutCells(const std::vector<SpatialGrid::CellOverlap>& cells,
                     const ColumnPlan& plan, const TimeInterval& q,
                     const TimeInterval& win, const QueryOptions& opts,
                     QueryStats* stats,
                     const std::function<bool(const Entry&)>& emit,
                     obs::TraceSpan* trace_parent);

  /// The query pipeline `IntervalQueryStream` runs through `ObserveQuery`.
  Status IntervalQueryStreamImpl(const Rect& area,
                                 const TimeInterval& interval,
                                 const QueryOptions& opts,
                                 const std::function<bool(const Entry&)>& fn,
                                 QueryStats* stats);

  /// Ring-expansion KNN pipeline `Knn` runs through `ObserveQuery`.
  Result<std::vector<Entry>> KnnImpl(const Point& center, size_t k,
                                     const TimeInterval& interval,
                                     const QueryOptions& opts,
                                     QueryStats* stats);

  uint64_t KeyFor(const Entry& entry, uint32_t cell) const;

  /// Registers this index's metrics with `options_.metrics` (no-op when
  /// null); called once from the constructor.
  void RegisterMetrics();

  /// Folds a finished query's per-query counters into the registry metrics
  /// and records its latency (no-op when no registry is attached).
  void RecordQueryMetrics(const QueryStats& stats, uint64_t latency_us);

  /// Reconstructs the isPresent memo from the live trees (used by Open).
  Status RebuildMemo();

  /// Stable hash of the options that affect on-disk key layout.
  uint64_t OptionsFingerprint() const;

  BufferPool* pool_;
  SwstOptions options_;
  /// Cached `options_.wal` (null disables all logging).
  Wal* wal_ = nullptr;
  /// Checkpoint exclusion: every logged mutation holds this shared for its
  /// whole append+apply critical path; `Save` holds it exclusive while
  /// capturing the watermark and snapshotting. An operation is therefore
  /// entirely inside or entirely outside a checkpoint — never half-logged,
  /// half-applied across one. Lock order: checkpoint_mu_ -> shard.mu ->
  /// (wal / pool internals). Queries never touch it.
  mutable std::shared_mutex checkpoint_mu_;
  /// Highest LSN applied to the in-memory state (redo watermark). Advanced
  /// under `checkpoint_mu_` (shared) as records are logged+applied; `Save`
  /// reads it under the exclusive lock.
  std::atomic<Lsn> applied_lsn_{kInvalidLsn};
  /// Watermark captured by the last successful `Save` (what `Checkpoint`
  /// may truncate up to).
  std::atomic<Lsn> last_checkpoint_lsn_{kInvalidLsn};
  /// True while `ReplayWal` drives the mutation paths: suppresses logging
  /// and syncs so redo never re-logs.
  bool replaying_ = false;
  KeyCodec codec_;
  SpatialGrid grid_;
  TemporalOverlapComputer overlap_;
  uint32_t cells_per_shard_ = 1;
  std::vector<std::unique_ptr<Shard>> shards_;
  /// Grace periods for lock-free readers: protects retired `ShardSnapshot`
  /// objects and the copy-on-write tree pages they reference. Declared
  /// after `shards_` / before the destructor body runs so pending
  /// reclamation callbacks (which touch only `pool_` and heap snapshots)
  /// drain safely at destruction.
  mutable EpochManager epoch_;
  /// Thread pool for per-query cell fan-out; null when query_threads <= 1.
  std::unique_ptr<QueryExecutor> executor_;
  std::atomic<Timestamp> now_{0};
  /// Total current entries across all shards' live tiers (gauge source;
  /// the per-shard counts are guarded by the shard mutexes).
  std::atomic<uint64_t> live_entries_{0};
  /// Head of the persisted metadata page chain; allocated on first Save.
  PageId meta_page_ = kInvalidPageId;
  /// Additional metadata pages of the chain (for reuse across saves).
  std::vector<PageId> meta_chain_;
  /// Pages of the persisted live-tier entry chain (reused across saves;
  /// the head is recorded in the first metadata page).
  std::vector<PageId> live_chain_;

  /// \name Registry metrics (all null when `SwstOptions::metrics` is null).
  /// Updated once per operation from per-query/-batch locals, never from
  /// per-record hot loops. See docs/observability.md for the catalog.
  /// @{
  std::shared_ptr<obs::Counter> m_queries_;
  std::shared_ptr<obs::Counter> m_inserts_;
  std::shared_ptr<obs::Counter> m_deletes_;
  std::shared_ptr<obs::Counter> m_node_accesses_;
  std::shared_ptr<obs::Counter> m_memo_pruned_columns_;
  std::shared_ptr<obs::Counter> m_cells_pruned_;
  std::shared_ptr<obs::Counter> m_cells_visited_;
  std::shared_ptr<obs::Counter> m_results_;
  std::shared_ptr<obs::Counter> m_trees_dropped_;
  std::shared_ptr<obs::Histogram> m_query_latency_us_;
  std::shared_ptr<obs::Histogram> m_query_node_accesses_;
  std::shared_ptr<obs::Histogram> m_batch_records_;
  /// Writer-path shard-lock wait (µs per exclusive acquisition). Empty in
  /// read-only workloads — the acceptance check that queries are lock-free.
  std::shared_ptr<obs::Histogram> m_shard_lock_wait_us_;
  std::shared_ptr<obs::Counter> m_snapshots_published_;
  std::shared_ptr<obs::Counter> m_snapshots_retired_;
  /// Live-tier lifecycle: entries migrated to the disk tier by
  /// `CloseCurrent`, entries drained by window expiry, and queries whose
  /// every overlapping cell was answered without touching the disk tier.
  std::shared_ptr<obs::Counter> m_live_migrations_;
  std::shared_ptr<obs::Counter> m_live_drained_;
  std::shared_ptr<obs::Counter> m_live_only_queries_;
  /// @}
};

}  // namespace swst

#endif  // SWST_SWST_SWST_INDEX_H_
