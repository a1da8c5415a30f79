#include "swst/swst_index.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <string>
#include <tuple>

#include "obs/flight_recorder.h"
#include "obs/slow_query_log.h"

namespace swst {

namespace {

/// Microseconds elapsed since `t0` (query-latency measurement).
uint64_t MicrosSince(std::chrono::steady_clock::time_point t0) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
}

}  // namespace

SwstIndex::SwstIndex(BufferPool* pool, const SwstOptions& options)
    : pool_(pool),
      options_(options),
      wal_(options.wal),
      codec_(options),
      grid_(options),
      overlap_(options) {
  const uint32_t total = grid_.cell_count();
  uint32_t target = (options.shard_count == 0) ? 16u : options.shard_count;
  target = std::clamp(target, 1u, total);
  cells_per_shard_ = (total + target - 1) / target;
  const uint32_t sp = options.s_partitions();
  // Only closed entries reach the memo: no slot for the reserved
  // current-entry d-partition.
  const uint32_t ds = options.d_partitions();
  for (uint32_t begin = 0; begin < total; begin += cells_per_shard_) {
    const uint32_t count = std::min(cells_per_shard_, total - begin);
    std::vector<Rect> rects;
    for (uint32_t c = begin; c < begin + count; ++c) {
      rects.push_back(grid_.CellRect(c));
    }
    shards_.push_back(std::make_unique<Shard>(begin, rects, sp, ds));
    // Initial (empty) snapshot so the lock-free read path never sees a
    // null pointer, even on an index that was never written to.
    shards_.back()->snap.store(
        new ShardSnapshot{0, 0, shards_.back()->cells,
                          shards_.back()->live.Buckets(), 0},
        std::memory_order_release);
  }
  if (options.query_threads > 1) {
    executor_ = std::make_unique<QueryExecutor>(options.query_threads,
                                                options.metrics);
  }
  RegisterMetrics();
}

SwstIndex::~SwstIndex() {
  if (options_.metrics != nullptr) {
    // The callback gauges capture `this`; drop the ones still owned by this
    // instance. Counters/histograms stay registered so a recovered index
    // over the same registry keeps accumulating into the same series.
    // (The executor unregisters its own callbacks.)
    options_.metrics->UnregisterCallbacksByOwner(this);
  }
  // No queries are in flight at destruction (API contract), so every
  // shard's current snapshot is unreachable once dropped here; superseded
  // snapshots and retired pages drain in ~EpochManager.
  for (auto& shard : shards_) {
    delete shard->snap.load(std::memory_order_acquire);
  }
}

void SwstIndex::RegisterMetrics() {
  obs::MetricsRegistry* r = options_.metrics;
  if (r == nullptr) return;
  m_queries_ = r->RegisterCounter("swst_index_queries_total",
                                  "Rectangle and KNN queries executed");
  m_inserts_ = r->RegisterCounter("swst_index_inserts_total",
                                  "Entries inserted (single and batched)");
  m_deletes_ = r->RegisterCounter(
      "swst_index_deletes_total",
      "Entries deleted (incl. the delete half of CloseCurrent)");
  m_node_accesses_ = r->RegisterCounter(
      "swst_index_node_accesses_total",
      "B+ tree page fetches across all queries (the paper's cost metric)");
  m_memo_pruned_columns_ =
      r->RegisterCounter("swst_index_memo_pruned_columns_total",
                         "Columns skipped entirely by the isPresent memo");
  m_cells_pruned_ =
      r->RegisterCounter("swst_index_cells_pruned_total",
                         "Overlapping cells pruned wholesale by the memo");
  m_cells_visited_ = r->RegisterCounter(
      "swst_index_cells_visited_total",
      "Overlapping cells where at least one key range was searched");
  m_results_ = r->RegisterCounter("swst_index_results_total",
                                  "Entries emitted to query callers");
  m_trees_dropped_ =
      r->RegisterCounter("swst_index_trees_dropped_total",
                         "Expired epoch trees dropped wholesale");
  m_query_latency_us_ = r->RegisterHistogram("swst_index_query_latency_us",
                                             "Wall microseconds per query");
  m_query_node_accesses_ = r->RegisterHistogram(
      "swst_index_query_node_accesses", "Node accesses per query");
  m_batch_records_ = r->RegisterHistogram(
      "swst_index_batch_records",
      "Entries per InsertBatch call (a single Insert is a batch of one)");
  m_shard_lock_wait_us_ = r->RegisterHistogram(
      "swst_index_shard_lock_wait_us",
      "Writer-path wait for an exclusive shard lock (us; queries are "
      "lock-free and never record here)");
  m_snapshots_published_ = r->RegisterCounter(
      "swst_epoch_snapshots_published_total",
      "Immutable shard snapshots published by writers");
  m_snapshots_retired_ = r->RegisterCounter(
      "swst_epoch_snapshots_retired_total",
      "Superseded shard snapshots retired for epoch reclamation");
  m_live_migrations_ = r->RegisterCounter(
      "swst_live_migrations_total",
      "Current entries migrated from the live tier to a closed B+ tree "
      "by CloseCurrent");
  m_live_drained_ = r->RegisterCounter(
      "swst_live_drained_total",
      "Current entries drained from the live tier by window expiry");
  m_live_only_queries_ = r->RegisterCounter(
      "swst_live_only_queries_total",
      "Queries whose every overlapping cell was answered without touching "
      "the disk tier (now-query hit count; ratio vs "
      "swst_index_queries_total)");
  r->RegisterCallback(
      "swst_live_entries",
      "Current entries resident in the in-memory live tier",
      [this] {
        return static_cast<int64_t>(
            live_entries_.load(std::memory_order_relaxed));
      },
      this);
  r->RegisterCallback(
      "swst_live_bytes", "Bytes of live-tier records (entries x record size)",
      [this] {
        return static_cast<int64_t>(
            live_entries_.load(std::memory_order_relaxed) *
            sizeof(LiveTier::Record));
      },
      this);
  r->RegisterCallback(
      "swst_epoch_pinned", "Epoch guards currently pinned by readers",
      [this] { return static_cast<int64_t>(epoch_.stats().pinned); }, this);
  r->RegisterCallback(
      "swst_epoch_pending",
      "Retired objects awaiting their epoch grace period",
      [this] { return static_cast<int64_t>(epoch_.stats().pending); }, this);
  r->RegisterCallback(
      "swst_index_shards", "Shards the cell directory is split into",
      [this] { return static_cast<int64_t>(shards_.size()); }, this);
  r->RegisterCallback(
      "swst_index_memo_bytes",
      "Bytes of in-memory statistical state (memos + directory)",
      [this] { return static_cast<int64_t>(StatisticsMemoryUsage()); }, this);
  r->RegisterCallback(
      "swst_index_clock", "Current index clock (tau)",
      [this] { return static_cast<int64_t>(now()); }, this);
}

void SwstIndex::RecordQueryMetrics(const QueryStats& stats,
                                   uint64_t latency_us) {
  if (m_queries_ == nullptr) return;
  m_queries_->Increment();
  m_node_accesses_->Increment(stats.node_accesses);
  m_memo_pruned_columns_->Increment(stats.memo_pruned_columns);
  m_cells_pruned_->Increment(stats.cells_pruned);
  m_cells_visited_->Increment(stats.cells_visited);
  m_results_->Increment(stats.results);
  if (stats.spatial_cells > 0 &&
      stats.live_only_cells == stats.spatial_cells) {
    m_live_only_queries_->Increment();
  }
  m_query_latency_us_->Record(latency_us);
  m_query_node_accesses_->Record(stats.node_accesses);
}

Result<std::unique_ptr<SwstIndex>> SwstIndex::Create(
    BufferPool* pool, const SwstOptions& options) {
  SWST_RETURN_IF_ERROR(options.Validate());
  return std::unique_ptr<SwstIndex>(new SwstIndex(pool, options));
}

Status SwstIndex::LogOp(WalRecordType type, const void* payload, size_t len) {
  if (wal_ == nullptr || replaying_) return Status::OK();
  auto lsn = wal_->Append(type, payload, static_cast<uint32_t>(len));
  if (!lsn.ok()) return lsn.status();
  // CAS max: concurrent shards log in LSN order per shard, but their
  // watermark updates may interleave.
  Lsn cur = applied_lsn_.load(std::memory_order_relaxed);
  while (cur < *lsn &&
         !applied_lsn_.compare_exchange_weak(cur, *lsn,
                                             std::memory_order_acq_rel,
                                             std::memory_order_relaxed)) {
  }
  return Status::OK();
}

Status SwstIndex::SyncWal() {
  if (wal_ == nullptr || replaying_) return Status::OK();
  return wal_->Sync();
}

void SwstIndex::BumpClock(Timestamp t) {
  Timestamp cur = now_.load(std::memory_order_relaxed);
  while (t > cur &&
         !now_.compare_exchange_weak(cur, t, std::memory_order_acq_rel,
                                     std::memory_order_relaxed)) {
  }
}

Timestamp SwstIndex::WindowLo(Timestamp clock, Timestamp length) const {
  const Timestamp aligned = (clock / options_.slide) * options_.slide;
  return (aligned >= length) ? aligned - length : 0;
}

Status SwstIndex::Accept(const Entry& entry, Timestamp* clock) const {
  if (!entry.is_current() &&
      (entry.duration == 0 || entry.duration > options_.max_duration)) {
    return Status::InvalidArgument("Insert: duration outside [1, Dmax]");
  }
  // Judged against the clock this write leaves behind.
  const Timestamp next = std::max(*clock, entry.start);
  if (entry.start < WindowLo(next, options_.window_size)) {
    return Status::InvalidArgument("Insert: entry already expired");
  }
  *clock = next;
  return Status::OK();
}

TimeInterval SwstIndex::QueriablePeriod(Timestamp logical_window) const {
  Timestamp w = options_.window_size;
  if (logical_window != 0) w = std::min(w, logical_window);
  const Timestamp tau = now();
  return TimeInterval{WindowLo(tau, w), tau};
}

uint64_t SwstIndex::KeyFor(const Entry& entry, uint32_t cell) const {
  const Point local = grid_.LocalOffset(entry.pos, cell);
  const uint32_t qx = codec_.Quantize(local.x, grid_.cell_width());
  const uint32_t qy = codec_.Quantize(local.y, grid_.cell_height());
  return codec_.MakeKey(entry.start, entry.duration, qx, qy);
}

std::unique_lock<std::shared_mutex> SwstIndex::LockShard(Shard& shard) {
  if (m_shard_lock_wait_us_ == nullptr) {
    return std::unique_lock<std::shared_mutex>(shard.mu);
  }
  std::unique_lock<std::shared_mutex> lock(shard.mu, std::try_to_lock);
  if (lock.owns_lock()) {
    m_shard_lock_wait_us_->Record(0);
    return lock;
  }
  const auto t0 = std::chrono::steady_clock::now();
  lock.lock();
  m_shard_lock_wait_us_->Record(MicrosSince(t0));
  return lock;
}

void SwstIndex::PublishShard(Shard& shard, std::vector<PageId> retired) {
  shard.version++;
  // The live-tier buckets ride along as shared immutable values (refcount
  // bumps, no copies), so a migration's live-removal and tree-insert are
  // always visible together.
  auto* next = new ShardSnapshot{shard.version, now(), shard.cells,
                                 shard.live.Buckets(), shard.max_closed_end};
  ShardSnapshot* old = shard.snap.exchange(next, std::memory_order_seq_cst);
  if (m_snapshots_published_ != nullptr) {
    m_snapshots_published_->Increment();
    m_snapshots_retired_->Increment();
  }
  obs::RecordEvent(obs::EventType::kSnapshotPublish, shard.cell_begin,
                   shard.version, retired.size());
  // The old snapshot — and the pages this mutation rewrote, which the old
  // snapshot's roots may still reach — stay alive until every reader
  // pinned at or before the swap has unpinned.
  epoch_.Retire(
      [pool = pool_, old, pages = std::move(retired)] {
        for (PageId id : pages) pool->Free(id);
        delete old;
      });
}

Status SwstIndex::PrepareTree(Shard& shard, uint32_t cell, uint64_t epoch,
                              std::vector<PageId>* retired) {
  CellTrees& ct = CellIn(shard, cell);
  const int slot = static_cast<int>(epoch % 2);
  if (ct.root[slot] != kInvalidPageId) {
    if (ct.epoch[slot] == epoch) return Status::OK();
    assert(ct.epoch[slot] < epoch);  // ApplyGroup skips a newer slot.
    // The slot holds a fully expired epoch (epoch - 2 or older): drop it
    // wholesale — this is SWST's entire deletion cost for a window's data.
    // In COW mode Drop retires the pages instead of freeing them: readers
    // pinned on the published snapshot may still be traversing the tree.
    BTree stale = BTree::AttachCow(pool_, ct.root[slot], retired);
    SWST_RETURN_IF_ERROR(stale.Drop());
    shard.memo.ResetSlot(cell - shard.cell_begin, slot, shard.version + 1);
    ct.root[slot] = kInvalidPageId;
    if (m_trees_dropped_ != nullptr) m_trees_dropped_->Increment();
  }
  auto tree = BTree::Create(pool_);
  if (!tree.ok()) return tree.status();
  ct.root[slot] = tree->root();
  ct.epoch[slot] = epoch;
  return Status::OK();
}

Status SwstIndex::DropExpired(Shard& shard, uint32_t cell,
                              uint64_t min_live_epoch,
                              std::vector<PageId>* retired, size_t* dropped) {
  CellTrees& ct = CellIn(shard, cell);
  for (int slot = 0; slot < 2; ++slot) {
    if (ct.root[slot] != kInvalidPageId && ct.epoch[slot] < min_live_epoch) {
      BTree stale = BTree::AttachCow(pool_, ct.root[slot], retired);
      SWST_RETURN_IF_ERROR(stale.Drop());
      shard.memo.ResetSlot(cell - shard.cell_begin, slot, shard.version + 1);
      ct.root[slot] = kInvalidPageId;
      if (m_trees_dropped_ != nullptr) m_trees_dropped_->Increment();
      if (dropped != nullptr) ++*dropped;
    }
  }
  return Status::OK();
}

Status SwstIndex::Advance(Timestamp t) {
  std::shared_lock<std::shared_mutex> ckpt(checkpoint_mu_);
  if (wal_ != nullptr && !replaying_) {
    // Logged before the sweep so redo re-drops whatever the crash
    // interrupted. Losing an un-synced kAdvance is benign: the expired
    // trees just survive until the next Advance, and queries never see
    // them (the window filter is clock-relative).
    const WalAdvancePayload payload{t};
    SWST_RETURN_IF_ERROR(
        LogOp(WalRecordType::kAdvance, &payload, sizeof(payload)));
  }
  BumpClock(t);
  const uint64_t k = now() / options_.epoch_length();
  const uint64_t min_live = (k == 0) ? 0 : k - 1;
  // Each shard is swept under its own exclusive lock; other shards stay
  // fully available to writers, and readers everywhere keep executing
  // against published snapshots — queries never block behind Advance.
  size_t total_dropped = 0;
  size_t total_drained = 0;
  for (auto& shard : shards_) {
    std::vector<PageId> retired;
    size_t drained = 0;
    auto lock = LockShard(*shard);
    const uint32_t end =
        shard->cell_begin + static_cast<uint32_t>(shard->cells.size());
    for (uint32_t cell = shard->cell_begin; cell < end; ++cell) {
      SWST_RETURN_IF_ERROR(
          DropExpired(*shard, cell, min_live, &retired, &total_dropped));
      // Expired current entries leave the live tier the same way expired
      // trees leave the disk tier — wholesale, with zero page I/O.
      drained += shard->live.DropExpired(cell - shard->cell_begin, min_live);
    }
    if (drained > 0) {
      live_entries_.fetch_sub(drained, std::memory_order_relaxed);
      if (m_live_drained_ != nullptr) m_live_drained_->Increment(drained);
      total_drained += drained;
    }
    // A dropped tree always retires at least its root page, so an empty
    // list plus an untouched live tier means the sweep changed nothing —
    // skip the publish.
    if (!retired.empty() || drained > 0) {
      PublishShard(*shard, std::move(retired));
    }
  }
  obs::RecordEvent(obs::EventType::kWindowAdvance, static_cast<uint64_t>(t),
                   total_dropped, total_drained);
  return SyncWal();
}

Status SwstIndex::Insert(const Entry& entry) {
  return InsertBatch(&entry, 1);
}

Status SwstIndex::InsertBatch(const std::vector<Entry>& entries) {
  return InsertBatch(entries.data(), entries.size());
}

Status SwstIndex::InsertBatch(const Entry* entries, size_t n) {
  SWST_RETURN_IF_ERROR(InsertBatchUnsynced(entries, n));
  return SyncWal();
}

Status SwstIndex::InsertBatchUnsynced(const Entry* entries, size_t n) {
  if (n == 0) return Status::OK();
  std::shared_lock<std::shared_mutex> ckpt(checkpoint_mu_);

  // Validation pass in arrival order against a running clock: entry i is
  // judged by the clock entries 0..i-1 leave behind, exactly as if each
  // were written on its own. Keys are computed once here and reused by the
  // tree inserts and the memo grouping below. Reused per thread, so a
  // batch of one allocates no routing buffer.
  thread_local std::vector<WriteItem> items;
  items.clear();
  Timestamp clock = now();
  for (size_t i = 0; i < n; ++i) {
    const Entry& e = entries[i];
    if (!grid_.Contains(e.pos)) {
      return Status::InvalidArgument("Insert: position outside spatial domain");
    }
    SWST_RETURN_IF_ERROR(Accept(e, &clock));
    const uint32_t cell = grid_.CellOf(e.pos);
    items.push_back(WriteItem{cell, codec_.Epoch(e.start), KeyFor(e, cell),
                              static_cast<uint32_t>(i)});
  }
  BumpClock(clock);

  if (wal_ != nullptr && !replaying_) {
    // Group commit: every entry is logged up front (validation passed, so
    // all will be accepted), then ONE sync covers the whole batch at the
    // end. Records go in *arrival* order, not the sorted apply order below
    // — redo replays each as a batch of one, whose running-clock window
    // check only reproduces the batch's accept decisions when it sees the
    // same order the batch validated in.
    for (size_t j = 0; j < n; ++j) {
      SWST_RETURN_IF_ERROR(
          LogOp(WalRecordType::kInsert, &entries[j], sizeof(Entry)));
    }
  }

  // Group by (spatial cell, epoch) and sort each group's records by key,
  // equal keys in arrival order — the order one-at-a-time inserts produce
  // by appending equal keys after existing ones. Cells ascend, so shards
  // are visited in ascending order, each locked exactly once.
  std::sort(items.begin(), items.end(),
            [](const WriteItem& a, const WriteItem& b) {
              return std::tie(a.cell, a.epoch, a.key, a.index) <
                     std::tie(b.cell, b.epoch, b.key, b.index);
            });

  std::vector<PageId> retired;
  size_t i = 0;
  while (i < n) {
    Shard& shard = ShardFor(items[i].cell);
    retired.clear();
    auto lock = LockShard(shard);
    while (i < n && &ShardFor(items[i].cell) == &shard) {
      size_t g = i;
      while (g < n && items[g].cell == items[i].cell &&
             items[g].epoch == items[i].epoch) {
        ++g;
      }
      SWST_RETURN_IF_ERROR(
          ApplyGroup(shard, &items[i], g - i, entries, &retired));
      i = g;
    }
    // One publish per touched shard: the whole slice of the batch that
    // landed here becomes visible to queries atomically.
    PublishShard(shard, std::move(retired));
  }
  if (m_inserts_ != nullptr) {
    m_inserts_->Increment(n);
    m_batch_records_->Record(n);
  }
  return Status::OK();
}

Status SwstIndex::ApplyGroup(Shard& shard, const WriteItem* items, size_t n,
                             const Entry* entries,
                             std::vector<PageId>* retired) {
  const uint32_t cell = items[0].cell;
  const uint64_t epoch = items[0].epoch;
  const int slot = static_cast<int>(epoch % 2);
  CellTrees& ct = CellIn(shard, cell);
  if (ct.root[slot] != kInvalidPageId && ct.epoch[slot] > epoch) {
    // The slot holds epoch k+2 or later, so the clock reached (k+2)*E
    // after this group was validated: it expired concurrently. Only an
    // older tree may be dropped (paper §IV-C) — dropping this one would
    // lose acked writes. Redo agrees either way (docs/durability.md).
    return Status::OK();
  }

  // Reused per thread, so a group allocates no scratch buffers.
  thread_local std::vector<BTreeRecord> recs;
  thread_local std::vector<Point> run_pts;
  // Closed entries go to the group's B+ tree; current entries go to the
  // live tier (key-sorted order reproduces the bucket one-at-a-time
  // inserts would build).
  recs.clear();
  for (size_t j = 0; j < n; ++j) {
    const Entry& e = entries[items[j].index];
    if (e.is_current()) continue;
    recs.push_back(BTreeRecord{items[j].key, e});
    shard.max_closed_end = std::max(shard.max_closed_end, e.end());
  }
  if (!recs.empty()) {
    // Current-only groups skip the tree entirely (a stale tree in the
    // slot survives until a closed insert or Advance drops it; queries
    // filter by epoch, so it is invisible either way).
    SWST_RETURN_IF_ERROR(PrepareTree(shard, cell, epoch, retired));
    BTree tree = BTree::AttachCow(pool_, ct.root[slot], retired);
    SWST_RETURN_IF_ERROR(tree.InsertBatch(recs));
    ct.root[slot] = tree.root();
  }

  // The key sort clusters each temporal cell (s-partition column and
  // d-partition occupy the key's high bits), so the memo takes one AddN
  // per consecutive run instead of one update per point. Current entries
  // occupy the reserved top d-partition, so they form their own runs —
  // routed to the live tier instead of the memo.
  const uint32_t local_cell = cell - shard.cell_begin;
  for (size_t r = 0; r < n;) {
    const Entry& first = entries[items[r].index];
    const uint32_t column = codec_.LocalColumn(first.start);
    const uint32_t dp = codec_.DPartition(first.duration);
    size_t r2 = r;
    if (first.is_current()) {
      for (; r2 < n; ++r2) {
        const Entry& e = entries[items[r2].index];
        if (!e.is_current() || codec_.LocalColumn(e.start) != column) break;
        shard.live.Insert(local_cell, items[r2].key, epoch, e);
      }
      live_entries_.fetch_add(r2 - r, std::memory_order_relaxed);
    } else {
      run_pts.clear();
      for (; r2 < n; ++r2) {
        const Entry& e = entries[items[r2].index];
        if (codec_.LocalColumn(e.start) != column ||
            codec_.DPartition(e.duration) != dp) {
          break;
        }
        run_pts.push_back(e.pos);
      }
      shard.memo.AddN(local_cell, slot, column, dp, run_pts.data(),
                      run_pts.size(), shard.version + 1);
    }
    r = r2;
  }
  return Status::OK();
}

Status SwstIndex::Delete(const Entry& entry) {
  if (!grid_.Contains(entry.pos)) {
    return Status::InvalidArgument("Delete: position outside spatial domain");
  }
  const uint32_t cell = grid_.CellOf(entry.pos);
  Shard& shard = ShardFor(cell);
  std::shared_lock<std::shared_mutex> ckpt(checkpoint_mu_);
  {
    auto lock = LockShard(shard);
    // Logged before the epoch-liveness check: a Delete that turns out to
    // be NotFound leaves a record behind, and redo replays it to the same
    // NotFound (a counted skip) — harmless, and it keeps the hot path to
    // one tree descent.
    SWST_RETURN_IF_ERROR(LogOp(WalRecordType::kDelete, &entry, sizeof(Entry)));
    std::vector<PageId> retired;
    SWST_RETURN_IF_ERROR(DeleteLocked(shard, cell, entry, &retired));
    PublishShard(shard, std::move(retired));
  }
  return SyncWal();
}

Status SwstIndex::DeleteLocked(Shard& shard, uint32_t cell,
                               const Entry& entry,
                               std::vector<PageId>* retired) {
  if (entry.is_current()) {
    // Current entries never reach the trees — the live tier is the only
    // place a delete can find them.
    if (!shard.live.Remove(cell - shard.cell_begin, entry.oid, entry.start)) {
      return Status::NotFound("Delete: current entry not in the live tier");
    }
    live_entries_.fetch_sub(1, std::memory_order_relaxed);
    if (m_deletes_ != nullptr) m_deletes_->Increment();
    return Status::OK();
  }
  const uint64_t epoch = codec_.Epoch(entry.start);
  const int slot = static_cast<int>(epoch % 2);
  CellTrees& ct = CellIn(shard, cell);
  if (ct.root[slot] == kInvalidPageId || ct.epoch[slot] != epoch) {
    return Status::NotFound("Delete: entry's epoch is no longer live");
  }
  BTree tree = BTree::AttachCow(pool_, ct.root[slot], retired);
  SWST_RETURN_IF_ERROR(tree.Delete(KeyFor(entry, cell), entry.oid,
                                   entry.start));
  ct.root[slot] = tree.root();
  shard.memo.Remove(cell - shard.cell_begin, slot,
                    codec_.LocalColumn(entry.start),
                    codec_.DPartition(entry.duration), shard.version + 1);
  if (m_deletes_ != nullptr) m_deletes_->Increment();
  return Status::OK();
}

Status SwstIndex::CloseCurrent(const Entry& current, Duration actual) {
  SWST_RETURN_IF_ERROR(CloseCurrentUnsynced(current, actual));
  return SyncWal();
}

Status SwstIndex::CloseCurrentUnsynced(const Entry& current,
                                       Duration actual) {
  if (!current.is_current()) {
    return Status::InvalidArgument("CloseCurrent: entry is already closed");
  }
  if (!grid_.Contains(current.pos)) {
    return Status::InvalidArgument(
        "CloseCurrent: position outside spatial domain");
  }
  const uint32_t cell = grid_.CellOf(current.pos);
  const uint64_t epoch = codec_.Epoch(current.start);
  Shard& shard = ShardFor(cell);
  std::shared_lock<std::shared_mutex> ckpt(checkpoint_mu_);
  // Seal-time migration: live-tier removal + closed B+ insert under one
  // critical section and ONE publish, so a query sees either the
  // still-open entry (via the live buckets of an older snapshot) or the
  // closed one (via the trees and raised watermark of the new snapshot)
  // — never both and never neither (no torn view).
  auto lock = LockShard(shard);
  const uint32_t local_cell = cell - shard.cell_begin;
  if (!shard.live.Contains(local_cell, current.oid, current.start)) {
    const uint64_t k = now() / options_.epoch_length();
    const uint64_t min_live = (k == 0) ? 0 : k - 1;
    if (epoch < min_live) {
      // The entry expired with its window; nothing to close (and
      // nothing to log — redo reconstructs the same no-op from state).
      return Status::OK();
    }
    return Status::NotFound("CloseCurrent: entry not in the live tier");
  }
  Entry closed = current;
  closed.duration = actual;
  // Accept the closed entry *before* logging or mutating: a rejected
  // close (a duration outside [1, Dmax], or a re-insert that would fall
  // outside the window) leaves no WAL record and no state change at all.
  Timestamp clock = now();
  SWST_RETURN_IF_ERROR(Accept(closed, &clock));
  if (wal_ != nullptr && !replaying_) {
    const WalClosePayload payload{current, actual};
    SWST_RETURN_IF_ERROR(
        LogOp(WalRecordType::kClose, &payload, sizeof(payload)));
  }
  BumpClock(clock);
  std::vector<PageId> retired;
  // Tree insert first: if it fails (I/O), the live tier is untouched
  // and nothing publishes — the entry simply stays current.
  const WriteItem item{cell, epoch, KeyFor(closed, cell), 0};
  SWST_RETURN_IF_ERROR(ApplyGroup(shard, &item, 1, &closed, &retired));
  shard.live.Remove(local_cell, current.oid, current.start);
  live_entries_.fetch_sub(1, std::memory_order_relaxed);
  if (m_inserts_ != nullptr) m_inserts_->Increment();
  if (m_deletes_ != nullptr) m_deletes_->Increment();
  if (m_live_migrations_ != nullptr) m_live_migrations_->Increment();
  obs::RecordEvent(obs::EventType::kCloseMigrate, current.oid,
                   static_cast<uint64_t>(current.start), cell,
                   static_cast<uint64_t>(actual));
  PublishShard(shard, std::move(retired));
  return Status::OK();
}

Status SwstIndex::ReportPosition(ObjectId oid, const Point& pos, Timestamp t,
                                 const Entry* previous, Entry* out_current) {
  if (previous != nullptr && t <= previous->start) {
    return Status::InvalidArgument(
        "ReportPosition: timestamps must be increasing per object");
  }
  // One commit point per report: the close body and the batch body (for
  // the one new current entry) log their records and one sync covers
  // both — the group commit InsertBatch uses. A crash can leave the close
  // durable without the insert; the report was never acked, and retrying
  // it is safe because a close that finds nothing open (NotFound) is
  // tolerated here.
  Status st;
  if (previous != nullptr && t - previous->start <= options_.max_duration) {
    st = CloseCurrentUnsynced(*previous, t - previous->start);
    if (st.IsNotFound()) st = Status::OK();
  }
  // (A stay longer than Dmax is never closed: SWST does not split long
  // entries, paper §V-A; the previous entry stays current until it
  // expires with its window.)
  const Entry cur{oid, pos, t, kUnknownDuration};
  if (st.ok()) st = InsertBatchUnsynced(&cur, 1);
  // Sync on every path, errors included, so a close whose insert then
  // failed is as durable as it was when both calls synced on their own.
  // With nothing appended this is a no-op.
  const Status synced = SyncWal();
  SWST_RETURN_IF_ERROR(st);
  SWST_RETURN_IF_ERROR(synced);
  if (out_current != nullptr) *out_current = cur;
  return Status::OK();
}

Status SwstIndex::BuildPlan(const TimeInterval& q, const TimeInterval& win,
                            ColumnPlan* plan) const {
  const uint32_t sp = codec_.s_partitions();
  plan->by_field.assign(2 * sp, ColumnPlan::Column{});
  plan->active_fields.clear();

  for (const ColumnOverlap& col : overlap_.Compute(q, win)) {
    const uint64_t epoch = col.raw_column / sp;
    const uint32_t m_local = static_cast<uint32_t>(col.raw_column % sp);
    const int slot = static_cast<int>(epoch % 2);
    const uint32_t field = m_local + static_cast<uint32_t>(slot) * sp;
    ColumnPlan::Column& c = plan->by_field[field];
    c.active = true;
    c.n_partial = col.n_partial;
    c.n_full = col.n_full;
    c.in_window = col.in_window;
    c.epoch = epoch;
    c.m_local = m_local;
    c.slot = slot;
    plan->active_fields.push_back(field);
  }
  return Status::OK();
}

Status SwstIndex::SearchCell(const SpatialGrid::CellOverlap& co,
                             const ColumnPlan& plan, const TimeInterval& q,
                             const TimeInterval& win, const QueryOptions& opts,
                             QueryStats* stats,
                             const std::function<bool(const Entry&)>& emit,
                             obs::TraceSpan* trace_parent) {
  obs::QueryTrace* trace = opts.trace;
  obs::ScopedSpan cell_span(
      trace, trace_parent,
      trace != nullptr ? "cell " + std::to_string(co.cell) : std::string());
  // Per-cell trace counters are deltas against this snapshot, so they are
  // exact both serially (shared `stats`) and fanned out (per-task `stats`).
  const QueryStats before = (stats != nullptr) ? *stats : QueryStats{};

  Shard& shard = ShardFor(co.cell);
  // Lock-free read path: pin an epoch, load the shard's published
  // snapshot, and execute entirely against that frozen directory. No
  // shard or checkpoint mutex — writers never make this search wait, and
  // this search never makes a writer wait. The pin (seq_cst, like the
  // publisher's pointer swap) guarantees everything the snapshot
  // references — including its copy-on-write tree pages — outlives the
  // guard.
  EpochManager::Guard guard(&epoch_);
  const ShardSnapshot* snap = shard.snap.load(std::memory_order_seq_cst);
  const CellTrees& ct = snap->cells[co.cell - shard.cell_begin];
  const uint32_t local_cell = co.cell - shard.cell_begin;
  const Rect cell_rect = grid_.CellRect(co.cell);

  // --- Hot tier: scan the snapshot's live bucket first (zero page I/O).
  // Emission order is live-then-disk per cell, identical for serial,
  // fanned-out, and KNN execution, so results stay deterministic across
  // every query_threads / shard_count setting.
  bool stopped = false;
  {
    obs::ScopedSpan live_span(trace, cell_span.get(),
                              trace != nullptr ? "live" : std::string());
    const LiveTier::Bucket& bucket = *snap->live[local_cell];
    uint64_t scanned = 0;
    uint64_t emitted = 0;
    for (const LiveTier::Record& rec : bucket) {
      ++scanned;
      const Entry& e = rec.entry;
      const bool in_window = e.start >= win.lo && e.start <= win.hi;
      const bool temporal_ok = e.ValidTimeOverlaps(q);
      const bool spatial_ok = co.full || co.overlap.Contains(e.pos);
      const bool retained =
          !opts.retention_filter || opts.retention_filter(e, now());
      if (in_window && temporal_ok && spatial_ok && retained) {
        ++emitted;
        if (!emit(e)) {
          stopped = true;
          break;
        }
      }
    }
    if (stats != nullptr) {
      stats->live_candidates += scanned;
      stats->live_results += emitted;
      stats->results += emitted;
    }
    if (trace != nullptr) {
      live_span.AddCounter("candidates", scanned);
      live_span.AddCounter("results", emitted);
    }
  }

  // --- Cold tier: the watermark proof. Every closed entry in this
  // shard's trees ends at or before `max_closed_end`, and a closed entry
  // matches only if its end exceeds q.lo — so a query interval starting
  // at or past the watermark cannot match *any* disk-tier entry, and the
  // whole B+ search (memo trims, key ranges, page fetches) is skipped.
  // This is what makes timeslice-now and KNN-now zero-I/O.
  const bool disk_skip = q.lo >= snap->max_closed_end;
  if (disk_skip && !stopped) {
    if (stats != nullptr) stats->live_only_cells++;
    if (trace != nullptr) cell_span.AddCounter("disk_skipped", 1);
  }
  if (stopped || disk_skip) {
    if (trace != nullptr && stats != nullptr) {
      cell_span.AddCounter("results", stats->results - before.results);
    }
    return Status::OK();
  }

  // Quantized corners of the overlap rectangle (the paper's S_l and S_h).
  const uint32_t qx_lo =
      codec_.Quantize(co.overlap.lo.x - cell_rect.lo.x, grid_.cell_width());
  const uint32_t qy_lo =
      codec_.Quantize(co.overlap.lo.y - cell_rect.lo.y, grid_.cell_height());
  const uint32_t qx_hi =
      codec_.Quantize(co.overlap.hi.x - cell_rect.lo.x, grid_.cell_width());
  const uint32_t qy_hi =
      codec_.Quantize(co.overlap.hi.y - cell_rect.lo.y, grid_.cell_height());

  // The overlap on this cell's memo lattice, shared by every column trim,
  // and the corners' z fields and the last closed d-partition, shared by
  // every column's key range.
  const IsPresentMemo::QRect memo_overlap =
      shard.memo.Quantize(local_cell, co.overlap);
  const uint64_t z_lo = codec_.MinZ(qx_lo, qy_lo);
  const uint64_t z_hi = codec_.MaxZ(qx_hi, qy_hi);
  const uint32_t last_closed = codec_.d_partition_current() - 1;

  // One sorted, disjoint key-range list per tree slot (paper §IV-B.b).
  std::vector<KeyRange> ranges[2];
  for (uint32_t field : plan.active_fields) {
    const ColumnPlan::Column& col = plan.by_field[field];
    const int slot = col.slot;
    if (ct.root[slot] == kInvalidPageId || ct.epoch[slot] != col.epoch) {
      continue;  // No live tree for this column's epoch in this cell.
    }
    uint32_t n_start = col.n_partial;
    uint32_t n_end = last_closed;  // Trees hold closed entries only.
    if (options_.use_memo &&
        shard.memo.TrimColumn(local_cell, slot, col.m_local, snap->version,
                              memo_overlap, &n_start, &n_end)) {
      // The wait-free trim is seqlock-consistent and no newer than this
      // snapshot, so it is safe to prune with. It drops empty temporal
      // cells at the bottom and top of the column (middle holes are kept;
      // the paper keeps one contiguous range per column to bound the
      // number of key ranges). When TrimColumn fails — a racing writer,
      // or a column already mutated past the snapshot — pruning is simply
      // skipped: the full column range stays correct, just unpruned.
      if (n_start > n_end) {
        if (stats != nullptr) stats->memo_pruned_columns++;
        continue;
      }
    }
    KeyRange r;
    r.lo = codec_.Compose(field, n_start, z_lo);
    r.hi = codec_.Compose(field, n_end, z_hi);
    ranges[slot].push_back(r);
  }

  if (stats != nullptr) {
    if (!ranges[0].empty() || !ranges[1].empty()) {
      stats->cells_visited++;
    } else if (stats->memo_pruned_columns > before.memo_pruned_columns) {
      // Every active column with a live tree was trimmed to nothing: the
      // memo pruned this whole overlapping cell without one tree fetch.
      stats->cells_pruned++;
    }
  }

  std::vector<uint32_t> level_nodes;
  for (int slot = 0; slot < 2 && !stopped; ++slot) {
    if (ranges[slot].empty()) continue;
    if (stats != nullptr) stats->key_ranges += ranges[slot].size();
    obs::ScopedSpan bfs_span(
        trace, cell_span.get(),
        trace != nullptr ? "bfs slot" + std::to_string(slot) : std::string());
    level_nodes.clear();
    const uint64_t na_before = (stats != nullptr) ? stats->node_accesses : 0;
    BTree tree = BTree::Attach(pool_, ct.root[slot]);
    SWST_RETURN_IF_ERROR(tree.SearchRanges(
        ranges[slot],
        [&](const BTreeRecord& rec) {
          if (stats != nullptr) stats->candidates++;
          const ColumnPlan::Column& col =
              plan.by_field[codec_.DecodeSPartition(rec.key)];
          const uint32_t dp = codec_.DecodeDPartition(rec.key);
          const bool temporal_full = col.in_window && dp >= col.n_full;
          const Entry& e = rec.entry;
          if (temporal_full && co.full && !opts.retention_filter) {
            // Full temporal + full spatial overlap: guaranteed qualified,
            // no refinement (paper §IV-B.d).
            if (stats != nullptr) {
              stats->full_cell_accepts++;
              stats->results++;
            }
            stopped = !emit(e);
            return !stopped;
          }
          if (stats != nullptr) stats->candidates_refined++;
          const bool in_window = e.start >= win.lo && e.start <= win.hi;
          const bool temporal_ok =
              temporal_full || e.ValidTimeOverlaps(q);
          const bool spatial_ok = co.full || co.overlap.Contains(e.pos);
          // Variable retention (paper §IV-B.d): entries expired under
          // their own, shorter retention are rejected here.
          const bool retained =
              !opts.retention_filter || opts.retention_filter(e, now());
          if (in_window && temporal_ok && spatial_ok && retained) {
            if (stats != nullptr) stats->results++;
            stopped = !emit(e);
            return !stopped;
          }
          if (stats != nullptr) stats->refined_out++;
          return true;
        },
        (stats != nullptr) ? &stats->node_accesses : nullptr,
        (trace != nullptr) ? &level_nodes : nullptr));
    if (trace != nullptr) {
      bfs_span.AddCounter("ranges", ranges[slot].size());
      for (size_t lvl = 0; lvl < level_nodes.size(); ++lvl) {
        bfs_span.AddCounter("level" + std::to_string(lvl) + "_nodes",
                            level_nodes[lvl]);
      }
      if (stats != nullptr) {
        bfs_span.AddCounter("node_accesses", stats->node_accesses - na_before);
      }
    }
  }

  if (trace != nullptr && stats != nullptr) {
    // Refinement runs interleaved with the BFS (inside its emit callback),
    // so this stage carries the candidate flow; its wall time is part of
    // the bfs spans above.
    const uint64_t refined =
        stats->candidates_refined - before.candidates_refined;
    const uint64_t rejected = stats->refined_out - before.refined_out;
    obs::ScopedSpan refine_span(trace, cell_span.get(), "refine");
    refine_span.AddCounter("candidates_in", refined);
    refine_span.AddCounter("survivors_out", refined - rejected);
    refine_span.End();
    cell_span.AddCounter("node_accesses",
                         stats->node_accesses - before.node_accesses);
    cell_span.AddCounter("key_ranges", stats->key_ranges - before.key_ranges);
    cell_span.AddCounter("candidates", stats->candidates - before.candidates);
    cell_span.AddCounter(
        "memo_pruned_columns",
        stats->memo_pruned_columns - before.memo_pruned_columns);
    cell_span.AddCounter("results", stats->results - before.results);
  }
  return Status::OK();
}

Status SwstIndex::FanOutCells(
    const std::vector<SpatialGrid::CellOverlap>& cells, const ColumnPlan& plan,
    const TimeInterval& q, const TimeInterval& win, const QueryOptions& opts,
    QueryStats* stats, const std::function<bool(const Entry&)>& emit,
    obs::TraceSpan* trace_parent) {
  obs::QueryTrace* trace = opts.trace;
  // Every cell task owns its output buffer, stats block, and atomic done
  // flag — workers and the consumer share no mutex; completion signalling
  // is one release-store + notify per task, and the consumer merges the
  // buffers in deterministic cell order. The state lives on the heap with
  // shared ownership so a worker's final notify can never land on a
  // destroyed flag, no matter how the consumer's waits interleave.
  struct CellTask {
    std::vector<Entry> entries;
    QueryStats qs;
    Status st;
    std::atomic<uint32_t> done{0};
  };
  struct FanState {
    explicit FanState(size_t n) : tasks(n) {}
    std::vector<CellTask> tasks;
    std::atomic<bool> cancel{false};
  };
  const size_t n = cells.size();
  auto state = std::make_shared<FanState>(n);

  std::vector<std::function<void()>> batch;
  batch.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    batch.push_back([&, this, state, i] {
      CellTask& t = state->tasks[i];
      if (!state->cancel.load(std::memory_order_relaxed)) {
        t.qs.spatial_cells = 1;
        t.st = SearchCell(
            cells[i], plan, q, win, opts, &t.qs,
            [&t, s = state.get()](const Entry& e) {
              // The consumer cancelled the query: stop this
              // cell's tree search at the next emission.
              if (s->cancel.load(std::memory_order_relaxed)) {
                return false;
              }
              t.entries.push_back(e);
              return true;
            },
            trace_parent);
      }
      t.done.store(1, std::memory_order_release);
      t.done.notify_one();
    });
  }
  executor_->SubmitBatch(batch);

  // Consume results on the calling thread, in ascending cell order, as
  // their tasks complete — result order (and, absent cancellation, stats)
  // are identical to serial execution. Every task is awaited even after a
  // stop, since tasks reference this frame.
  obs::ScopedSpan merge_span(trace, trace_parent,
                             trace != nullptr ? "merge" : std::string());
  uint64_t wait_ns = 0;
  Status result;
  bool stopped = false;
  for (size_t i = 0; i < n; ++i) {
    CellTask& t = state->tasks[i];
    if (t.done.load(std::memory_order_acquire) == 0) {
      const uint64_t wait_start = (trace != nullptr) ? trace->NowNs() : 0;
      t.done.wait(0, std::memory_order_acquire);
      if (trace != nullptr) wait_ns += trace->NowNs() - wait_start;
    }
    if (stopped) continue;
    if (!t.st.ok()) {
      result = t.st;
      state->cancel.store(true, std::memory_order_relaxed);
      stopped = true;
      continue;
    }
    for (const Entry& e : t.entries) {
      if (!emit(e)) {
        state->cancel.store(true, std::memory_order_relaxed);
        stopped = true;
        break;
      }
    }
  }
  if (trace != nullptr) {
    merge_span.AddCounter("cells", n);
    merge_span.AddCounter("wait_ns", wait_ns);
  }
  if (stats != nullptr) {
    for (const CellTask& t : state->tasks) *stats += t.qs;
  }
  return result;
}

Status SwstIndex::SearchCells(
    const std::vector<SpatialGrid::CellOverlap>& cells, const ColumnPlan& plan,
    const TimeInterval& q, const TimeInterval& win, const QueryOptions& opts,
    QueryStats* stats, const std::function<bool(const Entry&)>& emit,
    obs::TraceSpan* trace_parent) {
  if (FansOut(cells.size())) {
    return FanOutCells(cells, plan, q, win, opts, stats, emit, trace_parent);
  }
  bool stop = false;
  for (const SpatialGrid::CellOverlap& co : cells) {
    if (stop) break;
    if (stats != nullptr) stats->spatial_cells++;
    SWST_RETURN_IF_ERROR(SearchCell(
        co, plan, q, win, opts, stats,
        [&emit, &stop](const Entry& e) {
          if (!emit(e)) {
            stop = true;
            return false;
          }
          return true;
        },
        trace_parent));
  }
  return Status::OK();
}

Status SwstIndex::IntervalQueryStreamImpl(
    const Rect& area, const TimeInterval& interval, const QueryOptions& opts,
    const std::function<bool(const Entry&)>& fn, QueryStats* stats) {
  if (area.IsEmpty() || interval.lo > interval.hi) {
    return Status::InvalidArgument("IntervalQuery: malformed query");
  }
  obs::QueryTrace* trace = opts.trace;
  obs::TraceSpan* root = (trace != nullptr) ? trace->root() : nullptr;

  const TimeInterval win = QueriablePeriod(opts.logical_window);
  // Queries are defined within the queriable period (paper §III-A); the
  // parts of the interval outside it cannot match any entry of R(tau).
  TimeInterval q;
  q.lo = std::max(interval.lo, win.lo);
  q.hi = std::min(interval.hi, win.hi);
  if (q.lo > q.hi) return Status::OK();

  // The plan is immutable and built without touching any shard lock; it is
  // shared read-only by every cell search (and cell task) below.
  ColumnPlan plan;
  std::vector<SpatialGrid::CellOverlap> cells;
  {
    obs::ScopedSpan plan_span(trace, root, "plan");
    SWST_RETURN_IF_ERROR(BuildPlan(q, win, &plan));
    cells = grid_.Overlapping(area);
    plan_span.AddCounter("columns", plan.active_fields.size());
    plan_span.AddCounter("cells", cells.size());
  }

  obs::ScopedSpan search_span(trace, root, "search");
  search_span.AddCounter("fanout", FansOut(cells.size()) ? 1 : 0);
  SWST_RETURN_IF_ERROR(SearchCells(cells, plan, q, win, opts, stats, fn,
                                   search_span.get()));
  if (stats != nullptr) {
    stats->columns += plan.active_fields.size();
  }
  return Status::OK();
}

namespace {

/// The QueryStats fields a trace root span carries, as slow-log counter
/// pairs — same names, same values, so a slow-log entry's counters match
/// the QueryStats the metrics layer recorded exactly.
std::vector<std::pair<std::string, uint64_t>> SlowLogCounters(
    const QueryStats& s) {
  return {{"node_accesses", s.node_accesses},
          {"spatial_cells", s.spatial_cells},
          {"cells_visited", s.cells_visited},
          {"cells_pruned", s.cells_pruned},
          {"memo_pruned_columns", s.memo_pruned_columns},
          {"live_candidates", s.live_candidates},
          {"live_results", s.live_results},
          {"live_only_cells", s.live_only_cells},
          {"results", s.results}};
}

}  // namespace

Status SwstIndex::ObserveQuery(
    const char* kind, const QueryOptions& opts, QueryStats* stats,
    const std::function<Status(const QueryOptions&, QueryStats*)>& run,
    const std::function<std::string(const QueryStats&)>& detail) {
  obs::QueryTrace* trace = opts.trace;
  obs::SlowQueryLog* slow = options_.slow_log;
  if (m_queries_ == nullptr && trace == nullptr && slow == nullptr) {
    // No registry, trace, or slow log attached: stay on the zero-overhead
    // path — no clock reads, no extra stats block.
    return run(opts, stats);
  }

  // Slow-query sampling: 1-in-N untraced queries run with an auto-attached
  // trace so the log retains example span trees, not just counters.
  std::unique_ptr<obs::QueryTrace> sampled;
  QueryOptions sampled_opts;
  const QueryOptions* run_opts = &opts;
  if (trace == nullptr && slow != nullptr && slow->ShouldTrace()) {
    sampled = std::make_unique<obs::QueryTrace>();
    sampled_opts = opts;
    sampled_opts.trace = sampled.get();
    run_opts = &sampled_opts;
    trace = sampled.get();
  }

  // Run the pipeline against a fresh stats block so the registry and the
  // trace see exactly this query's counters even when the caller passes an
  // accumulating `stats` (or none at all).
  QueryStats local;
  const auto t0 = std::chrono::steady_clock::now();
  const Status st = run(*run_opts, &local);
  const uint64_t latency_us = MicrosSince(t0);
  RecordQueryMetrics(local, latency_us);
  if (trace != nullptr) {
    obs::TraceSpan* root = trace->root();
    for (auto& [name, value] : SlowLogCounters(local)) {
      root->AddCounter(std::move(name), value);
    }
    trace->EndSpan(root);
  }
  if (slow != nullptr) {
    const bool is_slow = latency_us >= slow->options().latency_threshold_us;
    if (!is_slow && sampled == nullptr) {
      slow->NoteFast();  // Hot path: one relaxed increment, no allocation.
    } else {
      if (is_slow) {
        obs::RecordEvent(obs::EventType::kSlowQuery, latency_us,
                         local.node_accesses, local.results);
      }
      slow->Record(latency_us, std::string(kind) + " " + detail(local),
                   SlowLogCounters(local), sampled.get());
    }
  }
  if (stats != nullptr) *stats += local;
  return st;
}

Status SwstIndex::IntervalQueryStream(
    const Rect& area, const TimeInterval& interval, const QueryOptions& opts,
    const std::function<bool(const Entry&)>& fn, QueryStats* stats) {
  return ObserveQuery(
      "interval", opts, stats,
      [&](const QueryOptions& o, QueryStats* s) {
        return IntervalQueryStreamImpl(area, interval, o, fn, s);
      },
      [&interval](const QueryStats& s) {
        char detail[96];
        std::snprintf(detail, sizeof(detail), "t=[%llu,%llu] results=%llu",
                      static_cast<unsigned long long>(interval.lo),
                      static_cast<unsigned long long>(interval.hi),
                      static_cast<unsigned long long>(s.results));
        return std::string(detail);
      });
}

Result<std::vector<Entry>> SwstIndex::IntervalQuery(
    const Rect& area, const TimeInterval& interval, const QueryOptions& opts,
    QueryStats* stats) {
  std::vector<Entry> out;
  SWST_RETURN_IF_ERROR(
      IntervalQueryStream(area, interval, opts,
                          [&out](const Entry& e) {
                            out.push_back(e);
                            return true;
                          },
                          stats));
  return out;
}

Result<std::vector<Entry>> SwstIndex::TimesliceQuery(const Rect& area,
                                                     Timestamp t,
                                                     const QueryOptions& opts,
                                                     QueryStats* stats) {
  return IntervalQuery(area, TimeInterval{t, t}, opts, stats);
}

Result<SwstIndex::ExplainResult> SwstIndex::Explain(
    const Rect& area, const TimeInterval& interval, const QueryOptions& opts) {
  ExplainResult out;
  obs::QueryTrace own_trace;
  obs::QueryTrace* trace =
      (opts.trace != nullptr) ? opts.trace : &own_trace;
  QueryOptions traced = opts;
  traced.trace = trace;
  SWST_RETURN_IF_ERROR(IntervalQueryStream(
      area, interval, traced,
      [&out](const Entry& e) {
        out.results.push_back(e);
        return true;
      },
      &out.stats));
  out.text = trace->RenderText();
  out.json = trace->RenderJson();
  return out;
}

Result<uint64_t> SwstIndex::CountEntries() const {
  uint64_t n = 0;
  for (const auto& shard : shards_) {
    std::shared_lock<std::shared_mutex> lock(shard->mu);
    n += shard->live.entries();
    for (const CellTrees& ct : shard->cells) {
      for (int slot = 0; slot < 2; ++slot) {
        if (ct.root[slot] == kInvalidPageId) continue;
        BTree tree = BTree::Attach(pool_, ct.root[slot]);
        auto c = tree.CountEntries();
        if (!c.ok()) return c.status();
        n += *c;
      }
    }
  }
  return n;
}

Status SwstIndex::ValidateTrees() const {
  for (const auto& shard : shards_) {
    std::shared_lock<std::shared_mutex> lock(shard->mu);
    for (const CellTrees& ct : shard->cells) {
      for (int slot = 0; slot < 2; ++slot) {
        if (ct.root[slot] == kInvalidPageId) continue;
        BTree tree = BTree::Attach(pool_, ct.root[slot]);
        SWST_RETURN_IF_ERROR(tree.Validate());
      }
    }
  }
  return Status::OK();
}

std::vector<IsPresentMemo::CellStat> SwstIndex::MemoSnapshot() const {
  std::vector<IsPresentMemo::CellStat> out;
  for (const auto& shard : shards_) {
    std::shared_lock<std::shared_mutex> lock(shard->mu);
    const auto& s = shard->memo.stats();
    out.insert(out.end(), s.begin(), s.end());
  }
  return out;
}

size_t SwstIndex::StatisticsMemoryUsage() const {
  size_t bytes = 0;
  for (const auto& shard : shards_) {
    bytes += shard->memo.MemoryUsage() +
             shard->cells.size() * sizeof(CellTrees);
  }
  return bytes;
}


namespace {

/// On-disk metadata layout: a chain of pages, each with this header
/// followed by packed `CellRecord`s.
struct MetaHeader {
  uint64_t magic;
  uint64_t fingerprint;
  uint64_t now;
  /// WAL redo watermark + 1: recovery replays log records with
  /// lsn >= this value (first page only; 0 = no WAL at checkpoint time,
  /// replay everything).
  uint64_t wal_start_lsn;
  /// Live-tier entries persisted in the `live_head` chain (first page
  /// only) — the checkpoint must carry the memory-resident tier, since
  /// `Checkpoint` truncates the WAL records that created it.
  uint64_t live_count;
  uint32_t cell_count;   // Total cells (first page only; 0 on others).
  uint32_t cells_here;   // CellRecords stored in this page.
  PageId next;           // Next page of the chain, or kInvalidPageId.
  PageId live_head;      // Live-entry chain head (first page only).
};

struct CellRecord {
  PageId root0;
  PageId root1;
  uint64_t epoch0;
  uint64_t epoch1;
};

/// On-disk layout of one live-tier page: this header followed by `count`
/// packed `Entry` records.
struct LivePageHeader {
  uint64_t magic;
  uint32_t count;
  PageId next;
};

constexpr uint64_t kMetaMagic = 0x5357'5354'4D45'5441ULL;  // "SWSTMETA"
constexpr uint64_t kLiveMagic = 0x5357'5354'4C49'5645ULL;  // "SWSTLIVE"
constexpr size_t kCellsPerPage =
    (kPageSize - sizeof(MetaHeader)) / sizeof(CellRecord);
constexpr size_t kLiveEntriesPerPage =
    (kPageSize - sizeof(LivePageHeader)) / sizeof(Entry);

uint64_t HashCombine(uint64_t h, uint64_t v) {
  h ^= v + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2);
  return h;
}

}  // namespace

uint64_t SwstIndex::OptionsFingerprint() const {
  uint64_t h = 0;
  h = HashCombine(h, static_cast<uint64_t>(options_.space.lo.x * 1000));
  h = HashCombine(h, static_cast<uint64_t>(options_.space.hi.x * 1000));
  h = HashCombine(h, static_cast<uint64_t>(options_.space.lo.y * 1000));
  h = HashCombine(h, static_cast<uint64_t>(options_.space.hi.y * 1000));
  h = HashCombine(h, options_.x_partitions);
  h = HashCombine(h, options_.y_partitions);
  h = HashCombine(h, options_.window_size);
  h = HashCombine(h, options_.slide);
  h = HashCombine(h, options_.max_duration);
  h = HashCombine(h, options_.duration_interval);
  h = HashCombine(h, static_cast<uint64_t>(options_.zcurve_bits));
  h = HashCombine(h, options_.use_zcurve ? 1 : 0);
  return h;
}

Status SwstIndex::Save(PageId* meta_page) {
  obs::RecordEvent(obs::EventType::kCheckpointBegin,
                   wal_ != nullptr
                       ? applied_lsn_.load(std::memory_order_acquire)
                       : 0);
  // Sync the log up front (outside the exclusion, so writers keep going)
  // — the WAL rule would force it during FlushAll anyway; doing it here
  // keeps the forced-sync path cold.
  if (wal_ != nullptr && !replaying_) {
    SWST_RETURN_IF_ERROR(wal_->Sync());
  }
  // Checkpoint exclusion first: no mutation is mid-way between its log
  // append and its apply, so `applied_lsn_` exactly describes the state
  // being snapshotted.
  std::unique_lock<std::shared_mutex> ckpt(checkpoint_mu_);
  // Global exclusion: take every shard lock (ascending shard order — the
  // one place multiple shard locks are held at once; see
  // docs/concurrency.md) so the directory snapshot, the buffer-pool flush,
  // and the sync form one consistent checkpoint.
  std::vector<std::unique_lock<std::shared_mutex>> locks;
  locks.reserve(shards_.size());
  for (auto& shard : shards_) {
    locks.emplace_back(shard->mu);
  }
  const Lsn captured = applied_lsn_.load(std::memory_order_acquire);

  // Gather the live tier for persistence (shard-, cell-, then bucket-
  // ordered, so a Save/Open round trip reproduces the exact buckets).
  // Without this, `Checkpoint`'s log truncation would discard the only
  // durable trace of acked current entries.
  std::vector<Entry> live_entries;
  live_entries.reserve(live_entries_.load(std::memory_order_relaxed));
  for (const auto& shard : shards_) {
    for (uint32_t local = 0; local < shard->live.cell_count(); ++local) {
      for (const LiveTier::Record& rec : *shard->live.bucket(local)) {
        live_entries.push_back(rec.entry);
      }
    }
  }
  const size_t live_pages =
      (live_entries.size() + kLiveEntriesPerPage - 1) / kLiveEntriesPerPage;
  while (live_chain_.size() < live_pages) {
    auto page = pool_->New();
    if (!page.ok()) return page.status();
    live_chain_.push_back(page->id());
  }

  const size_t total_cells = grid_.cell_count();
  // Ensure the chain is long enough for all cells.
  const size_t pages_needed =
      (total_cells + kCellsPerPage - 1) / kCellsPerPage;
  while (meta_chain_.size() < pages_needed) {
    auto page = pool_->New();
    if (!page.ok()) return page.status();
    meta_chain_.push_back(page->id());
  }
  if (meta_page_ == kInvalidPageId) meta_page_ = meta_chain_[0];

  uint32_t cell = 0;
  for (size_t p = 0; p < pages_needed; ++p) {
    auto page = pool_->Fetch(meta_chain_[p]);
    if (!page.ok()) return page.status();
    auto* hdr = page->As<MetaHeader>();
    hdr->magic = kMetaMagic;
    hdr->fingerprint = OptionsFingerprint();
    hdr->now = now();
    hdr->wal_start_lsn = (p == 0 && wal_ != nullptr) ? captured + 1 : 0;
    hdr->live_count = (p == 0) ? live_entries.size() : 0;
    hdr->live_head =
        (p == 0 && live_pages > 0) ? live_chain_[0] : kInvalidPageId;
    hdr->cell_count =
        (p == 0) ? static_cast<uint32_t>(total_cells) : 0;
    hdr->next =
        (p + 1 < pages_needed) ? meta_chain_[p + 1] : kInvalidPageId;
    auto* recs = reinterpret_cast<CellRecord*>(page->data() +
                                               sizeof(MetaHeader));
    uint32_t here = 0;
    for (; cell < total_cells && here < kCellsPerPage; ++cell, ++here) {
      const CellTrees& ct = CellIn(ShardFor(cell), cell);
      recs[here] = CellRecord{ct.root[0], ct.root[1], ct.epoch[0],
                              ct.epoch[1]};
    }
    hdr->cells_here = here;
    page->MarkDirty();
  }
  size_t off = 0;
  for (size_t p = 0; p < live_pages; ++p) {
    auto page = pool_->Fetch(live_chain_[p]);
    if (!page.ok()) return page.status();
    auto* hdr = page->As<LivePageHeader>();
    hdr->magic = kLiveMagic;
    const size_t here =
        std::min(kLiveEntriesPerPage, live_entries.size() - off);
    hdr->count = static_cast<uint32_t>(here);
    hdr->next = (p + 1 < live_pages) ? live_chain_[p + 1] : kInvalidPageId;
    std::memcpy(page->data() + sizeof(LivePageHeader),
                live_entries.data() + off, here * sizeof(Entry));
    off += here;
    page->MarkDirty();
  }
  // All partitions of the striped pool are flushed before the pager sync —
  // the tree pages and the meta chain land on disk as one checkpoint (the
  // crash-consistency invariant crash_recovery_test verifies).
  SWST_RETURN_IF_ERROR(pool_->FlushAll());
  SWST_RETURN_IF_ERROR(pool_->pager()->Sync());
  // Only a *durable* checkpoint moves the truncation watermark.
  last_checkpoint_lsn_.store(captured, std::memory_order_release);
  *meta_page = meta_page_;
  obs::RecordEvent(obs::EventType::kCheckpointEnd, captured,
                   live_entries.size());
  return Status::OK();
}

Status SwstIndex::Checkpoint(PageId* meta_page) {
  SWST_RETURN_IF_ERROR(Save(meta_page));
  if (wal_ != nullptr) {
    // Everything at or below the checkpoint's watermark is re-derivable
    // from the snapshot just made durable; whole segments below it go.
    return wal_->TruncateBefore(
        last_checkpoint_lsn_.load(std::memory_order_acquire) + 1);
  }
  return Status::OK();
}

Result<std::unique_ptr<SwstIndex>> SwstIndex::Open(BufferPool* pool,
                                                   const SwstOptions& options,
                                                   PageId meta_page) {
  auto idx_or = Create(pool, options);
  if (!idx_or.ok()) return idx_or.status();
  std::unique_ptr<SwstIndex> idx = std::move(*idx_or);
  const uint32_t total_cells = idx->grid_.cell_count();

  PageId cur = meta_page;
  uint32_t cell = 0;
  bool first = true;
  PageId live_head = kInvalidPageId;
  uint64_t live_count = 0;
  // A chain longer than the file has pages must be a next-pointer cycle.
  const uint64_t max_chain = pool->pager()->page_count() + 1;
  uint64_t chain_len = 0;
  while (cur != kInvalidPageId) {
    if (++chain_len > max_chain) {
      return Status::Corruption("SwstIndex::Open: metadata chain cycle");
    }
    auto page = pool->Fetch(cur);
    if (!page.ok()) return page.status();
    const auto* hdr = page->As<MetaHeader>();
    if (hdr->magic != kMetaMagic) {
      return Status::Corruption("SwstIndex::Open: bad metadata magic");
    }
    if (hdr->cells_here > kCellsPerPage) {
      // A garbage count would send the record loop past the page end.
      return Status::Corruption("SwstIndex::Open: cell record overflow");
    }
    if (hdr->fingerprint != idx->OptionsFingerprint()) {
      return Status::InvalidArgument(
          "SwstIndex::Open: options do not match the persisted index");
    }
    if (first) {
      if (hdr->cell_count != total_cells) {
        return Status::Corruption("SwstIndex::Open: cell count mismatch");
      }
      idx->now_.store(hdr->now, std::memory_order_release);
      // Redo watermark: the checkpoint covers LSNs up to
      // wal_start_lsn - 1 (0 = checkpoint predates the WAL; replay all).
      const Lsn applied =
          (hdr->wal_start_lsn == 0) ? kInvalidLsn : hdr->wal_start_lsn - 1;
      idx->applied_lsn_.store(applied, std::memory_order_release);
      idx->last_checkpoint_lsn_.store(applied, std::memory_order_release);
      live_head = hdr->live_head;
      live_count = hdr->live_count;
      first = false;
    }
    const auto* recs = reinterpret_cast<const CellRecord*>(
        page->data() + sizeof(MetaHeader));
    for (uint32_t i = 0; i < hdr->cells_here; ++i, ++cell) {
      if (cell >= total_cells) {
        return Status::Corruption("SwstIndex::Open: too many cell records");
      }
      CellTrees& ct = CellIn(idx->ShardFor(cell), cell);
      ct.root[0] = recs[i].root0;
      ct.root[1] = recs[i].root1;
      ct.epoch[0] = recs[i].epoch0;
      ct.epoch[1] = recs[i].epoch1;
    }
    idx->meta_chain_.push_back(cur);
    cur = hdr->next;
  }
  if (cell != total_cells) {
    return Status::Corruption("SwstIndex::Open: truncated metadata chain");
  }
  idx->meta_page_ = meta_page;

  // Reload the persisted live tier before RebuildMemo publishes the first
  // snapshots, so the buckets are visible to the read path from the start.
  PageId lcur = live_head;
  uint64_t loaded = 0;
  uint64_t live_len = 0;
  while (lcur != kInvalidPageId) {
    if (++live_len > max_chain) {
      return Status::Corruption("SwstIndex::Open: live chain cycle");
    }
    auto page = pool->Fetch(lcur);
    if (!page.ok()) return page.status();
    const auto* hdr = page->As<LivePageHeader>();
    if (hdr->magic != kLiveMagic) {
      return Status::Corruption("SwstIndex::Open: bad live page magic");
    }
    if (hdr->count > kLiveEntriesPerPage) {
      return Status::Corruption("SwstIndex::Open: live record overflow");
    }
    const char* base = page->data() + sizeof(LivePageHeader);
    for (uint32_t i = 0; i < hdr->count; ++i) {
      Entry e;
      std::memcpy(&e, base + i * sizeof(Entry), sizeof(Entry));
      if (!e.is_current() || !idx->grid_.Contains(e.pos)) {
        return Status::Corruption("SwstIndex::Open: invalid live entry");
      }
      const uint32_t ecell = idx->grid_.CellOf(e.pos);
      Shard& shard = idx->ShardFor(ecell);
      shard.live.Insert(ecell - shard.cell_begin, idx->KeyFor(e, ecell),
                        idx->codec_.Epoch(e.start), e);
    }
    loaded += hdr->count;
    idx->live_chain_.push_back(lcur);
    lcur = hdr->next;
  }
  if (loaded != live_count) {
    return Status::Corruption("SwstIndex::Open: truncated live chain");
  }
  idx->live_entries_.store(loaded, std::memory_order_release);

  SWST_RETURN_IF_ERROR(idx->RebuildMemo());
  return Result<std::unique_ptr<SwstIndex>>(std::move(idx));
}

Result<std::unique_ptr<SwstIndex>> SwstIndex::Recover(BufferPool* pool,
                                                      const SwstOptions& options,
                                                      PageId meta_page,
                                                      RecoverStats* stats) {
  // No checkpoint yet: the crash happened before the first Save, so the
  // starting point is an empty index and the log carries everything.
  auto idx_or = (meta_page == kInvalidPageId) ? Create(pool, options)
                                              : Open(pool, options, meta_page);
  if (!idx_or.ok()) return idx_or.status();
  std::unique_ptr<SwstIndex> idx = std::move(*idx_or);
  SWST_RETURN_IF_ERROR(idx->ReplayWal(stats));
  return Result<std::unique_ptr<SwstIndex>>(std::move(idx));
}

Status SwstIndex::ReplayWal(RecoverStats* stats) {
  if (stats != nullptr) *stats = RecoverStats{};
  if (wal_ == nullptr) return Status::OK();
  const auto t0 = std::chrono::steady_clock::now();
  const Lsn from = applied_lsn_.load(std::memory_order_acquire) + 1;
  uint64_t replayed = 0;
  uint64_t skipped = 0;
  // Collect the verified records first and redo them after the scan:
  // `Wal::Replay` holds the log's mutex while it delivers records, and
  // redo takes `checkpoint_mu_` and shard locks, which every logged
  // operation takes *before* the log's mutex.
  struct Logged {
    Lsn lsn;
    WalRecordType type;
    size_t offset;
    uint32_t len;
  };
  std::vector<Logged> records;
  std::vector<char> payloads;
  auto result = wal_->Replay(
      from, [&](Lsn lsn, WalRecordType type, const char* payload,
                uint32_t len) -> Status {
        records.push_back(Logged{lsn, type, payloads.size(), len});
        payloads.insert(payloads.end(), payload, payload + len);
        return Status::OK();
      });
  if (!result.ok()) return result.status();
  replaying_ = true;
  for (const Logged& r : records) {
    Status st = ApplyLogged(r.type, payloads.data() + r.offset, r.len);
    if (st.ok()) {
      ++replayed;
    } else if (st.IsInvalidArgument() || st.IsNotFound()) {
      // The operation's own original outcome (e.g. a logged Delete
      // that found nothing): a no-op then, a no-op now.
      ++skipped;
    } else {
      replaying_ = false;
      return st;  // I/O or corruption: abort recovery.
    }
    applied_lsn_.store(r.lsn, std::memory_order_release);
  }
  replaying_ = false;
  obs::RecordEvent(obs::EventType::kRecoverReplay, replayed, skipped,
                   result->last_lsn, result->torn_tail ? 1 : 0);
  if (stats != nullptr) {
    stats->records_replayed = replayed;
    stats->records_skipped = skipped;
    stats->first_lsn = result->first_lsn;
    stats->last_lsn = result->last_lsn;
    stats->torn_tail = result->torn_tail;
    stats->segments_scanned = result->segments_scanned;
    stats->replay_us = MicrosSince(t0);
  }
  return Status::OK();
}

Status SwstIndex::ApplyLogged(WalRecordType type, const char* payload,
                              uint32_t len) {
  switch (type) {
    case WalRecordType::kInsert:
    case WalRecordType::kDelete: {
      if (len != sizeof(Entry)) {
        return Status::Corruption("WAL replay: bad entry payload size");
      }
      Entry e;
      std::memcpy(&e, payload, sizeof(Entry));
      return (type == WalRecordType::kInsert) ? Insert(e) : Delete(e);
    }
    case WalRecordType::kClose: {
      if (len != sizeof(WalClosePayload)) {
        return Status::Corruption("WAL replay: bad close payload size");
      }
      WalClosePayload p;
      std::memcpy(&p, payload, sizeof(p));
      return CloseCurrent(p.current, p.actual);
    }
    case WalRecordType::kAdvance: {
      if (len != sizeof(WalAdvancePayload)) {
        return Status::Corruption("WAL replay: bad advance payload size");
      }
      WalAdvancePayload p;
      std::memcpy(&p, payload, sizeof(p));
      return Advance(p.t);
    }
    case WalRecordType::kNote:
      return Status::OK();  // Opaque marker; nothing to redo.
  }
  return Status::Corruption("WAL replay: unknown record type");
}

Status SwstIndex::RebuildMemo() {
  const uint32_t d_parts = options_.d_partitions();
  for (auto& shard : shards_) {
    std::unique_lock<std::shared_mutex> lock(shard->mu);
    const uint64_t ver = shard->version + 1;
    for (uint32_t local = 0; local < shard->cells.size(); ++local) {
      for (int slot = 0; slot < 2; ++slot) {
        shard->memo.ResetSlot(local, slot, ver);
        const PageId root = shard->cells[local].root[slot];
        if (root == kInvalidPageId) continue;
        BTree tree = BTree::Attach(pool_, root);
        // Trees hold closed entries only. The memo has no slot for a
        // current entry (nor for a duration outside [1, Dmax]), so one
        // means a corrupt tree; never write past the column for it.
        bool bad_entry = false;
        SWST_RETURN_IF_ERROR(
            tree.Scan(0, UINT64_MAX, [&](const BTreeRecord& rec) {
              const uint32_t dp = codec_.DPartition(rec.entry.duration);
              if (dp >= d_parts) {
                bad_entry = true;
                return false;
              }
              shard->memo.Add(local, slot,
                              codec_.LocalColumn(rec.entry.start), dp,
                              rec.entry.pos, ver);
              // Re-derive the disk-skip watermark the snapshot needs.
              shard->max_closed_end =
                  std::max(shard->max_closed_end, rec.entry.end());
              return true;
            }));
        if (bad_entry) {
          return Status::Corruption(
              "current or out-of-range entry in the B+ tree of cell " +
              std::to_string(shard->cell_begin + local) + " slot " +
              std::to_string(slot) + " (root page " + std::to_string(root) +
              ")");
        }
      }
    }
    // Expose the freshly loaded directory (Open writes it directly into
    // the writer state) and the rebuilt memo versions to the read path.
    PublishShard(*shard, {});
  }
  return Status::OK();
}

Result<SwstIndex::DebugStats> SwstIndex::GetDebugStats() const {
  DebugStats stats;
  stats.memo_bytes = StatisticsMemoryUsage();
  for (const auto& shard : shards_) {
    std::shared_lock<std::shared_mutex> lock(shard->mu);
    stats.memo_nonempty_cells += shard->memo.NonEmptyCells();
    // Live-tier residents count as entries (they are queriable state);
    // they are all current by construction.
    stats.entries += shard->live.entries();
    stats.current_entries += shard->live.entries();
    for (const CellTrees& ct : shard->cells) {
      for (int slot = 0; slot < 2; ++slot) {
        if (ct.root[slot] == kInvalidPageId) continue;
        stats.live_trees++;
        BTree tree = BTree::Attach(pool_, ct.root[slot]);
        auto height = tree.Height();
        if (!height.ok()) return height.status();
        stats.max_tree_height = std::max(stats.max_tree_height, *height);
        SWST_RETURN_IF_ERROR(tree.Scan(0, UINT64_MAX,
                                       [&stats](const BTreeRecord& rec) {
                                         stats.entries++;
                                         if (rec.entry.is_current()) {
                                           stats.current_entries++;
                                         }
                                         return true;
                                       }));
      }
    }
  }
  return stats;
}

}  // namespace swst
