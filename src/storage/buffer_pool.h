#ifndef SWST_STORAGE_BUFFER_POOL_H_
#define SWST_STORAGE_BUFFER_POOL_H_

#include <cstddef>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "obs/metrics.h"
#include "storage/io_stats.h"
#include "storage/page.h"
#include "storage/pager.h"
#include "storage/wal.h"

namespace swst {

class BufferPool;

/// \brief RAII guard for a pinned page frame.
///
/// While a handle is live the underlying frame cannot be evicted. Handles
/// are move-only and unpin on destruction. Call `MarkDirty()` after
/// mutating `data()` so the frame is written back on eviction/flush.
class PageHandle {
 public:
  PageHandle() = default;
  ~PageHandle() { Release(); }

  PageHandle(PageHandle&& o) noexcept { *this = std::move(o); }
  PageHandle& operator=(PageHandle&& o) noexcept;

  PageHandle(const PageHandle&) = delete;
  PageHandle& operator=(const PageHandle&) = delete;

  bool valid() const { return pool_ != nullptr; }
  PageId id() const { return id_; }

  char* data() { return data_; }
  const char* data() const { return data_; }

  /// Reinterprets the page bytes as `T`. `T` must fit in a page.
  template <typename T>
  T* As() {
    static_assert(sizeof(T) <= kPageSize);
    return reinterpret_cast<T*>(data_);
  }
  template <typename T>
  const T* As() const {
    static_assert(sizeof(T) <= kPageSize);
    return reinterpret_cast<const T*>(data_);
  }

  void MarkDirty();

  /// Unpins early (also done by the destructor).
  void Release();

 private:
  friend class BufferPool;
  PageHandle(BufferPool* pool, size_t frame, PageId id, char* data)
      : pool_(pool), frame_(frame), id_(id), data_(data) {}

  BufferPool* pool_ = nullptr;
  size_t frame_ = 0;  ///< Frame index *within the page's partition*.
  PageId id_ = kInvalidPageId;
  char* data_ = nullptr;
};

/// \brief Fixed-capacity, lock-striped LRU page cache over a `Pager`.
///
/// All index structures in this codebase (B+ trees, R-trees, MVR-trees)
/// access disk pages exclusively through a buffer pool, and every `Fetch` /
/// `New` increments `stats().logical_reads` — this is the *node access*
/// count reported in the paper's experiments.
///
/// The cache is split into `partition_count()` independent partitions,
/// each with its own mutex, frame table, LRU list, and `IoStats`; a page
/// id hashes to exactly one partition. Concurrent fetches of pages in
/// different partitions never contend, which is what lets SWST's sharded
/// query fan-out scale (see docs/concurrency.md). Small pools collapse to
/// a single partition, preserving exact global-LRU behavior for tests and
/// tiny configurations. Calls into the underlying `Pager` (reads, writes,
/// allocation) are serialized by a dedicated pager mutex, acquired only
/// *after* a partition mutex — the pager itself need not be thread-safe.
///
/// The *contents* of a pinned page are not synchronized — concurrent
/// access to the same page must be coordinated by the caller (the SWST
/// layer uses per-shard locks; see `SwstIndex`). `stats()` aggregates the
/// per-partition counters into a relaxed snapshot.
class BufferPool {
 public:
  /// `capacity_pages` must be >= 1 and is the *total* frame budget across
  /// all partitions. `partitions` = 0 picks an automatic stripe count:
  /// min(16, capacity_pages / 64), at least 1, so small pools behave
  /// exactly like the previous single-mutex pool.
  ///
  /// When `registry` is non-null the pool registers its counters under
  /// `swst_pool_*` (polled snapshots of the aggregated `IoStats`, pinned
  /// frames, capacity) and latency/size histograms for the pager calls it
  /// makes under `swst_pager_*` (physical read/write microseconds, write
  /// run lengths) — the pool serializes all pager I/O, so this is where the
  /// backend's latency distribution is observable. The registry must
  /// outlive the pool (the destructor unregisters both prefixes); attach at
  /// most one pool per registry.
  BufferPool(Pager* pager, size_t capacity_pages, size_t partitions = 0,
             obs::MetricsRegistry* registry = nullptr);
  ~BufferPool();

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// Pins page `id`, reading it from the pager on a cache miss.
  Result<PageHandle> Fetch(PageId id);

  /// Allocates a fresh zeroed page and pins it (already marked dirty).
  Result<PageHandle> New();

  /// Frees page `id`. The page must not be pinned; a cached copy is
  /// discarded without write-back.
  Status Free(PageId id);

  /// Writes back all dirty frames in every partition (pages stay cached).
  /// Attempts every frame even after a failure and reports the first
  /// error; frames that failed to write back stay dirty for a retry.
  /// `Save`-style checkpoints rely on this covering *all* partitions
  /// before the pager is synced.
  ///
  /// The dirty set is gathered across all partitions (their mutexes are
  /// taken together, in ascending index order), sorted by page id, and
  /// runs of adjacent pages are written with one `Pager::WritePages` call
  /// each (`stats().coalesced_writes` counts pages in multi-page runs).
  Status FlushAll();

  /// Best-effort readahead: loads the given pages into the cache without
  /// pinning them, so subsequent `Fetch` calls hit. Pages already cached
  /// are skipped; the missing ones are read as ONE `Pager::SubmitReads`
  /// batch (one `preadv` per run of adjacent ids on the file backend).
  /// Prefetching never evicts a dirty page, never consumes more than half
  /// of a partition's frames in one call, and swallows read errors (the
  /// later `Fetch` re-reads and reports them) — it is purely a hint. Does
  /// NOT count toward `logical_reads`, so node access metrics are
  /// unaffected; see `readahead_pages`/`readahead_hits`.
  void Prefetch(const std::vector<PageId>& ids);

  /// Records one leaf page stored in the compressed v2 format and the
  /// payload bytes it saved versus the fixed-width v1 layout. Called by the
  /// B+ tree encoder; surfaces as `stats().pages_compressed` /
  /// `compression_saved_bytes` and the `swst_pool_pages_compressed` /
  /// `swst_pool_compression_saved_bytes` metrics.
  void NoteCompressedLeaf(size_t saved_bytes) {
    Partition& part = *partitions_.front();
    part.stats.pages_compressed.fetch_add(1, std::memory_order_relaxed);
    part.stats.compression_saved_bytes.fetch_add(saved_bytes,
                                                 std::memory_order_relaxed);
  }

  /// Attaches a write-ahead log and enables the WAL rule: from now on
  /// every dirtied frame is stamped with the log's current `last_lsn()`,
  /// and no page is written back to the pager while its stamp exceeds
  /// `wal->durable_lsn()` — the pool forces a `Wal::Sync` first (counted
  /// in `stats().wal_forced_syncs`). This is what makes "log record first,
  /// page second" hold even under eviction: a page image whose changes are
  /// not yet re-derivable from the durable log can never reach disk.
  ///
  /// `wal` is not owned and must outlive the pool (or be detached by
  /// attaching nullptr). Attach before the first write-producing
  /// operation; pages dirtied earlier carry stamp 0 and are written back
  /// unconditionally.
  void AttachWal(Wal* wal) { wal_ = wal; }
  Wal* wal() const { return wal_; }

  /// Aggregated counters across all partitions (relaxed snapshot).
  IoStats stats() const;

  Pager* pager() { return pager_; }

  size_t capacity() const { return capacity_; }
  size_t partition_count() const { return partitions_.size(); }
  size_t pinned_count() const;

 private:
  friend class PageHandle;

  struct Frame {
    PageId page_id = kInvalidPageId;
    uint32_t pin_count = 0;
    bool dirty = false;
    bool in_lru = false;
    bool prefetched = false;  ///< Filled by readahead, not yet fetched.
    /// WAL LSN stamped when the frame was last dirtied: the log must be
    /// durable at least up to here before this frame may be written back
    /// (0 = no WAL attached, or dirtied before one was).
    Lsn lsn = kInvalidLsn;
    std::list<size_t>::iterator lru_pos;
    std::vector<char> data;
  };

  /// One lock stripe: an independent LRU cache over a subset of page ids.
  struct Partition {
    mutable std::mutex mu;
    std::vector<Frame> frames;
    std::vector<size_t> unused_frames;
    std::list<size_t> lru;  ///< Unpinned frames, most-recent at front.
    std::unordered_map<PageId, size_t> page_to_frame;
    IoStats stats;
  };

  size_t PartitionIndex(PageId id) const {
    // Multiplicative hash: sequential page ids (B+ tree allocation order)
    // spread evenly instead of striding through one stripe.
    return static_cast<size_t>((id * 0x9E3779B97F4A7C15ULL) >> 17) %
           partitions_.size();
  }
  Partition& PartitionFor(PageId id) { return *partitions_[PartitionIndex(id)]; }

  void Unpin(PageId id, size_t frame_idx);
  void MarkDirty(PageId id, size_t frame_idx) {
    Partition& part = PartitionFor(id);
    std::lock_guard<std::mutex> lock(part.mu);
    Frame& f = part.frames[frame_idx];
    f.dirty = true;
    if (wal_ != nullptr) f.lsn = wal_->last_lsn();
  }

  /// WAL rule enforcement: syncs the log before a write-back of frames
  /// whose highest stamp `max_lsn` exceeds the durable LSN. `part`'s stats
  /// take the forced-sync count. Caller may hold partition mutexes (the
  /// Wal has its own lock; lock order is partition -> wal, never back).
  Status ForceWalFor(Lsn max_lsn, Partition* part);

  /// Finds a frame in `part` for a new page: a never-used frame or the LRU
  /// victim (written back if dirty). Fails if every frame of the partition
  /// is pinned. Caller holds `part.mu`.
  Result<size_t> GrabFrame(Partition& part);

  Pager* pager_;
  Wal* wal_ = nullptr;  ///< Not owned; see AttachWal.
  /// Serializes all calls into `pager_`; acquired after a partition mutex.
  std::mutex pager_mu_;
  size_t capacity_;
  std::vector<std::unique_ptr<Partition>> partitions_;

  /// Observability (all null when no registry was attached). Histograms are
  /// recorded around the pager calls, under `pager_mu_` — one `Record` per
  /// physical I/O, negligible next to the I/O itself.
  obs::MetricsRegistry* registry_ = nullptr;
  std::shared_ptr<obs::Histogram> m_read_us_;
  std::shared_ptr<obs::Histogram> m_write_us_;
  std::shared_ptr<obs::Histogram> m_write_run_pages_;
};

}  // namespace swst

#endif  // SWST_STORAGE_BUFFER_POOL_H_
