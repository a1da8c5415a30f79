#include "storage/buffer_pool.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cstring>
#include <utility>

namespace swst {

PageHandle& PageHandle::operator=(PageHandle&& o) noexcept {
  if (this != &o) {
    Release();
    pool_ = o.pool_;
    frame_ = o.frame_;
    id_ = o.id_;
    data_ = o.data_;
    o.pool_ = nullptr;
    o.data_ = nullptr;
    o.id_ = kInvalidPageId;
  }
  return *this;
}

void PageHandle::MarkDirty() {
  assert(valid());
  pool_->MarkDirty(id_, frame_);
}

void PageHandle::Release() {
  if (pool_ != nullptr) {
    pool_->Unpin(id_, frame_);
    pool_ = nullptr;
    data_ = nullptr;
    id_ = kInvalidPageId;
  }
}

namespace {

/// Below this many frames per stripe, hash skew can spuriously exhaust a
/// partition even though the pool as a whole has room; collapse to fewer
/// (or one) partitions instead.
constexpr size_t kMinFramesPerPartition = 64;
constexpr size_t kMaxPartitions = 16;

size_t AutoPartitions(size_t capacity_pages) {
  size_t n = capacity_pages / kMinFramesPerPartition;
  if (n < 1) n = 1;
  if (n > kMaxPartitions) n = kMaxPartitions;
  return n;
}

/// Records the scope's wall time (microseconds) into `h`; no-op (and no
/// clock read) when `h` is null, so unobserved pools pay nothing.
class PagerTimer {
 public:
  explicit PagerTimer(obs::Histogram* h) : h_(h) {
    if (h_ != nullptr) start_ = std::chrono::steady_clock::now();
  }
  ~PagerTimer() {
    if (h_ != nullptr) {
      auto us = std::chrono::duration_cast<std::chrono::microseconds>(
                    std::chrono::steady_clock::now() - start_)
                    .count();
      h_->Record(static_cast<uint64_t>(us));
    }
  }

 private:
  obs::Histogram* h_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace

BufferPool::BufferPool(Pager* pager, size_t capacity_pages, size_t partitions,
                       obs::MetricsRegistry* registry)
    : pager_(pager), capacity_(capacity_pages), registry_(registry) {
  assert(capacity_pages >= 1);
  size_t n = (partitions == 0) ? AutoPartitions(capacity_pages) : partitions;
  if (n > capacity_pages) n = capacity_pages;
  if (n < 1) n = 1;
  partitions_.reserve(n);
  const size_t base = capacity_pages / n;
  const size_t extra = capacity_pages % n;
  for (size_t p = 0; p < n; ++p) {
    auto part = std::make_unique<Partition>();
    const size_t frames = base + (p < extra ? 1 : 0);
    part->frames.resize(frames);
    part->unused_frames.reserve(frames);
    for (size_t i = frames; i > 0; --i) {
      part->unused_frames.push_back(i - 1);
    }
    partitions_.push_back(std::move(part));
  }

  if (registry_ != nullptr) {
    m_read_us_ = registry_->RegisterHistogram(
        "swst_pager_read_us", "Wall microseconds per physical pager read call");
    m_write_us_ = registry_->RegisterHistogram(
        "swst_pager_write_us",
        "Wall microseconds per physical pager write call");
    m_write_run_pages_ = registry_->RegisterHistogram(
        "swst_pager_write_run_pages",
        "Pages per pager write call (runs > 1 are coalesced adjacent pages)");
    // The IoStats counters already exist as relaxed atomics; expose them as
    // callback gauges polled at render time instead of double-counting.
    // Registered with `this` as owner: a successor pool on the same
    // registry replaces them, and ~BufferPool removes only its own.
    auto cb = [this](const char* name, const char* help,
                     std::function<int64_t()> fn) {
      registry_->RegisterCallback(name, help, std::move(fn), this);
    };
    cb(
        "swst_pool_logical_reads",
        "Pool fetches (the paper's node-access metric)", [this] {
          return static_cast<int64_t>(
              stats().logical_reads.load(std::memory_order_relaxed));
        });
    cb(
        "swst_pool_physical_reads", "Pages read from the pager backend",
        [this] {
          return static_cast<int64_t>(
              stats().physical_reads.load(std::memory_order_relaxed));
        });
    cb(
        "swst_pool_physical_writes", "Pages written to the pager backend",
        [this] {
          return static_cast<int64_t>(
              stats().physical_writes.load(std::memory_order_relaxed));
        });
    cb(
        "swst_pool_pages_allocated", "Pages allocated via the pool", [this] {
          return static_cast<int64_t>(
              stats().pages_allocated.load(std::memory_order_relaxed));
        });
    cb(
        "swst_pool_pages_freed", "Pages freed via the pool", [this] {
          return static_cast<int64_t>(
              stats().pages_freed.load(std::memory_order_relaxed));
        });
    cb(
        "swst_pool_coalesced_writes",
        "Pages written as part of a multi-page vectored run", [this] {
          return static_cast<int64_t>(
              stats().coalesced_writes.load(std::memory_order_relaxed));
        });
    cb(
        "swst_pool_readahead_pages", "Pages loaded by readahead", [this] {
          return static_cast<int64_t>(
              stats().readahead_pages.load(std::memory_order_relaxed));
        });
    cb(
        "swst_pool_readahead_hits",
        "Fetches served by a readahead-filled frame", [this] {
          return static_cast<int64_t>(
              stats().readahead_hits.load(std::memory_order_relaxed));
        });
    cb(
        "swst_pool_wal_forced_syncs",
        "WAL syncs forced by the write-back path (WAL rule)", [this] {
          return static_cast<int64_t>(
              stats().wal_forced_syncs.load(std::memory_order_relaxed));
        });
    cb(
        "swst_pool_pages_compressed",
        "Leaf pages stored in the compressed v2 format", [this] {
          return static_cast<int64_t>(
              stats().pages_compressed.load(std::memory_order_relaxed));
        });
    cb(
        "swst_pool_compression_saved_bytes",
        "Payload bytes saved by v2 leaf compression vs the v1 layout",
        [this] {
          return static_cast<int64_t>(stats().compression_saved_bytes.load(
              std::memory_order_relaxed));
        });
    cb(
        "swst_pool_pinned_frames", "Currently pinned frames",
        [this] { return static_cast<int64_t>(pinned_count()); });
    cb(
        "swst_pool_capacity_pages", "Total frame budget across partitions",
        [this] { return static_cast<int64_t>(capacity_); });
    cb(
        "swst_pool_partitions", "Lock-stripe count",
        [this] { return static_cast<int64_t>(partitions_.size()); });
  }
}

BufferPool::~BufferPool() {
  // Best-effort write-back; errors here cannot be reported.
  (void)FlushAll();
  if (registry_ != nullptr) {
    // Drop only the callbacks that still capture `this`. Counters and
    // histograms stay registered so a successor pool over the same
    // registry (close-then-recover of one index directory) continues the
    // same series instead of losing or re-zeroing them.
    registry_->UnregisterCallbacksByOwner(this);
  }
}

Result<PageHandle> BufferPool::Fetch(PageId id) {
  if (id == kInvalidPageId) {
    return Status::InvalidArgument("Fetch: invalid page id");
  }
  Partition& part = PartitionFor(id);
  std::lock_guard<std::mutex> lock(part.mu);
  part.stats.logical_reads++;
  auto it = part.page_to_frame.find(id);
  if (it != part.page_to_frame.end()) {
    Frame& f = part.frames[it->second];
    if (f.prefetched) {
      f.prefetched = false;
      part.stats.readahead_hits++;
    }
    if (f.pin_count == 0 && f.in_lru) {
      part.lru.erase(f.lru_pos);
      f.in_lru = false;
    }
    f.pin_count++;
    return PageHandle(this, it->second, id, f.data.data());
  }

  auto frame_idx = GrabFrame(part);
  if (!frame_idx.ok()) return frame_idx.status();
  Frame& f = part.frames[*frame_idx];
  if (f.data.empty()) f.data.resize(kPageSize);
  Status st;
  {
    std::lock_guard<std::mutex> pager_lock(pager_mu_);
    PagerTimer timer(m_read_us_.get());
    st = pager_->ReadPage(id, f.data.data());
  }
  if (!st.ok()) {
    part.unused_frames.push_back(*frame_idx);
    return st;
  }
  part.stats.physical_reads++;
  f.page_id = id;
  f.pin_count = 1;
  f.dirty = false;
  f.in_lru = false;
  f.prefetched = false;
  f.lsn = kInvalidLsn;
  part.page_to_frame[id] = *frame_idx;
  return PageHandle(this, *frame_idx, id, f.data.data());
}

Result<PageHandle> BufferPool::New() {
  Result<PageId> id = [&]() -> Result<PageId> {
    std::lock_guard<std::mutex> pager_lock(pager_mu_);
    return pager_->AllocatePage();
  }();
  if (!id.ok()) return id.status();

  Partition& part = PartitionFor(*id);
  std::lock_guard<std::mutex> lock(part.mu);
  auto frame_idx = GrabFrame(part);
  if (!frame_idx.ok()) {
    // Don't leak the just-allocated page when no frame is available.
    std::lock_guard<std::mutex> pager_lock(pager_mu_);
    (void)pager_->FreePage(*id);
    return frame_idx.status();
  }
  part.stats.pages_allocated++;
  part.stats.logical_reads++;
  Frame& f = part.frames[*frame_idx];
  if (f.data.empty()) f.data.resize(kPageSize);
  std::memset(f.data.data(), 0, kPageSize);
  f.page_id = *id;
  f.pin_count = 1;
  f.dirty = true;
  f.in_lru = false;
  f.prefetched = false;
  // A fresh page belongs to the mutation whose log record (if any) was
  // appended before the tree touched the pool — stamp it like MarkDirty.
  f.lsn = (wal_ != nullptr) ? wal_->last_lsn() : kInvalidLsn;
  part.page_to_frame[*id] = *frame_idx;
  return PageHandle(this, *frame_idx, *id, f.data.data());
}

Status BufferPool::Free(PageId id) {
  Partition& part = PartitionFor(id);
  std::lock_guard<std::mutex> lock(part.mu);
  auto it = part.page_to_frame.find(id);
  if (it != part.page_to_frame.end()) {
    Frame& f = part.frames[it->second];
    if (f.pin_count != 0) {
      return Status::InvalidArgument("Free: page is pinned");
    }
    if (f.in_lru) {
      part.lru.erase(f.lru_pos);
      f.in_lru = false;
    }
    f.page_id = kInvalidPageId;
    f.dirty = false;
    f.prefetched = false;
    f.lsn = kInvalidLsn;
    part.unused_frames.push_back(it->second);
    part.page_to_frame.erase(it);
  }
  {
    std::lock_guard<std::mutex> pager_lock(pager_mu_);
    SWST_RETURN_IF_ERROR(pager_->FreePage(id));
  }
  part.stats.pages_freed++;
  return Status::OK();
}

Status BufferPool::FlushAll() {
  // Attempt every dirty frame of every partition even after a failure, so
  // one bad page does not pin the whole pool's dirty set in memory; report
  // the first error. Frames that failed to write back stay dirty for a
  // later retry. Checkpoints (SwstIndex::Save) depend on this sweeping all
  // partitions before the pager is synced.
  //
  // All partition mutexes are held together (ascending index order — no
  // other path takes more than one at a time) so the dirty set can be
  // sorted by page id across stripes and adjacent pages written with one
  // vectored call per run.
  std::vector<std::unique_lock<std::mutex>> locks;
  locks.reserve(partitions_.size());
  for (auto& part : partitions_) locks.emplace_back(part->mu);

  struct DirtyPage {
    PageId id;
    Partition* part;
    Frame* frame;
  };
  std::vector<DirtyPage> dirty;
  for (auto& part : partitions_) {
    for (Frame& f : part->frames) {
      if (f.page_id != kInvalidPageId && f.dirty) {
        dirty.push_back({f.page_id, part.get(), &f});
      }
    }
  }
  std::sort(dirty.begin(), dirty.end(),
            [](const DirtyPage& a, const DirtyPage& b) { return a.id < b.id; });

  // WAL rule: make the log durable up to the newest stamp in the dirty set
  // before any of these page images can reach the pager. One sync covers
  // the whole flush.
  Lsn max_lsn = kInvalidLsn;
  for (const DirtyPage& d : dirty) max_lsn = std::max(max_lsn, d.frame->lsn);
  if (!dirty.empty()) {
    SWST_RETURN_IF_ERROR(ForceWalFor(max_lsn, partitions_.front().get()));
  }

  Status first_error;
  std::vector<char> scratch;
  ForEachAdjacentRun(
      dirty.size(), [&](size_t i) { return dirty[i].id; },
      [&](size_t i, size_t len) {
        const size_t j = i + len;
        const uint32_t run = static_cast<uint32_t>(len);
        if (m_write_run_pages_ != nullptr) m_write_run_pages_->Record(run);
        Status st;
        if (run == 1) {
          std::lock_guard<std::mutex> pager_lock(pager_mu_);
          PagerTimer timer(m_write_us_.get());
          st = pager_->WritePage(dirty[i].id, dirty[i].frame->data.data());
        } else {
          scratch.resize(static_cast<size_t>(run) * kPageSize);
          for (size_t k = i; k < j; ++k) {
            std::memcpy(scratch.data() + (k - i) * kPageSize,
                        dirty[k].frame->data.data(), kPageSize);
          }
          std::lock_guard<std::mutex> pager_lock(pager_mu_);
          PagerTimer timer(m_write_us_.get());
          st = pager_->WritePages(dirty[i].id, run, scratch.data());
        }
        if (st.ok()) {
          for (size_t k = i; k < j; ++k) {
            dirty[k].frame->dirty = false;
            dirty[k].part->stats.physical_writes++;
            if (run > 1) dirty[k].part->stats.coalesced_writes++;
          }
        } else if (first_error.ok()) {
          first_error = st;
        }
      });
  return first_error;
}

void BufferPool::Prefetch(const std::vector<PageId>& ids) {
  // Sort + dedup once so misses appear in page-id order (adjacent runs stay
  // adjacent for the pager's vectored reads); then claim frames per
  // partition under its mutex. Claimed frames are in no map, no LRU, and no
  // free list — invisible to every concurrent pool operation — so the reads
  // can proceed into them with no partition lock held.
  std::vector<PageId> want(ids);
  std::sort(want.begin(), want.end());
  want.erase(std::unique(want.begin(), want.end()), want.end());

  struct Claim {
    PageId id;
    size_t partition;  ///< Partition index owning `frame`.
    size_t frame;      ///< Claimed frame index within that partition.
  };
  std::vector<Claim> claims;
  for (size_t p = 0; p < partitions_.size(); ++p) {
    Partition& part = *partitions_[p];
    std::lock_guard<std::mutex> lock(part.mu);
    // Never let a single readahead wash out more than half the stripe.
    size_t budget = part.frames.size() / 2;
    if (budget == 0) budget = 1;

    size_t claimed = 0;
    for (PageId id : want) {
      if (id == kInvalidPageId) continue;
      if (partitions_.size() > 1 && PartitionIndex(id) != p) continue;
      if (claimed >= budget) break;
      if (part.page_to_frame.count(id) != 0) continue;
      // A prefetch-safe frame grab: a never-used frame, or a *clean* LRU
      // victim. Evicting (and writing back) dirty pages to make room for a
      // speculative read would invert the optimization, so stop instead.
      size_t frame_idx;
      if (!part.unused_frames.empty()) {
        frame_idx = part.unused_frames.back();
        part.unused_frames.pop_back();
      } else if (!part.lru.empty() &&
                 !part.frames[part.lru.back()].dirty) {
        frame_idx = part.lru.back();
        part.lru.pop_back();
        Frame& victim = part.frames[frame_idx];
        victim.in_lru = false;
        part.page_to_frame.erase(victim.page_id);
        victim.page_id = kInvalidPageId;
        victim.prefetched = false;
      } else {
        break;
      }
      // The read lands directly in the frame (stable buffer, resized once);
      // no scratch copy, and no zero-fill of bytes about to be overwritten.
      Frame& f = part.frames[frame_idx];
      if (f.data.empty()) f.data.resize(kPageSize);
      claims.push_back({id, p, frame_idx});
      claimed++;
    }
  }
  if (claims.empty()) return;

  std::vector<AsyncPageRead> reqs(claims.size());
  for (size_t i = 0; i < claims.size(); ++i) {
    reqs[i].id = claims[i].id;
    reqs[i].buf =
        partitions_[claims[i].partition]->frames[claims[i].frame].data.data();
  }
  {
    std::lock_guard<std::mutex> pager_lock(pager_mu_);
    PagerTimer timer(m_read_us_.get());
    // Per-request statuses carry the detail.
    (void)pager_->SubmitReads(reqs.data(), reqs.size())->Await();
  }

  // Install under the partition mutexes (never held together with
  // pager_mu_). A page fetched by another thread while our read was in
  // progress wins: the duplicate frame goes back to the free list.
  for (size_t p = 0; p < partitions_.size(); ++p) {
    Partition* part = nullptr;
    std::unique_lock<std::mutex> lock;
    for (size_t i = 0; i < claims.size(); ++i) {
      const Claim& c = claims[i];
      if (c.partition != p) continue;
      if (part == nullptr) {
        part = partitions_[p].get();
        lock = std::unique_lock<std::mutex>(part->mu);
      }
      Frame& f = part->frames[c.frame];
      if (!reqs[i].status.ok() || part->page_to_frame.count(c.id) != 0) {
        // Failed read (purely a hint: the eventual Fetch re-reads and
        // surfaces the error) or raced install — return the frame.
        part->unused_frames.push_back(c.frame);
        continue;
      }
      f.page_id = c.id;
      f.pin_count = 0;
      f.dirty = false;
      f.prefetched = true;
      f.lsn = kInvalidLsn;
      part->lru.push_front(c.frame);
      f.lru_pos = part->lru.begin();
      f.in_lru = true;
      part->page_to_frame[c.id] = c.frame;
      part->stats.physical_reads++;
      part->stats.readahead_pages++;
    }
  }
}

IoStats BufferPool::stats() const {
  IoStats total;
  for (const auto& part : partitions_) {
    total += part->stats;
  }
  return total;
}

size_t BufferPool::pinned_count() const {
  size_t n = 0;
  for (const auto& part : partitions_) {
    std::lock_guard<std::mutex> lock(part->mu);
    for (const Frame& f : part->frames) {
      if (f.page_id != kInvalidPageId && f.pin_count > 0) n++;
    }
  }
  return n;
}

void BufferPool::Unpin(PageId id, size_t frame_idx) {
  Partition& part = PartitionFor(id);
  std::lock_guard<std::mutex> lock(part.mu);
  Frame& f = part.frames[frame_idx];
  assert(f.pin_count > 0);
  f.pin_count--;
  if (f.pin_count == 0) {
    part.lru.push_front(frame_idx);
    f.lru_pos = part.lru.begin();
    f.in_lru = true;
  }
}

Result<size_t> BufferPool::GrabFrame(Partition& part) {
  if (!part.unused_frames.empty()) {
    size_t idx = part.unused_frames.back();
    part.unused_frames.pop_back();
    return idx;
  }
  if (part.lru.empty()) {
    return Status::IOError("buffer pool exhausted: all frames pinned");
  }
  // Evict the least-recently-used unpinned frame.
  size_t victim = part.lru.back();
  part.lru.pop_back();
  Frame& f = part.frames[victim];
  f.in_lru = false;
  if (f.dirty) {
    // Coalesced write-behind: gather unpinned dirty neighbors (by page id)
    // cached in this partition and write the whole adjacent run with one
    // vectored call. Neighbors stay cached — they merely become clean, so
    // their own later eviction is free. Pinned frames are excluded: their
    // contents may be mid-mutation by the pin holder.
    constexpr size_t kEvictRunCap = 16;
    std::vector<std::pair<PageId, Frame*>> run;
    run.reserve(kEvictRunCap);
    run.emplace_back(f.page_id, &f);
    for (PageId id = f.page_id - 1;
         id != kInvalidPageId && run.size() < kEvictRunCap; --id) {
      auto it = part.page_to_frame.find(id);
      if (it == part.page_to_frame.end()) break;
      Frame& nb = part.frames[it->second];
      if (!nb.dirty || nb.pin_count != 0) break;
      run.emplace_back(id, &nb);
    }
    std::reverse(run.begin(), run.end());
    for (PageId id = f.page_id + 1; run.size() < kEvictRunCap; ++id) {
      auto it = part.page_to_frame.find(id);
      if (it == part.page_to_frame.end()) break;
      Frame& nb = part.frames[it->second];
      if (!nb.dirty || nb.pin_count != 0) break;
      run.emplace_back(id, &nb);
    }

    // WAL rule: the evicted run's newest stamp must be durable in the log
    // before its page images reach the pager.
    Lsn max_lsn = kInvalidLsn;
    for (const auto& entry : run) max_lsn = std::max(max_lsn, entry.second->lsn);
    Status st = ForceWalFor(max_lsn, &part);
    if (!st.ok()) {
      part.lru.push_back(victim);
      f.lru_pos = std::prev(part.lru.end());
      f.in_lru = true;
      return st;
    }
    if (m_write_run_pages_ != nullptr) m_write_run_pages_->Record(run.size());
    if (run.size() > 1) {
      std::vector<char> scratch(run.size() * kPageSize);
      for (size_t k = 0; k < run.size(); ++k) {
        std::memcpy(scratch.data() + k * kPageSize, run[k].second->data.data(),
                    kPageSize);
      }
      std::lock_guard<std::mutex> pager_lock(pager_mu_);
      PagerTimer timer(m_write_us_.get());
      st = pager_->WritePages(run[0].first, static_cast<uint32_t>(run.size()),
                              scratch.data());
    } else {
      std::lock_guard<std::mutex> pager_lock(pager_mu_);
      PagerTimer timer(m_write_us_.get());
      st = pager_->WritePage(f.page_id, f.data.data());
    }
    if (!st.ok()) {
      // Write-back failed: every frame of the run (the victim included)
      // keeps its dirty data, and the victim returns to the LRU tail so it
      // stays evictable (and retryable) — never dropped.
      part.lru.push_back(victim);
      f.lru_pos = std::prev(part.lru.end());
      f.in_lru = true;
      return st;
    }
    for (auto& entry : run) {
      entry.second->dirty = false;
      part.stats.physical_writes++;
      if (run.size() > 1) part.stats.coalesced_writes++;
    }
  }
  part.page_to_frame.erase(f.page_id);
  f.page_id = kInvalidPageId;
  return victim;
}

Status BufferPool::ForceWalFor(Lsn max_lsn, Partition* part) {
  if (wal_ == nullptr || max_lsn == kInvalidLsn ||
      max_lsn <= wal_->durable_lsn()) {
    return Status::OK();
  }
  SWST_RETURN_IF_ERROR(wal_->Sync());
  part->stats.wal_forced_syncs++;
  return Status::OK();
}

}  // namespace swst
