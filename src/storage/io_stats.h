#ifndef SWST_STORAGE_IO_STATS_H_
#define SWST_STORAGE_IO_STATS_H_

#include <atomic>
#include <cstdint>
#include <string>

namespace swst {

/// \brief Counters for the cost metrics reported in the paper.
///
/// The paper compares indexes by *node accesses* (logical page fetches,
/// whether or not they hit the buffer pool) because that metric is
/// independent of buffering policy and hardware. Physical reads/writes are
/// kept too, for completeness.
///
/// Counters are relaxed atomics: `BufferPool` bumps them under its own
/// mutex, but readers (benchmark reporters, `SwstIndex` query
/// threads) snapshot them without taking that mutex, so plain `uint64_t`
/// fields would be a data race under TSan. Individual counter reads are
/// exact; a multi-counter snapshot is only as consistent as the caller's
/// own synchronization — same contract as before, now race-free.
struct IoStats {
  std::atomic<uint64_t> logical_reads{0};  ///< Pool fetches ("node accesses").
  std::atomic<uint64_t> physical_reads{0};   ///< Pages read from the backend.
  std::atomic<uint64_t> physical_writes{0};  ///< Pages written to the backend.
  std::atomic<uint64_t> pages_allocated{0};
  std::atomic<uint64_t> pages_freed{0};
  /// Pages written as part of a multi-page vectored batch (adjacent dirty
  /// pages coalesced by `FlushAll` or eviction into one `Pager::WritePages`
  /// call). A subset of `physical_writes`.
  std::atomic<uint64_t> coalesced_writes{0};
  /// Pages loaded by `BufferPool::Prefetch` (readahead). A subset of
  /// `physical_reads`; prefetches do NOT count as logical reads.
  std::atomic<uint64_t> readahead_pages{0};
  /// Fetches that were served by a frame filled by readahead.
  std::atomic<uint64_t> readahead_hits{0};
  /// WAL syncs forced by the write-back path: a dirty page carried an LSN
  /// beyond the log's durable LSN, so the WAL rule made the pool sync the
  /// log before writing the page (see docs/durability.md).
  std::atomic<uint64_t> wal_forced_syncs{0};
  /// Leaf pages encoded in the compressed v2 format, and the total payload
  /// bytes saved versus the fixed-width v1 record array (see
  /// docs/storage.md, "Page format v2").
  std::atomic<uint64_t> pages_compressed{0};
  std::atomic<uint64_t> compression_saved_bytes{0};

  IoStats() = default;

  /// Copyable (relaxed snapshot), so call sites can keep `IoStats before =
  /// pool.stats();` idioms.
  IoStats(const IoStats& o) { *this = o; }
  IoStats& operator=(const IoStats& o) {
    logical_reads.store(o.logical_reads.load(std::memory_order_relaxed),
                        std::memory_order_relaxed);
    physical_reads.store(o.physical_reads.load(std::memory_order_relaxed),
                         std::memory_order_relaxed);
    physical_writes.store(o.physical_writes.load(std::memory_order_relaxed),
                          std::memory_order_relaxed);
    pages_allocated.store(o.pages_allocated.load(std::memory_order_relaxed),
                          std::memory_order_relaxed);
    pages_freed.store(o.pages_freed.load(std::memory_order_relaxed),
                      std::memory_order_relaxed);
    coalesced_writes.store(o.coalesced_writes.load(std::memory_order_relaxed),
                           std::memory_order_relaxed);
    readahead_pages.store(o.readahead_pages.load(std::memory_order_relaxed),
                          std::memory_order_relaxed);
    readahead_hits.store(o.readahead_hits.load(std::memory_order_relaxed),
                         std::memory_order_relaxed);
    wal_forced_syncs.store(o.wal_forced_syncs.load(std::memory_order_relaxed),
                           std::memory_order_relaxed);
    pages_compressed.store(o.pages_compressed.load(std::memory_order_relaxed),
                           std::memory_order_relaxed);
    compression_saved_bytes.store(
        o.compression_saved_bytes.load(std::memory_order_relaxed),
        std::memory_order_relaxed);
    return *this;
  }

  /// Zeroes every counter with an individual `store(0)`. Like `Since()`,
  /// this is per-counter atomic but NOT atomic as a whole: increments that
  /// race with a `Reset()` (or land between a `Since()` snapshot and the
  /// `Reset()` that follows it) may be attributed to either side of the
  /// reset, but are never lost or torn. Callers that need an exact epoch
  /// boundary must provide their own exclusion. (The previous
  /// implementation assigned from a temporary, which reads-then-writes each
  /// counter — same contract, but easy to mistake for a wholesale swap.)
  void Reset() {
    logical_reads.store(0, std::memory_order_relaxed);
    physical_reads.store(0, std::memory_order_relaxed);
    physical_writes.store(0, std::memory_order_relaxed);
    pages_allocated.store(0, std::memory_order_relaxed);
    pages_freed.store(0, std::memory_order_relaxed);
    coalesced_writes.store(0, std::memory_order_relaxed);
    readahead_pages.store(0, std::memory_order_relaxed);
    readahead_hits.store(0, std::memory_order_relaxed);
    wal_forced_syncs.store(0, std::memory_order_relaxed);
    pages_compressed.store(0, std::memory_order_relaxed);
    compression_saved_bytes.store(0, std::memory_order_relaxed);
  }

  IoStats& operator+=(const IoStats& o) {
    logical_reads.fetch_add(o.logical_reads.load(std::memory_order_relaxed),
                            std::memory_order_relaxed);
    physical_reads.fetch_add(o.physical_reads.load(std::memory_order_relaxed),
                             std::memory_order_relaxed);
    physical_writes.fetch_add(
        o.physical_writes.load(std::memory_order_relaxed),
        std::memory_order_relaxed);
    pages_allocated.fetch_add(
        o.pages_allocated.load(std::memory_order_relaxed),
        std::memory_order_relaxed);
    pages_freed.fetch_add(o.pages_freed.load(std::memory_order_relaxed),
                          std::memory_order_relaxed);
    coalesced_writes.fetch_add(
        o.coalesced_writes.load(std::memory_order_relaxed),
        std::memory_order_relaxed);
    readahead_pages.fetch_add(
        o.readahead_pages.load(std::memory_order_relaxed),
        std::memory_order_relaxed);
    readahead_hits.fetch_add(o.readahead_hits.load(std::memory_order_relaxed),
                             std::memory_order_relaxed);
    wal_forced_syncs.fetch_add(
        o.wal_forced_syncs.load(std::memory_order_relaxed),
        std::memory_order_relaxed);
    pages_compressed.fetch_add(
        o.pages_compressed.load(std::memory_order_relaxed),
        std::memory_order_relaxed);
    compression_saved_bytes.fetch_add(
        o.compression_saved_bytes.load(std::memory_order_relaxed),
        std::memory_order_relaxed);
    return *this;
  }

  /// Difference since an earlier snapshot.
  IoStats Since(const IoStats& snapshot) const;

  std::string ToString() const;
};

}  // namespace swst

#endif  // SWST_STORAGE_IO_STATS_H_
