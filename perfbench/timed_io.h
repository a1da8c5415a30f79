// Timing decorators for the traced run: benchmark-side subclasses of the
// public `Pager` and `WalStore` interfaces that forward every call to the
// production backend and count and time it from outside. Nothing inside the
// library is instrumented.
//
// Calls are attributed to the operation that caused them through a
// thread-local flag (`TracedScope`): the pool and the log make their backend
// calls on the thread of the operation that needed them, so time spent while
// the flag is set belongs to a traced operation on that thread.

#ifndef SWST_PERFBENCH_TIMED_IO_H_
#define SWST_PERFBENCH_TIMED_IO_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <vector>

#include "storage/pager.h"
#include "storage/wal.h"

namespace perfbench {

/// True while the current thread runs an operation of the traced sample.
bool Traced();

/// Marks the current thread's operations as traced for the scope's life.
class TracedScope {
 public:
  explicit TracedScope(bool traced);
  ~TracedScope();
  TracedScope(const TracedScope&) = delete;
  TracedScope& operator=(const TracedScope&) = delete;

 private:
  bool prev_;
};

/// Counters of one kind of backend call. `units` is pages or bytes.
struct CallStats {
  std::atomic<uint64_t> calls{0};
  std::atomic<uint64_t> units{0};
  std::atomic<uint64_t> ns{0};         ///< Wall time of every call.
  std::atomic<uint64_t> traced_ns{0};  ///< Wall time under a TracedScope.

  struct Snapshot {
    uint64_t calls = 0, units = 0, ns = 0, traced_ns = 0;
    Snapshot operator-(const Snapshot& o) const {
      return {calls - o.calls, units - o.units, ns - o.ns,
              traced_ns - o.traced_ns};
    }
  };
  Snapshot Get() const {
    return {calls.load(std::memory_order_relaxed),
            units.load(std::memory_order_relaxed),
            ns.load(std::memory_order_relaxed),
            traced_ns.load(std::memory_order_relaxed)};
  }
  void Add(uint64_t n_units, uint64_t elapsed_ns) {
    calls.fetch_add(1, std::memory_order_relaxed);
    units.fetch_add(n_units, std::memory_order_relaxed);
    ns.fetch_add(elapsed_ns, std::memory_order_relaxed);
    if (Traced()) traced_ns.fetch_add(elapsed_ns, std::memory_order_relaxed);
  }
};

/// Pager decorator. Reads, writes, allocation, frees and syncs are counted
/// and timed; `SubmitReads`, `SetAsyncReads` and `read_syscalls()` go to the
/// file pager so the io_uring path stays in play. Leaf pages that cross the
/// pager are classified by their on-page format (v1 or v2).
class TimedPager final : public swst::Pager {
 public:
  explicit TimedPager(swst::Pager* inner) : inner_(inner) {}

  swst::Result<swst::PageId> AllocatePage() override;
  swst::Status FreePage(swst::PageId id) override;
  swst::Status ReadPage(swst::PageId id, void* buf) override;
  swst::Status WritePage(swst::PageId id, const void* buf) override;
  swst::Status ReadPages(swst::PageId first, uint32_t count,
                         void* buf) override;
  swst::Status WritePages(swst::PageId first, uint32_t count,
                          const void* buf) override;
  std::unique_ptr<ReadBatch> SubmitReads(swst::AsyncPageRead* reqs,
                                         size_t n) override;
  void SetAsyncReads(bool enabled) override { inner_->SetAsyncReads(enabled); }
  uint64_t read_syscalls() const override { return inner_->read_syscalls(); }
  swst::Status Sync() override;
  swst::Status CorruptPageForTesting(swst::PageId id, uint32_t offset,
                                     uint32_t len) override {
    return inner_->CorruptPageForTesting(id, offset, len);
  }
  uint64_t page_count() const override { return inner_->page_count(); }
  uint64_t live_page_count() const override {
    return inner_->live_page_count();
  }

  CallStats alloc, free, read, write, sync;
  std::atomic<uint64_t> batches{0};        ///< SubmitReads calls.
  std::atomic<uint64_t> async_batches{0};  ///< ... served by io_uring.
  std::atomic<uint64_t> leaves_v1{0};      ///< Leaf pages read or written.
  std::atomic<uint64_t> leaves_v2{0};

  /// Counts the format of `n` consecutive pages in `buf` if they are leaves.
  void ClassifyLeaves(const void* buf, size_t n);

 private:
  swst::Pager* inner_;
};

/// WalStore decorator: appends (bytes), syncs and segment management.
class TimedWalStore final : public swst::WalStore {
 public:
  explicit TimedWalStore(swst::WalStore* inner) : inner_(inner) {}

  swst::Result<std::vector<uint64_t>> ListSegments() override {
    return inner_->ListSegments();
  }
  swst::Status CreateSegment(uint64_t seq) override;
  swst::Status DeleteSegment(uint64_t seq) override;
  swst::Status Append(uint64_t seq, const void* data, size_t n) override;
  swst::Status Sync(uint64_t seq) override;
  swst::Result<std::vector<char>> ReadSegment(uint64_t seq) override {
    return inner_->ReadSegment(seq);
  }
  swst::Status CorruptForTesting(uint64_t seq, uint64_t offset,
                                 uint32_t len) override {
    return inner_->CorruptForTesting(seq, offset, len);
  }

  CallStats append, sync, segment;

 private:
  swst::WalStore* inner_;
};

}  // namespace perfbench

#endif  // SWST_PERFBENCH_TIMED_IO_H_
