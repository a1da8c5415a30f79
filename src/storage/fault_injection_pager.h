#ifndef SWST_STORAGE_FAULT_INJECTION_PAGER_H_
#define SWST_STORAGE_FAULT_INJECTION_PAGER_H_

#include <random>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "storage/page.h"
#include "storage/pager.h"

namespace swst {

/// \brief Fault-injecting, crash-simulating decorator over any `Pager`.
///
/// Sits between a `BufferPool` and a real backend and makes I/O failure a
/// first-class, deterministic, observable event:
///
///  - **Write buffering / durability boundary.** `WritePage` and `FreePage`
///    are buffered in memory and only reach the base pager on `Sync()`
///    (`AllocatePage` file growth passes through, matching a real file
///    system where a file may grow without its contents being durable).
///    `CrashAndRecover()` drops everything buffered since the last
///    successful `Sync()` — the power-loss model: synced state survives,
///    unsynced state does not.
///  - **Deterministic fault schedule.** Fail exactly the Nth read / write /
///    sync (1-based lifetime counters, see `reads()` etc.), or tear the Nth
///    write so that only a prefix of the page survives the next crash.
///  - **Seeded probabilistic faults** for randomized soak tests; the same
///    seed and operation sequence always fails at the same points.
///
/// Injected failures return `Status::IOError` with an "injected" message
/// and leave no partial state: a failed write buffers nothing, a failed
/// sync keeps everything buffered for a later retry.
///
/// Torn writes: the write appears to succeed and reads back fully (the OS
/// page cache), but on `CrashAndRecover()` only the first `torn_bytes` of
/// the payload persist; the tail is replaced with garbage via
/// `CorruptPageForTesting`, so over a file backend the page's checksum no
/// longer matches and the next read returns `Corruption` — exactly how a
/// real torn write is detected.
///
/// Not internally synchronized (same contract as the backends): callers
/// serialize access, which `BufferPool` already does.
class FaultInjectionPager final : public Pager {
 public:
  struct FaultPolicy {
    /// One-shot deterministic triggers against the 1-based lifetime
    /// operation counters; 0 disables a trigger.
    uint64_t fail_read_at = 0;   ///< Fail the Nth ReadPage.
    uint64_t fail_write_at = 0;  ///< Fail the Nth WritePage.
    uint64_t fail_sync_at = 0;   ///< Fail the Nth Sync.
    uint64_t torn_write_at = 0;  ///< Tear the Nth WritePage (see above).
    uint32_t torn_bytes = kPageSize / 2;  ///< Prefix surviving a torn write.

    /// Probabilistic failures, evaluated (seeded, deterministic) on every
    /// operation that no one-shot trigger already failed.
    double read_fail_prob = 0.0;
    double write_fail_prob = 0.0;
    double sync_fail_prob = 0.0;
    uint64_t seed = 0;
  };

  /// Decorates `base` (not owned; must outlive this pager).
  explicit FaultInjectionPager(Pager* base);

  Result<PageId> AllocatePage() override;
  Status FreePage(PageId id) override;
  Status ReadPage(PageId id, void* buf) override;
  Status WritePage(PageId id, const void* buf) override;
  Status Sync() override;
  Status CorruptPageForTesting(PageId id, uint32_t offset,
                               uint32_t len) override;
  uint64_t page_count() const override;
  uint64_t live_page_count() const override;

  /// Batched reads run through the decorator-transparent base
  /// implementation: one virtual `ReadPage` per request, so Nth and
  /// probabilistic read faults, buffered (unsynced) images, and torn-page
  /// corruption all fire exactly as they would on single reads — the error
  /// simply surfaces at completion time in the request's `status`. Never
  /// forwards the batch to the base (its preadv path would bypass this
  /// decorator entirely).
  std::unique_ptr<ReadBatch> SubmitReads(AsyncPageRead* reqs,
                                         size_t n) override;
  uint64_t read_syscalls() const override { return base_->read_syscalls(); }

  /// Installs a fault schedule (resets the probabilistic RNG to
  /// `policy.seed`; lifetime operation counters are *not* reset).
  void set_policy(const FaultPolicy& policy);

  /// Disables all faults; buffered state and counters are untouched.
  void ClearFaults() { set_policy(FaultPolicy{}); }

  /// Simulates power loss + restart: applies torn-write prefixes to the
  /// base, then discards every buffered write and free since the last
  /// successful `Sync()`. The pager is usable again afterwards (faults
  /// stay armed; call `ClearFaults()` for a clean recovery run).
  Status CrashAndRecover();

  /// Lifetime operation counters (including operations that failed).
  uint64_t reads() const { return reads_; }
  uint64_t writes() const { return writes_; }
  uint64_t syncs() const { return syncs_; }
  /// Read batches submitted through `SubmitReads` (each batch's pages also
  /// count toward `reads()`, one per page).
  uint64_t batch_submits() const { return batch_submits_; }

  /// Pages with buffered (not yet durable) content.
  size_t unsynced_pages() const { return unsynced_.size(); }

 private:
  bool Roll(double prob);

  Pager* base_;
  FaultPolicy policy_;
  std::mt19937_64 rng_;

  /// Page images written since the last successful Sync.
  std::unordered_map<PageId, std::vector<char>> unsynced_;
  /// Pages whose buffered image must be torn at the next crash:
  /// id -> surviving prefix length.
  std::unordered_map<PageId, uint32_t> torn_;
  /// Pages freed since the last successful Sync (freed in the volatile
  /// view, still live in the base until Sync commits the free).
  std::vector<PageId> unsynced_free_;

  uint64_t reads_ = 0;
  uint64_t writes_ = 0;
  uint64_t syncs_ = 0;
  uint64_t batch_submits_ = 0;
};

}  // namespace swst

#endif  // SWST_STORAGE_FAULT_INJECTION_PAGER_H_
