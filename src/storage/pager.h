#ifndef SWST_STORAGE_PAGER_H_
#define SWST_STORAGE_PAGER_H_

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "storage/page.h"

namespace swst {

/// Integrity trailer appended to every page by the file backend. The CRC is
/// a masked CRC32C (see `crc32c::Mask`) of the kPageSize payload; `page_id`
/// detects misdirected writes (a page persisted at the wrong offset).
struct PageTrailer {
  uint32_t crc;       ///< crc32c::Mask(crc32c of the payload).
  PageId page_id;     ///< The id this page was written as.
  uint64_t reserved;  ///< Zero; reserved for a future format version.
};
static_assert(sizeof(PageTrailer) == 16);

/// Physical on-disk size of one page in the file backend: the kPageSize
/// payload immediately followed by its `PageTrailer`. Page `i` lives at
/// file offset `i * kPhysicalPageSize`. The memory backend stores bare
/// payloads and has no trailers.
inline constexpr uint32_t kPhysicalPageSize =
    kPageSize + static_cast<uint32_t>(sizeof(PageTrailer));

/// One page read in a batch (see `Pager::SubmitReads`). `buf` must point
/// at `kPageSize` writable bytes that stay valid until the batch's `Await`
/// returns; `status` is undefined until then.
struct AsyncPageRead {
  PageId id = kInvalidPageId;
  void* buf = nullptr;
  Status status;
};

/// Calls `fn(start, length)` for every maximal run of adjacent ascending
/// page ids, where `id_at(i)` yields the i-th id of a sorted sequence of
/// `n` ids. Shared by the buffer pool's flush/write-back paths and the
/// file pager's batched reads, so run detection lives in one place
/// instead of being re-derived at each call site.
template <typename GetId, typename Fn>
void ForEachAdjacentRun(size_t n, GetId&& id_at, Fn&& fn) {
  for (size_t i = 0; i < n;) {
    size_t j = i + 1;
    while (j < n && id_at(j) == id_at(j - 1) + 1) ++j;
    fn(i, j - i);
    i = j;
  }
}

/// \brief Low-level page store: allocate/free/read/write fixed-size pages.
///
/// Two backends are provided:
///  - a file backend (`Pager::OpenFile`) with a superblock at page 0 holding
///    the page count and the head of an on-disk free-list (each free page
///    stores the id of the next free page in its first 4 bytes), and
///  - a memory backend (`Pager::OpenMemory`) with identical semantics, used
///    by unit tests and by benchmarks that only measure node accesses.
///
/// The file backend stamps a `PageTrailer` on every `WritePage` and
/// verifies it on every `ReadPage`; a mismatch (bit rot, torn write,
/// misdirected write) surfaces as `Status::Corruption`, never as a wrong
/// payload. See docs/storage.md, "Failure model & integrity".
///
/// The pager itself performs no caching; `BufferPool` sits on top.
class Pager {
 public:
  virtual ~Pager() = default;

  Pager(const Pager&) = delete;
  Pager& operator=(const Pager&) = delete;

  /// Opens (or creates) a page file at `path`. Truncates if `truncate`.
  static Result<std::unique_ptr<Pager>> OpenFile(const std::string& path,
                                                 bool truncate);

  /// Creates an in-memory pager.
  static std::unique_ptr<Pager> OpenMemory();

  /// Allocates a page, reusing a free page when available. The page's
  /// contents are unspecified; callers must fully initialize it.
  virtual Result<PageId> AllocatePage() = 0;

  /// Returns `id` to the free list. `id` must be a live allocated page.
  virtual Status FreePage(PageId id) = 0;

  /// Reads page `id` into `buf` (kPageSize bytes).
  virtual Status ReadPage(PageId id, void* buf) = 0;

  /// Writes `buf` (kPageSize bytes) to page `id`.
  virtual Status WritePage(PageId id, const void* buf) = 0;

  /// Reads `count` consecutive pages starting at `first` into `buf`
  /// (`count * kPageSize` bytes; page `first + i` lands at offset
  /// `i * kPageSize`). Loops over `ReadPage`, so decorators such as
  /// `FaultInjectionPager` still observe (and can fault) each page as its
  /// own operation. Batched reads go through `SubmitReads` instead.
  virtual Status ReadPages(PageId first, uint32_t count, void* buf);

  /// Writes `count` consecutive pages from `buf` starting at `first`, in
  /// the `ReadPages` layout. The base implementation loops over
  /// `WritePage`; the file backend overrides it with `pwritev` and stamps
  /// a fresh trailer per page.
  virtual Status WritePages(PageId first, uint32_t count, const void* buf);

  /// Handle for a batch of page reads submitted with `SubmitReads`.
  ///
  /// `Await` blocks until every read of the batch has completed and every
  /// request's `status` is set; it returns the first error encountered but
  /// — unlike the early-returning `ReadPages` — keeps completing the rest
  /// of the batch, so callers get per-request completion-time statuses.
  /// `Await` is idempotent; the destructor calls it as a last resort.
  ///
  /// Like every other pager method, `Await` (and destruction of an
  /// un-awaited batch) must be serialized with other calls into the same
  /// pager by the caller — `BufferPool` holds its pager mutex around both.
  class ReadBatch {
   public:
    virtual ~ReadBatch() = default;
    virtual Status Await() = 0;
    /// True when the batch's reads may still be in flight after
    /// `SubmitReads` returns. No backend does that; the hook stays because
    /// the benchmark's pager decorator (`perfbench/timed_io.h`) forwards it.
    virtual bool async() const { return false; }
  };

  /// Submits `n` independent page reads and returns a completion handle.
  ///
  /// The base implementation executes the batch immediately with one
  /// `ReadPage` per request (so decorators such as `FaultInjectionPager`
  /// observe, and can fault, each page as its own operation — errors are
  /// reported per request at completion time) and returns an
  /// already-complete handle. The file backend overrides this with sorted,
  /// run-coalesced `preadv` calls (one per run of adjacent pages, at most
  /// 32 pages each); the contents and per-request statuses are identical.
  virtual std::unique_ptr<ReadBatch> SubmitReads(AsyncPageRead* reqs,
                                                 size_t n);

  /// No-op: every backend executes `SubmitReads` synchronously. Kept
  /// virtual because the benchmark's pager decorator
  /// (`perfbench/timed_io.h`) overrides and forwards it.
  virtual void SetAsyncReads(bool enabled) { (void)enabled; }

  /// Read syscalls this pager has issued (one per preadv call). Zero
  /// for backends that do no syscalls. The async-read benchmark pins it.
  virtual uint64_t read_syscalls() const { return 0; }

  /// Flushes OS buffers to stable storage (no-op for the memory backend).
  virtual Status Sync() = 0;

  /// Testing hook: damages the stored image of page `id` by XOR-ing
  /// `len` payload bytes starting at `offset` with 0xA5, *without*
  /// updating the integrity trailer. On the file backend the next
  /// `ReadPage(id)` is guaranteed to return `Corruption`; the memory
  /// backend (no trailers) silently serves the damaged payload. Used by
  /// fault-injection and crash tests only.
  virtual Status CorruptPageForTesting(PageId id, uint32_t offset,
                                       uint32_t len) = 0;

  /// Total pages in the file, including the superblock and free pages.
  virtual uint64_t page_count() const = 0;

  /// Number of live (allocated, not freed) pages, excluding the superblock.
  virtual uint64_t live_page_count() const = 0;

 protected:
  Pager() = default;
};

}  // namespace swst

#endif  // SWST_STORAGE_PAGER_H_
