#include "storage/pager.h"

#include <fcntl.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "storage/crc32c.h"

namespace swst {

namespace {

// Superblock layout (page 0).
struct Superblock {
  uint64_t magic;
  uint64_t page_count;      // Including the superblock.
  uint64_t live_pages;      // Excluding the superblock.
  PageId free_list_head;    // kInvalidPageId when empty.
};

constexpr uint64_t kMagic = 0x53575354'50414745ULL;  // "SWSTPAGE"

std::string Errno(const std::string& op) {
  return op + ": " + std::strerror(errno);
}

/// A batch whose reads were executed before the handle was returned (every
/// batch: the file backend's preadv path and the decorator-transparent base
/// path). `Await` just reports the first error; per-request statuses are
/// already set.
class CompletedReadBatch final : public Pager::ReadBatch {
 public:
  explicit CompletedReadBatch(Status first) : first_(std::move(first)) {}
  Status Await() override { return first_; }

 private:
  Status first_;
};

class FilePager final : public Pager {
 public:
  FilePager(int fd, std::string path) : fd_(fd), path_(std::move(path)) {}

  ~FilePager() override {
    if (fd_ >= 0) {
      WriteSuperblock();
      ::close(fd_);
    }
  }

  Status Init(bool truncate) {
    off_t size = ::lseek(fd_, 0, SEEK_END);
    if (size < 0) return Status::IOError(Errno("lseek " + path_));
    if (truncate || size < static_cast<off_t>(kPhysicalPageSize)) {
      if (::ftruncate(fd_, 0) != 0) {
        return Status::IOError(Errno("ftruncate " + path_));
      }
      sb_.magic = kMagic;
      sb_.page_count = 1;
      sb_.live_pages = 0;
      sb_.free_list_head = kInvalidPageId;
      return WriteSuperblock();
    }
    char buf[kPageSize];
    SWST_RETURN_IF_ERROR(ReadRaw(0, buf));
    std::memcpy(&sb_, buf, sizeof(sb_));
    if (sb_.magic != kMagic) {
      return Status::Corruption("bad pager magic in " + path_);
    }
    if (sb_.page_count * static_cast<uint64_t>(kPhysicalPageSize) >
        static_cast<uint64_t>(size)) {
      return Status::Corruption("pager file shorter than superblock claims: " +
                                path_);
    }
    return Status::OK();
  }

  Result<PageId> AllocatePage() override {
    PageId id;
    if (sb_.free_list_head != kInvalidPageId) {
      id = sb_.free_list_head;
      char buf[kPageSize];
      SWST_RETURN_IF_ERROR(ReadRaw(id, buf));
      std::memcpy(&sb_.free_list_head, buf, sizeof(PageId));
    } else {
      id = static_cast<PageId>(sb_.page_count);
      sb_.page_count++;
      // Extend the file so subsequent reads of this page succeed.
      char zero[kPageSize] = {};
      SWST_RETURN_IF_ERROR(WriteRaw(id, zero));
    }
    sb_.live_pages++;
    return id;
  }

  Status FreePage(PageId id) override {
    if (id == kInvalidPageId || id >= sb_.page_count) {
      return Status::InvalidArgument("FreePage: bad page id");
    }
    char buf[kPageSize] = {};
    std::memcpy(buf, &sb_.free_list_head, sizeof(PageId));
    SWST_RETURN_IF_ERROR(WriteRaw(id, buf));
    sb_.free_list_head = id;
    sb_.live_pages--;
    return Status::OK();
  }

  Status ReadPage(PageId id, void* buf) override {
    if (id == kInvalidPageId || id >= sb_.page_count) {
      return Status::InvalidArgument("ReadPage: bad page id");
    }
    return ReadRaw(id, buf);
  }

  Status WritePage(PageId id, const void* buf) override {
    if (id == kInvalidPageId || id >= sb_.page_count) {
      return Status::InvalidArgument("WritePage: bad page id");
    }
    return WriteRaw(id, buf);
  }

  // Vectored multi-page I/O (SubmitReads, WritePages): one preadv/pwritev
  // per chunk of up to kIovPages consecutive pages, with interleaved
  // payload/trailer iovecs so the physical range is covered by a single
  // syscall. A short or failed transfer retries that chunk through the
  // per-page path, which reports the precise error.
  static constexpr uint32_t kIovPages = 32;

  Status WritePages(PageId first, uint32_t count, const void* buf) override {
    if (first == kInvalidPageId ||
        static_cast<uint64_t>(first) + count > sb_.page_count) {
      return Status::InvalidArgument("WritePages: bad page range");
    }
    const char* src = static_cast<const char*>(buf);
    for (uint32_t done = 0; done < count;) {
      const uint32_t n = std::min(kIovPages, count - done);
      PageTrailer trailers[kIovPages];
      struct iovec iov[2 * kIovPages];
      for (uint32_t i = 0; i < n; ++i) {
        const PageId id = first + done + i;
        const char* payload = src + (done + i) * kPageSize;
        trailers[i] =
            PageTrailer{crc32c::Mask(crc32c::Compute(payload, kPageSize)),
                        id, 0};
        iov[2 * i] = {const_cast<char*>(payload), kPageSize};
        iov[2 * i + 1] = {&trailers[i], sizeof(PageTrailer)};
      }
      const off_t off = static_cast<off_t>(first + done) * kPhysicalPageSize;
      const ssize_t want = static_cast<ssize_t>(n) * kPhysicalPageSize;
      if (::pwritev(fd_, iov, static_cast<int>(2 * n), off) != want) {
        for (uint32_t i = 0; i < n; ++i) {
          SWST_RETURN_IF_ERROR(
              WriteRaw(first + done + i, src + (done + i) * kPageSize));
        }
      }
      done += n;
    }
    return Status::OK();
  }

  Status Sync() override {
    SWST_RETURN_IF_ERROR(WriteSuperblock());
    if (::fdatasync(fd_) != 0) {
      return Status::IOError(Errno("fdatasync " + path_));
    }
    return Status::OK();
  }

  uint64_t page_count() const override { return sb_.page_count; }
  uint64_t live_page_count() const override { return sb_.live_pages; }

  uint64_t read_syscalls() const override {
    return read_syscalls_.load(std::memory_order_relaxed);
  }

  /// Executes the batch now: requests are sorted by page id and each run of
  /// adjacent ids is read with one preadv per chunk of up to kIovPages
  /// pages, straight into the scattered destination buffers (no bounce
  /// copy), per page on short transfers. Statuses are per request; the
  /// batch keeps going past errors.
  std::unique_ptr<ReadBatch> SubmitReads(AsyncPageRead* reqs,
                                         size_t n) override {
    std::vector<size_t> order(n);
    for (size_t i = 0; i < n; ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      return reqs[a].id < reqs[b].id;
    });
    Status first;
    auto note = [&](AsyncPageRead& r, Status st) {
      r.status = std::move(st);
      if (!r.status.ok() && first.ok()) first = r.status;
    };
    ForEachAdjacentRun(
        n, [&](size_t i) { return reqs[order[i]].id; },
        [&](size_t start, size_t len) {
          for (size_t done = 0; done < len;) {
            const uint32_t chunk =
                std::min<uint32_t>(kIovPages, static_cast<uint32_t>(len - done));
            AsyncPageRead* chunk_reqs[kIovPages];
            bool valid = true;
            for (uint32_t i = 0; i < chunk; ++i) {
              chunk_reqs[i] = &reqs[order[start + done + i]];
              const PageId id = chunk_reqs[i]->id;
              if (id == kInvalidPageId || id >= sb_.page_count) {
                note(*chunk_reqs[i],
                     Status::InvalidArgument("ReadPage: bad page id"));
                valid = false;
              }
            }
            if (!valid) {
              for (uint32_t i = 0; i < chunk; ++i) {
                if (chunk_reqs[i]->status.ok() &&
                    chunk_reqs[i]->id != kInvalidPageId &&
                    chunk_reqs[i]->id < sb_.page_count) {
                  note(*chunk_reqs[i],
                       ReadRaw(chunk_reqs[i]->id, chunk_reqs[i]->buf));
                }
              }
              done += chunk;
              continue;
            }
            PageTrailer trailers[kIovPages];
            struct iovec iov[2 * kIovPages];
            for (uint32_t i = 0; i < chunk; ++i) {
              iov[2 * i] = {chunk_reqs[i]->buf, kPageSize};
              iov[2 * i + 1] = {&trailers[i], sizeof(PageTrailer)};
            }
            const off_t off =
                static_cast<off_t>(chunk_reqs[0]->id) * kPhysicalPageSize;
            const ssize_t want =
                static_cast<ssize_t>(chunk) * kPhysicalPageSize;
            read_syscalls_.fetch_add(1, std::memory_order_relaxed);
            if (::preadv(fd_, iov, static_cast<int>(2 * chunk), off) != want) {
              for (uint32_t i = 0; i < chunk; ++i) {
                note(*chunk_reqs[i],
                     ReadRaw(chunk_reqs[i]->id, chunk_reqs[i]->buf));
              }
            } else {
              for (uint32_t i = 0; i < chunk; ++i) {
                note(*chunk_reqs[i],
                     VerifyTrailer(chunk_reqs[i]->id, chunk_reqs[i]->buf,
                                   trailers[i]));
              }
            }
            done += chunk;
          }
        });
    return std::make_unique<CompletedReadBatch>(std::move(first));
  }

  Status CorruptPageForTesting(PageId id, uint32_t offset,
                               uint32_t len) override {
    if (id >= sb_.page_count || offset + len > kPageSize) {
      return Status::InvalidArgument("CorruptPageForTesting: bad range");
    }
    const off_t off = static_cast<off_t>(id) * kPhysicalPageSize + offset;
    std::vector<char> bytes(len);
    if (::pread(fd_, bytes.data(), len, off) != static_cast<ssize_t>(len)) {
      return Status::IOError(Errno("pread " + path_));
    }
    for (char& b : bytes) b = static_cast<char>(b ^ 0xA5);
    if (::pwrite(fd_, bytes.data(), len, off) != static_cast<ssize_t>(len)) {
      return Status::IOError(Errno("pwrite " + path_));
    }
    return Status::OK();
  }

 private:
  /// Verifies a page's integrity trailer against its freshly read payload.
  Status VerifyTrailer(PageId id, const void* payload,
                       const PageTrailer& tr) const {
    const uint32_t expect = crc32c::Compute(payload, kPageSize);
    if (crc32c::Unmask(tr.crc) != expect) {
      return Status::Corruption("checksum mismatch on page " +
                                std::to_string(id) + " of " + path_);
    }
    if (tr.page_id != id) {
      return Status::Corruption("misdirected write: page " +
                                std::to_string(id) + " of " + path_ +
                                " carries id " + std::to_string(tr.page_id));
    }
    return Status::OK();
  }

  /// Reads the payload of page `id` into `buf` and verifies its trailer:
  /// one preadv over {payload, trailer}.
  Status ReadRaw(PageId id, void* buf) {
    PageTrailer tr;
    struct iovec iov[2] = {{buf, kPageSize}, {&tr, sizeof(tr)}};
    read_syscalls_.fetch_add(1, std::memory_order_relaxed);
    if (::preadv(fd_, iov, 2, static_cast<off_t>(id) * kPhysicalPageSize) !=
        static_cast<ssize_t>(kPhysicalPageSize)) {
      return Status::IOError(Errno("preadv " + path_));
    }
    return VerifyTrailer(id, buf, tr);
  }

  /// Writes the payload of page `id` and stamps a fresh trailer: one
  /// pwritev over {payload, trailer}.
  Status WriteRaw(PageId id, const void* buf) {
    PageTrailer tr{crc32c::Mask(crc32c::Compute(buf, kPageSize)), id, 0};
    struct iovec iov[2] = {{const_cast<void*>(buf), kPageSize},
                           {&tr, sizeof(tr)}};
    if (::pwritev(fd_, iov, 2, static_cast<off_t>(id) * kPhysicalPageSize) !=
        static_cast<ssize_t>(kPhysicalPageSize)) {
      return Status::IOError(Errno("pwritev " + path_));
    }
    return Status::OK();
  }

  Status WriteSuperblock() {
    char buf[kPageSize] = {};
    std::memcpy(buf, &sb_, sizeof(sb_));
    return WriteRaw(0, buf);
  }

  int fd_;
  std::string path_;
  Superblock sb_{};
  mutable std::atomic<uint64_t> read_syscalls_{0};
};

class MemPager final : public Pager {
 public:
  MemPager() {
    pages_.emplace_back();  // Superblock placeholder; never handed out.
  }

  Result<PageId> AllocatePage() override {
    PageId id;
    if (!free_.empty()) {
      id = free_.back();
      free_.pop_back();
    } else {
      id = static_cast<PageId>(pages_.size());
      pages_.emplace_back();
    }
    live_++;
    return id;
  }

  Status FreePage(PageId id) override {
    if (id == kInvalidPageId || id >= pages_.size()) {
      return Status::InvalidArgument("FreePage: bad page id");
    }
    free_.push_back(id);
    live_--;
    return Status::OK();
  }

  Status ReadPage(PageId id, void* buf) override {
    if (id == kInvalidPageId || id >= pages_.size()) {
      return Status::InvalidArgument("ReadPage: bad page id");
    }
    std::memcpy(buf, pages_[id].data(), kPageSize);
    return Status::OK();
  }

  Status WritePage(PageId id, const void* buf) override {
    if (id == kInvalidPageId || id >= pages_.size()) {
      return Status::InvalidArgument("WritePage: bad page id");
    }
    std::memcpy(pages_[id].data(), buf, kPageSize);
    return Status::OK();
  }

  Status Sync() override { return Status::OK(); }

  Status CorruptPageForTesting(PageId id, uint32_t offset,
                               uint32_t len) override {
    if (id >= pages_.size() || offset + len > kPageSize) {
      return Status::InvalidArgument("CorruptPageForTesting: bad range");
    }
    char* p = pages_[id].data() + offset;
    for (uint32_t i = 0; i < len; ++i) p[i] = static_cast<char>(p[i] ^ 0xA5);
    return Status::OK();
  }

  uint64_t page_count() const override { return pages_.size(); }
  uint64_t live_page_count() const override { return live_; }

 private:
  struct PageBuf {
    PageBuf() : bytes(kPageSize, 0) {}
    char* data() { return bytes.data(); }
    std::vector<char> bytes;
  };

  std::vector<PageBuf> pages_;
  std::vector<PageId> free_;
  uint64_t live_ = 0;
};

}  // namespace

Status Pager::ReadPages(PageId first, uint32_t count, void* buf) {
  char* dst = static_cast<char*>(buf);
  for (uint32_t i = 0; i < count; ++i, dst += kPageSize) {
    SWST_RETURN_IF_ERROR(ReadPage(first + i, dst));
  }
  return Status::OK();
}

Status Pager::WritePages(PageId first, uint32_t count, const void* buf) {
  const char* src = static_cast<const char*>(buf);
  for (uint32_t i = 0; i < count; ++i, src += kPageSize) {
    SWST_RETURN_IF_ERROR(WritePage(first + i, src));
  }
  return Status::OK();
}

std::unique_ptr<Pager::ReadBatch> Pager::SubmitReads(AsyncPageRead* reqs,
                                                     size_t n) {
  // Executed eagerly, one virtual ReadPage per request, so decorators see
  // every page as its own operation and can fault it individually. Unlike
  // ReadPages this keeps going past errors: the batch contract is that
  // every request ends with a definite status.
  Status first;
  for (size_t i = 0; i < n; ++i) {
    reqs[i].status = ReadPage(reqs[i].id, reqs[i].buf);
    if (!reqs[i].status.ok() && first.ok()) first = reqs[i].status;
  }
  return std::make_unique<CompletedReadBatch>(std::move(first));
}

Result<std::unique_ptr<Pager>> Pager::OpenFile(const std::string& path,
                                               bool truncate) {
  int fd = ::open(path.c_str(), O_RDWR | O_CREAT, 0644);
  if (fd < 0) {
    return Status::IOError(Errno("open " + path));
  }
  auto pager = std::make_unique<FilePager>(fd, path);
  Status st = pager->Init(truncate);
  if (!st.ok()) return st;
  return Result<std::unique_ptr<Pager>>(std::move(pager));
}

std::unique_ptr<Pager> Pager::OpenMemory() {
  return std::make_unique<MemPager>();
}

}  // namespace swst
