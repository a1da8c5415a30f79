#include "storage/wal.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <map>

#include "obs/flight_recorder.h"
#include "storage/crc32c.h"

namespace swst {
namespace {

std::string Errno(const std::string& what) {
  return what + ": " + std::strerror(errno);
}

uint64_t MicrosSince(std::chrono::steady_clock::time_point t0) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
}

/// Masked CRC32C over a record frame: every header byte after the crc
/// field, then the payload.
uint32_t FrameCrc(const WalRecordHeader& h, const void* payload) {
  const char* after_crc =
      reinterpret_cast<const char*>(&h) + sizeof(h.crc);
  uint32_t crc = crc32c::Compute(after_crc, sizeof(h) - sizeof(h.crc));
  crc = crc32c::Extend(crc, payload, h.len);
  return crc32c::Mask(crc);
}

bool AllZero(const char* p, size_t n) {
  return std::all_of(p, p + n, [](char c) { return c == 0; });
}

uint32_t SegmentHeaderCrc(const WalSegmentHeader& h) {
  return crc32c::Mask(
      crc32c::Compute(&h, sizeof(h) - sizeof(h.crc)));
}

// ---------------------------------------------------------------------------
// In-memory store (tests).

class MemoryWalStore final : public WalStore {
 public:
  Result<std::vector<uint64_t>> ListSegments() override {
    std::vector<uint64_t> out;
    out.reserve(segments_.size());
    for (const auto& [seq, bytes] : segments_) out.push_back(seq);
    return out;
  }

  Status CreateSegment(uint64_t seq) override {
    segments_.try_emplace(seq);
    return Status::OK();
  }

  Status DeleteSegment(uint64_t seq) override {
    segments_.erase(seq);
    return Status::OK();
  }

  Status Append(uint64_t seq, const void* data, size_t n) override {
    auto it = segments_.find(seq);
    if (it == segments_.end()) {
      return Status::NotFound("wal append: no segment " + std::to_string(seq));
    }
    const char* p = static_cast<const char*>(data);
    it->second.insert(it->second.end(), p, p + n);
    return Status::OK();
  }

  Status Sync(uint64_t) override { return Status::OK(); }

  Result<std::vector<char>> ReadSegment(uint64_t seq) override {
    auto it = segments_.find(seq);
    if (it == segments_.end()) {
      return Status::NotFound("wal read: no segment " + std::to_string(seq));
    }
    return it->second;
  }

  Status CorruptForTesting(uint64_t seq, uint64_t offset,
                           uint32_t len) override {
    auto it = segments_.find(seq);
    if (it == segments_.end()) {
      return Status::NotFound("wal corrupt: no segment " +
                              std::to_string(seq));
    }
    if (offset + len > it->second.size()) {
      return Status::OutOfRange("wal corrupt: range past segment end");
    }
    for (uint32_t i = 0; i < len; ++i) {
      it->second[offset + i] = static_cast<char>(it->second[offset + i] ^ 0xA5);
    }
    return Status::OK();
  }

 private:
  std::map<uint64_t, std::vector<char>> segments_;  ///< Sorted by seq.
};

// ---------------------------------------------------------------------------
// Directory-of-files store. A segment grows in preallocated extents of
// kWalExtentBytes and records are written with pwrite below its size, so
// a record's fdatasync usually commits data only, not a size change. The
// zero-filled rest of the last extent reads as the end of the records
// (see ReplayLocked).

class DirWalStore final : public WalStore {
  /// A segment this store created, with its write position.
  struct OpenSegment {
    int fd = -1;
    uint64_t end = 0;        ///< Bytes appended; the next append's offset.
    uint64_t allocated = 0;  ///< File size: `end` rounded up to extents.
  };

 public:
  explicit DirWalStore(std::string dir) : dir_(std::move(dir)) {}

  ~DirWalStore() override {
    for (auto& [seq, seg] : fds_) ::close(seg.fd);
  }

  Result<std::vector<uint64_t>> ListSegments() override {
    DIR* d = ::opendir(dir_.c_str());
    if (d == nullptr) return Status::IOError(Errno("opendir " + dir_));
    std::vector<uint64_t> out;
    while (dirent* e = ::readdir(d)) {
      unsigned long long seq = 0;  // NOLINT(runtime/int): scanf type.
      if (std::sscanf(e->d_name, "wal-%12llu.log", &seq) == 1 &&
          SegmentName(seq) == e->d_name) {
        out.push_back(seq);
      }
    }
    ::closedir(d);
    std::sort(out.begin(), out.end());
    return out;
  }

  Status CreateSegment(uint64_t seq) override {
    CloseCached(seq);
    const std::string path = SegmentPath(seq);
    int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_CLOEXEC, 0644);
    if (fd < 0) return Status::IOError(Errno("open " + path));
    struct stat st;
    if (::fstat(fd, &st) != 0) {
      ::close(fd);
      return Status::IOError(Errno("fstat " + path));
    }
    // An existing file keeps its bytes; appends continue at its end.
    const auto size = static_cast<uint64_t>(st.st_size);
    fds_[seq] = OpenSegment{fd, size, size};
    // Make the new name durable: a segment that exists after a crash but
    // whose creation never reached the directory would strand its records.
    return SyncDir();
  }

  Status DeleteSegment(uint64_t seq) override {
    CloseCached(seq);
    if (::unlink(SegmentPath(seq).c_str()) != 0 && errno != ENOENT) {
      return Status::IOError(Errno("unlink " + SegmentPath(seq)));
    }
    return SyncDir();
  }

  Status Append(uint64_t seq, const void* data, size_t n) override {
    OpenSegment* seg = nullptr;
    SWST_RETURN_IF_ERROR(Find(seq, &seg));
    const uint64_t need = seg->end + n;
    if (need > seg->allocated) {
      // Grow by whole extents before writing, so a failed preallocation
      // writes nothing and most appends land inside the file's size.
      const uint64_t grown =
          (need + kWalExtentBytes - 1) / kWalExtentBytes *
          kWalExtentBytes;
      const int rc =
          ::posix_fallocate(seg->fd, static_cast<off_t>(seg->allocated),
                            static_cast<off_t>(grown - seg->allocated));
      if (rc != 0) {
        return Status::IOError("posix_fallocate " + SegmentPath(seq) + ": " +
                               std::strerror(rc));
      }
      seg->allocated = grown;
    }
    const char* p = static_cast<const char*>(data);
    size_t done = 0;
    while (done < n) {
      const ssize_t w = ::pwrite(seg->fd, p + done, n - done,
                                 static_cast<off_t>(seg->end + done));
      if (w < 0) {
        if (errno == EINTR) continue;
        return Status::IOError(Errno("pwrite " + SegmentPath(seq)));
      }
      done += static_cast<size_t>(w);
    }
    seg->end = need;
    return Status::OK();
  }

  Status Sync(uint64_t seq) override {
    OpenSegment* seg = nullptr;
    SWST_RETURN_IF_ERROR(Find(seq, &seg));
    if (::fdatasync(seg->fd) != 0) {
      return Status::IOError(Errno("fdatasync " + SegmentPath(seq)));
    }
    return Status::OK();
  }

  Result<std::vector<char>> ReadSegment(uint64_t seq) override {
    const std::string path = SegmentPath(seq);
    int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0) {
      if (errno == ENOENT) return Status::NotFound("wal segment " + path);
      return Status::IOError(Errno("open " + path));
    }
    struct stat st;
    if (::fstat(fd, &st) != 0) {
      ::close(fd);
      return Status::IOError(Errno("fstat " + path));
    }
    std::vector<char> bytes(static_cast<size_t>(st.st_size));
    size_t done = 0;
    while (done < bytes.size()) {
      const ssize_t r = ::pread(fd, bytes.data() + done, bytes.size() - done,
                                static_cast<off_t>(done));
      if (r < 0) {
        if (errno == EINTR) continue;
        ::close(fd);
        return Status::IOError(Errno("pread " + path));
      }
      if (r == 0) break;  // Shrunk under us; scanner handles short tails.
      done += static_cast<size_t>(r);
    }
    bytes.resize(done);
    ::close(fd);
    return bytes;
  }

  Status CorruptForTesting(uint64_t seq, uint64_t offset,
                           uint32_t len) override {
    const std::string path = SegmentPath(seq);
    int fd = ::open(path.c_str(), O_RDWR | O_CLOEXEC);
    if (fd < 0) return Status::IOError(Errno("open " + path));
    std::vector<char> bytes(len);
    if (::pread(fd, bytes.data(), len, static_cast<off_t>(offset)) !=
        static_cast<ssize_t>(len)) {
      ::close(fd);
      return Status::IOError(Errno("pread " + path));
    }
    for (char& b : bytes) b = static_cast<char>(b ^ 0xA5);
    if (::pwrite(fd, bytes.data(), len, static_cast<off_t>(offset)) !=
        static_cast<ssize_t>(len)) {
      ::close(fd);
      return Status::IOError(Errno("pwrite " + path));
    }
    ::close(fd);
    return Status::OK();
  }

 private:
  static std::string SegmentName(uint64_t seq) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "wal-%012llu.log",
                  static_cast<unsigned long long>(seq));
    return buf;
  }

  std::string SegmentPath(uint64_t seq) const {
    return dir_ + "/" + SegmentName(seq);
  }

  void CloseCached(uint64_t seq) {
    auto it = fds_.find(seq);
    if (it != fds_.end()) {
      ::close(it->second.fd);
      fds_.erase(it);
    }
  }

  /// Appends and syncs go only to segments this store created: `Wal`
  /// rotates to a fresh segment on open, so it never writes an old one.
  Status Find(uint64_t seq, OpenSegment** out) {
    auto it = fds_.find(seq);
    if (it == fds_.end()) {
      return Status::InvalidArgument("wal segment " + std::to_string(seq) +
                                     " was not created by this store");
    }
    *out = &it->second;
    return Status::OK();
  }

  Status SyncDir() {
    int fd = ::open(dir_.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
    if (fd < 0) return Status::IOError(Errno("open " + dir_));
    const int rc = ::fsync(fd);
    ::close(fd);
    if (rc != 0) return Status::IOError(Errno("fsync " + dir_));
    return Status::OK();
  }

  std::string dir_;
  std::map<uint64_t, OpenSegment> fds_;  ///< Created segments by seq.
};

}  // namespace

Result<std::unique_ptr<WalStore>> WalStore::OpenDir(const std::string& dir) {
  if (::mkdir(dir.c_str(), 0755) != 0 && errno != EEXIST) {
    return Status::IOError(Errno("mkdir " + dir));
  }
  struct stat st;
  if (::stat(dir.c_str(), &st) != 0 || !S_ISDIR(st.st_mode)) {
    return Status::IOError("wal path is not a directory: " + dir);
  }
  return std::unique_ptr<WalStore>(new DirWalStore(dir));
}

std::unique_ptr<WalStore> WalStore::OpenMemory() {
  return std::make_unique<MemoryWalStore>();
}

// ---------------------------------------------------------------------------
// Wal.

Wal::Wal(WalStore* store, const WalOptions& options)
    : store_(store), options_(options) {
  RegisterMetrics();
}

Wal::~Wal() {
  if (options_.metrics != nullptr) {
    options_.metrics->UnregisterCallbacksByOwner(this);
  }
}

void Wal::RegisterMetrics() {
  obs::MetricsRegistry* r = options_.metrics;
  if (r == nullptr) return;
  m_records_ =
      r->RegisterCounter("swst_wal_records_total", "Records appended");
  m_bytes_ = r->RegisterCounter("swst_wal_bytes_total",
                                "Bytes appended (frames + payloads)");
  m_syncs_ = r->RegisterCounter("swst_wal_syncs_total",
                                "Backend segment syncs (fdatasync calls)");
  m_segments_created_ = r->RegisterCounter("swst_wal_segments_created_total",
                                           "Segments created (rotations)");
  m_segments_deleted_ = r->RegisterCounter(
      "swst_wal_segments_deleted_total", "Segments deleted by checkpoints");
  m_replay_records_ = r->RegisterCounter("swst_wal_replay_records_total",
                                         "Records delivered by replays");
  m_replay_torn_tails_ =
      r->RegisterCounter("swst_wal_replay_torn_tails_total",
                         "Replays that ended at a torn or corrupt frame");
  m_group_commit_records_ =
      r->RegisterHistogram("swst_wal_group_commit_records",
                           "Records made durable per group commit (Sync)");
  m_sync_us_ = r->RegisterHistogram("swst_wal_sync_us",
                                    "Wall microseconds per Wal::Sync");
  m_replay_us_ = r->RegisterHistogram("swst_wal_replay_us",
                                      "Wall microseconds per Wal::Replay");
  r->RegisterCallback(
      "swst_wal_last_lsn", "Last assigned LSN",
      [this] { return static_cast<int64_t>(last_lsn()); }, this);
  r->RegisterCallback(
      "swst_wal_durable_lsn", "Last LSN made durable by a sync",
      [this] { return static_cast<int64_t>(durable_lsn()); }, this);
  r->RegisterCallback(
      "swst_wal_segments", "Live log segments",
      [this] { return static_cast<int64_t>(segment_count()); }, this);
}

Result<std::unique_ptr<Wal>> Wal::Open(WalStore* store,
                                       const WalOptions& options) {
  if (store == nullptr) {
    return Status::InvalidArgument("Wal::Open: null store");
  }
  std::unique_ptr<Wal> wal(new Wal(store, options));
  std::lock_guard<std::mutex> lock(wal->mu_);
  Result<std::vector<uint64_t>> seqs = store->ListSegments();
  if (!seqs.ok()) return seqs.status();
  for (uint64_t seq : *seqs) {
    // first_lsn/bytes are filled in by the scan below.
    wal->segments_.push_back(SegmentInfo{seq, kInvalidLsn, 0, false});
    wal->next_seq_ = std::max(wal->next_seq_, seq + 1);
  }
  // Scan existing records to find the last valid LSN. Everything readable
  // now is, by definition, what survived; it becomes the replayable
  // history and the durable floor.
  Result<WalReplayResult> scan = wal->ReplayLocked(1, nullptr);
  if (!scan.ok()) return scan.status();
  // The last assigned LSN is the newest surviving record — or, when
  // checkpoint truncation has deleted every record-bearing segment, the
  // newest valid segment header's first_lsn - 1 (rotation persists the
  // next LSN there). Without the header floor a reopened log would
  // restart LSNs below the checkpoint watermark and recovery would skip
  // new records as already applied.
  Lsn last = scan->last_lsn;
  for (const SegmentInfo& seg : wal->segments_) {
    if (seg.first_lsn != kInvalidLsn) {
      last = std::max(last, seg.first_lsn - 1);
    }
  }
  // Segments whose header never persisted hold no records; give them a
  // conservative (lower-bound) first_lsn so TruncateBefore can still
  // reason about — and eventually delete — them.
  Lsn running = 1;
  for (SegmentInfo& seg : wal->segments_) {
    if (seg.first_lsn == kInvalidLsn) {
      seg.first_lsn = running;
    } else {
      running = std::max(running, seg.first_lsn);
    }
  }
  wal->last_lsn_.store(last, std::memory_order_release);
  wal->durable_lsn_.store(last, std::memory_order_release);
  // Never append to a possibly-torn tail: always start a fresh segment.
  SWST_RETURN_IF_ERROR(wal->RotateLocked());
  return wal;
}

Status Wal::RotateLocked() {
  // The seq is burned even on failure so a half-written header is never
  // extended with live records.
  const uint64_t seq = next_seq_++;
  SWST_RETURN_IF_ERROR(store_->CreateSegment(seq));
  WalSegmentHeader hdr{};
  hdr.magic = kWalMagic;
  hdr.seq = seq;
  hdr.first_lsn = last_lsn_.load(std::memory_order_relaxed) + 1;
  hdr.reserved = 0;
  hdr.crc = SegmentHeaderCrc(hdr);
  SWST_RETURN_IF_ERROR(store_->Append(seq, &hdr, sizeof(hdr)));
  segments_.push_back(SegmentInfo{seq, hdr.first_lsn, sizeof(hdr), true});
  if (m_segments_created_ != nullptr) m_segments_created_->Increment();
  obs::RecordEvent(obs::EventType::kWalRotate, seq, hdr.first_lsn);
  return Status::OK();
}

Result<Lsn> Wal::Append(WalRecordType type, const void* payload,
                        uint32_t len) {
  if (len > kMaxPayload) {
    return Status::InvalidArgument("wal record payload too large");
  }
  if (len != 0 && payload == nullptr) {
    return Status::InvalidArgument("wal append: null payload");
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (append_broken_ || segments_.empty()) {
    // A previous append may have left a partial frame; seal that segment
    // off and continue on a fresh one.
    SWST_RETURN_IF_ERROR(RotateLocked());
    append_broken_ = false;
  }
  if (segments_.back().bytes + sizeof(WalRecordHeader) + len >
          options_.segment_bytes &&
      segments_.back().bytes > sizeof(WalSegmentHeader)) {
    SWST_RETURN_IF_ERROR(RotateLocked());
  }
  SegmentInfo& cur = segments_.back();

  WalRecordHeader hdr{};
  hdr.len = len;
  hdr.lsn = last_lsn_.load(std::memory_order_relaxed) + 1;
  hdr.type = static_cast<uint32_t>(type);
  hdr.reserved = 0;
  hdr.crc = FrameCrc(hdr, payload);

  frame_.resize(sizeof(hdr) + len);
  std::memcpy(frame_.data(), &hdr, sizeof(hdr));
  if (len != 0) std::memcpy(frame_.data() + sizeof(hdr), payload, len);
  Status st = store_->Append(cur.seq, frame_.data(), frame_.size());
  if (!st.ok()) {
    append_broken_ = true;
    return st;
  }
  cur.bytes += frame_.size();
  cur.dirty = true;
  pending_records_++;
  last_lsn_.store(hdr.lsn, std::memory_order_release);
  if (m_records_ != nullptr) {
    m_records_->Increment();
    m_bytes_->Increment(frame_.size());
  }
  return hdr.lsn;
}

Status Wal::Sync() {
  const auto t0 = std::chrono::steady_clock::now();
  std::lock_guard<std::mutex> lock(mu_);
  const Lsn target = last_lsn_.load(std::memory_order_relaxed);
  if (target == durable_lsn_.load(std::memory_order_relaxed)) {
    return Status::OK();  // Nothing new; keep group-commit stats honest.
  }
  for (SegmentInfo& seg : segments_) {
    if (!seg.dirty) continue;
    SWST_RETURN_IF_ERROR(store_->Sync(seg.seq));
    seg.dirty = false;
    if (m_syncs_ != nullptr) m_syncs_->Increment();
  }
  durable_lsn_.store(target, std::memory_order_release);
  if (m_group_commit_records_ != nullptr && pending_records_ != 0) {
    m_group_commit_records_->Record(pending_records_);
  }
  pending_records_ = 0;
  if (m_sync_us_ != nullptr) m_sync_us_->Record(MicrosSince(t0));
  return Status::OK();
}

Result<WalReplayResult> Wal::Replay(Lsn from, const ReplayFn& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  std::lock_guard<std::mutex> lock(mu_);
  Result<WalReplayResult> out = ReplayLocked(from, fn);
  if (out.ok()) {
    if (m_replay_records_ != nullptr) {
      m_replay_records_->Increment(out->records_delivered);
      if (out->torn_tail) m_replay_torn_tails_->Increment();
    }
    if (m_replay_us_ != nullptr) m_replay_us_->Record(MicrosSince(t0));
  }
  return out;
}

Result<WalReplayResult> Wal::ReplayLocked(Lsn from, const ReplayFn& fn) {
  WalReplayResult out;
  Lsn expect = kInvalidLsn;  // Unset until the first valid record.
  for (size_t i = 0; i < segments_.size(); ++i) {
    SegmentInfo& seg = segments_[i];
    Result<std::vector<char>> bytes = store_->ReadSegment(seg.seq);
    if (!bytes.ok()) {
      if (bytes.status().IsNotFound()) continue;  // Created, never persisted.
      return bytes.status();
    }
    out.segments_scanned++;
    const std::vector<char>& data = *bytes;
    if (AllZero(data.data(), data.size())) {
      continue;  // Creation (and preallocation) survived, header did not.
    }
    if (data.size() < sizeof(WalSegmentHeader)) {
      // Header torn mid-write. No record can live here; later segments
      // are still scanned — LSN continuity below catches any real gap.
      out.torn_tail = true;
      continue;
    }
    WalSegmentHeader hdr;
    std::memcpy(&hdr, data.data(), sizeof(hdr));
    if (hdr.magic != kWalMagic || hdr.seq != seg.seq ||
        hdr.crc != SegmentHeaderCrc(hdr)) {
      out.torn_tail = true;
      continue;
    }
    if (seg.first_lsn == kInvalidLsn) seg.first_lsn = hdr.first_lsn;

    size_t off = sizeof(hdr);
    while (off < data.size()) {
      const size_t head =
          std::min(sizeof(WalRecordHeader), data.size() - off);
      if (AllZero(data.data() + off, head)) {
        // The preallocated tail: the segment's records end here. A
        // non-zero byte past it is a later frame whose predecessor never
        // reached the file, so the history is cut, not finished.
        if (!AllZero(data.data() + off + head, data.size() - off - head)) {
          out.torn_tail = true;
        }
        break;
      }
      if (data.size() - off < sizeof(WalRecordHeader)) {
        out.torn_tail = true;  // Frame header cut.
        break;
      }
      WalRecordHeader rec;
      std::memcpy(&rec, data.data() + off, sizeof(rec));
      if (rec.len > kMaxPayload || rec.len > data.size() - off - sizeof(rec)) {
        out.torn_tail = true;  // Length rotted or payload cut.
        break;
      }
      const char* payload = data.data() + off + sizeof(rec);
      if (rec.crc != FrameCrc(rec, payload)) {
        out.torn_tail = true;
        break;
      }
      if (expect != kInvalidLsn && rec.lsn != expect) {
        // A gap means records vanished mid-history (e.g. a torn segment
        // followed by a later one the file system persisted out of
        // order). Everything before the gap is still a verified prefix;
        // nothing after it may be applied.
        out.torn_tail = true;
        return out;
      }
      expect = rec.lsn + 1;
      out.last_lsn = rec.lsn;
      if (rec.lsn >= from) {
        if (fn != nullptr) {
          SWST_RETURN_IF_ERROR(fn(rec.lsn,
                                  static_cast<WalRecordType>(rec.type),
                                  payload, rec.len));
        }
        if (out.first_lsn == kInvalidLsn) out.first_lsn = rec.lsn;
        out.records_delivered++;
      } else {
        out.records_skipped++;
      }
      off += sizeof(rec) + rec.len;
    }
    // Bytes in use end after the last valid frame; a preallocated tail
    // is not part of them.
    seg.bytes = std::max(seg.bytes, static_cast<uint64_t>(off));
    if (out.torn_tail && i + 1 == segments_.size()) break;
  }
  return out;
}

Status Wal::TruncateBefore(Lsn lsn) {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t deleted = 0;
  while (segments_.size() > 1) {
    // segments_[0] covers [first_lsn, segments_[1].first_lsn); deletable
    // when every record in it precedes `lsn`. Segments that never got a
    // readable header have first_lsn unset — their successor's bound
    // still decides correctly because they hold no records.
    const Lsn next_first = segments_[1].first_lsn;
    if (next_first == kInvalidLsn || next_first > lsn) break;
    SWST_RETURN_IF_ERROR(store_->DeleteSegment(segments_[0].seq));
    segments_.erase(segments_.begin());
    if (m_segments_deleted_ != nullptr) m_segments_deleted_->Increment();
    deleted++;
  }
  if (deleted > 0) {
    obs::RecordEvent(obs::EventType::kWalTruncate, lsn, deleted);
  }
  return Status::OK();
}

uint64_t Wal::segment_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return segments_.size();
}

uint64_t Wal::current_segment() const {
  std::lock_guard<std::mutex> lock(mu_);
  return segments_.empty() ? 0 : segments_.back().seq;
}

}  // namespace swst
