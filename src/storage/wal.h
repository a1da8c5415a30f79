#ifndef SWST_STORAGE_WAL_H_
#define SWST_STORAGE_WAL_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "obs/metrics.h"

namespace swst {

/// Log sequence number. LSNs are assigned by `Wal::Append`, start at 1, and
/// increase by exactly 1 per record for the lifetime of a log directory —
/// they are never reset by segment rotation or checkpoint truncation, so an
/// LSN totally orders every logical operation ever logged.
using Lsn = uint64_t;
inline constexpr Lsn kInvalidLsn = 0;

/// \brief Byte-level backend for WAL segments: ordered named blobs that
/// support append, per-segment sync, and whole-segment read-back.
///
/// Two backends ship: a directory of `wal-<seq>.log` files (pwrite into
/// extents preallocated `kWalExtentBytes` at a time, fdatasync, directory
/// fsync after create/delete) and an in-memory store for tests.
/// `FaultInjectionWalStore` decorates either with a crash/fault model (see
/// fault_injection_wal.h).
///
/// Not internally synchronized: `Wal` serializes all access under its own
/// mutex, the same contract the pager backends have with `BufferPool`.
class WalStore {
 public:
  virtual ~WalStore() = default;

  /// Existing segment sequence numbers in ascending order.
  virtual Result<std::vector<uint64_t>> ListSegments() = 0;

  /// Creates an empty segment. Creating a segment that already exists is
  /// not an error (recovery retries rotation after a mid-rotate crash).
  virtual Status CreateSegment(uint64_t seq) = 0;

  /// Removes a segment (checkpoint truncation). Missing segment: OK.
  virtual Status DeleteSegment(uint64_t seq) = 0;

  /// Appends `n` bytes at the segment's end. A failed append must append
  /// nothing or a prefix (the torn-tail cases recovery already handles).
  virtual Status Append(uint64_t seq, const void* data, size_t n) = 0;

  /// Makes all bytes appended to `seq` so far durable (fdatasync).
  virtual Status Sync(uint64_t seq) = 0;

  /// Reads the segment's entire current content (durable + not-yet-synced,
  /// like reading through the OS page cache). A directory segment ends in
  /// the zero-filled rest of its last preallocated extent.
  virtual Result<std::vector<char>> ReadSegment(uint64_t seq) = 0;

  /// XORs `len` bytes at `offset` with 0xA5 so tests can forge bit rot and
  /// torn tails; mirrors `Pager::CorruptPageForTesting`.
  virtual Status CorruptForTesting(uint64_t seq, uint64_t offset,
                                   uint32_t len) = 0;

  /// Opens (creating if needed) a directory-of-files store.
  static Result<std::unique_ptr<WalStore>> OpenDir(const std::string& dir);

  /// Volatile in-memory store for tests.
  static std::unique_ptr<WalStore> OpenMemory();
};

/// On-disk framing of one logical record (little-endian, 24 bytes).
/// `crc` is the masked CRC32C (same masking as page trailers) of every
/// frame byte after the crc field plus the payload, so a flipped bit
/// anywhere in the frame or payload — or a tail cut anywhere — fails
/// verification.
struct WalRecordHeader {
  uint32_t crc;
  uint32_t len;  ///< Payload bytes following the header.
  Lsn lsn;
  uint32_t type;
  uint32_t reserved;  ///< Zero; reserved for future flags.
};
static_assert(sizeof(WalRecordHeader) == 24);

/// First bytes of every segment file (32 bytes). `first_lsn` is the LSN
/// the segment's first record will carry; checkpoint truncation uses it to
/// decide which whole segments predate the checkpoint.
struct WalSegmentHeader {
  uint64_t magic;  ///< kWalMagic ("SWSTWAL1").
  uint64_t seq;
  Lsn first_lsn;
  uint32_t reserved;
  uint32_t crc;  ///< Masked CRC32C of the preceding 28 bytes.
};
static_assert(sizeof(WalSegmentHeader) == 32);

inline constexpr uint64_t kWalMagic = 0x5357'5354'5741'4C31ull;  // "SWSTWAL1"

/// A directory segment's file grows in preallocated extents of this size.
/// Records after the last one read as zeros, and an all-zero frame header
/// ends a segment's records (no valid frame has LSN 0).
inline constexpr uint64_t kWalExtentBytes = 64 << 10;

/// Logical record types logged by `SwstIndex` (payload layouts in
/// swst_index.h). `Wal` itself treats payloads as opaque bytes.
enum class WalRecordType : uint32_t {
  kInsert = 1,
  kDelete = 2,
  kClose = 3,    ///< CloseCurrent: entry + actual duration.
  kAdvance = 4,  ///< Explicit clock advance.
  kNote = 15,    ///< Opaque marker (tests).
};

struct WalOptions {
  /// Rotate to a new segment once the current one reaches this size (a
  /// record never spans segments; the segment finishing the quota keeps
  /// its last record whole).
  uint64_t segment_bytes = 4ull << 20;

  /// When set, `swst_wal_*` metrics are registered here.
  obs::MetricsRegistry* metrics = nullptr;
};

/// Outcome of a `Wal::Replay` scan.
struct WalReplayResult {
  uint64_t records_delivered = 0;  ///< Records with lsn >= `from`.
  uint64_t records_skipped = 0;    ///< Valid records below `from`.
  Lsn first_lsn = kInvalidLsn;     ///< First delivered LSN (0 if none).
  Lsn last_lsn = kInvalidLsn;      ///< Last valid LSN seen (0 if none).
  /// True when the scan ended at a torn or corrupt frame rather than the
  /// clean end of the last segment: a crash cut the un-synced tail (or a
  /// frame rotted). Everything delivered is still a verified prefix.
  bool torn_tail = false;
  uint64_t segments_scanned = 0;
};

/// \brief Append-only segmented write-ahead log with CRC32C-framed records
/// and monotonic LSNs.
///
/// Ordering/durability contract:
///  - `Append` assigns LSN `last_lsn()+1` and buffers the frame in the
///    current segment (volatile until synced). Appends from concurrent
///    shards serialize on the internal mutex, so LSN order == append order.
///  - `Sync` makes every appended record durable (one backend fdatasync
///    per dirty segment — usually exactly one) and advances
///    `durable_lsn()` to the last appended LSN. Group commit is just
///    "many Appends, one Sync".
///  - `Replay` scans segments in order, verifies each frame's CRC, and
///    stops at the first torn/corrupt frame or LSN discontinuity; it
///    therefore delivers a verified *prefix* of the logged history, which
///    is at least everything at or below `durable_lsn()` at the time of
///    the crash (bounded loss: only the un-synced tail can disappear).
///  - `TruncateBefore(lsn)` deletes whole segments whose records all
///    precede `lsn` (checkpoint truncation). LSNs keep counting.
///
/// `Append`/`Sync`/`Replay`/`TruncateBefore` are thread-safe;
/// `last_lsn`/`durable_lsn` are lock-free reads (BufferPool polls them on
/// its write-back path).
class Wal {
 public:
  /// Hard cap on one record's payload; `Replay` treats a larger length
  /// field as corruption instead of allocating garbage.
  static constexpr uint32_t kMaxPayload = 1u << 20;

  /// Opens a log over `store` (not owned; must outlive the Wal): scans
  /// existing segments to find the last valid LSN, then rotates to a fresh
  /// segment so new appends never extend a possibly-torn tail.
  static Result<std::unique_ptr<Wal>> Open(WalStore* store,
                                           const WalOptions& options = {});

  ~Wal();
  Wal(const Wal&) = delete;
  Wal& operator=(const Wal&) = delete;

  /// Appends one record; returns its LSN. The record is volatile until the
  /// next successful `Sync`. After a failed append the log rotates to a
  /// fresh segment before the next record, so a partial frame left by the
  /// failure is sealed off as a torn tail instead of corrupting later
  /// records.
  Result<Lsn> Append(WalRecordType type, const void* payload, uint32_t len);

  /// Forces everything appended so far to durable storage. No-op (no
  /// backend sync) when nothing new was appended since the last Sync.
  Status Sync();

  Lsn last_lsn() const { return last_lsn_.load(std::memory_order_acquire); }
  Lsn durable_lsn() const {
    return durable_lsn_.load(std::memory_order_acquire);
  }

  /// Replay callback: (lsn, type, payload, len) -> Status. A non-OK status
  /// aborts the scan and is returned from `Replay`.
  using ReplayFn =
      std::function<Status(Lsn, WalRecordType, const char*, uint32_t)>;

  /// Scans the whole log, delivering every valid record with lsn >= `from`
  /// in LSN order. Torn/corrupt frames end the scan (reported via
  /// `torn_tail`, not an error). `fn` may be null to just measure.
  Result<WalReplayResult> Replay(Lsn from, const ReplayFn& fn);

  /// Deletes whole segments whose records all have lsn < `lsn`. The
  /// current append segment is never deleted.
  Status TruncateBefore(Lsn lsn);

  uint64_t segment_count() const;
  uint64_t current_segment() const;

 private:
  struct SegmentInfo {
    uint64_t seq = 0;
    Lsn first_lsn = kInvalidLsn;
    uint64_t bytes = 0;  ///< Bytes appended (header included).
    bool dirty = false;  ///< Has appends not yet synced.
  };

  Wal(WalStore* store, const WalOptions& options);

  /// Creates segment `next_seq_` and writes its header. On failure the
  /// sequence number is burned (never reused), so a half-written header
  /// can never be extended with live records.
  Status RotateLocked();

  Result<WalReplayResult> ReplayLocked(Lsn from, const ReplayFn& fn);

  void RegisterMetrics();

  WalStore* store_;
  WalOptions options_;

  mutable std::mutex mu_;
  std::vector<SegmentInfo> segments_;  ///< Ascending seq; back() is current.
  uint64_t next_seq_ = 1;              ///< Next segment seq to create.
  std::atomic<Lsn> last_lsn_{0};
  std::atomic<Lsn> durable_lsn_{0};
  uint64_t pending_records_ = 0;  ///< Appends since the last Sync.
  bool append_broken_ = false;    ///< Rotate before the next append.
  std::vector<char> frame_;       ///< Append's frame buffer, reused.

  std::shared_ptr<obs::Counter> m_records_;
  std::shared_ptr<obs::Counter> m_bytes_;
  std::shared_ptr<obs::Counter> m_syncs_;
  std::shared_ptr<obs::Counter> m_segments_created_;
  std::shared_ptr<obs::Counter> m_segments_deleted_;
  std::shared_ptr<obs::Counter> m_replay_records_;
  std::shared_ptr<obs::Counter> m_replay_torn_tails_;
  std::shared_ptr<obs::Histogram> m_group_commit_records_;
  std::shared_ptr<obs::Histogram> m_sync_us_;
  std::shared_ptr<obs::Histogram> m_replay_us_;
};

}  // namespace swst

#endif  // SWST_STORAGE_WAL_H_
