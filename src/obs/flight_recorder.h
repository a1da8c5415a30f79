#ifndef SWST_OBS_FLIGHT_RECORDER_H_
#define SWST_OBS_FLIGHT_RECORDER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace swst {
namespace obs {

/// \brief What happened, encoded as a structured event kind. Each kind's
/// doc line names its payload slots a0..a3 (unused slots are 0). The list
/// covers the engine's rare-but-load-bearing state transitions — the
/// events an incident debugger wants to see the last few hundred of.
enum class EventType : uint16_t {
  kNone = 0,
  kWindowAdvance,    ///< a0=t, a1=trees dropped, a2=live entries drained.
  kCloseMigrate,     ///< a0=oid, a1=start, a2=cell, a3=duration.
  kSnapshotPublish,  ///< a0=first cell of shard, a1=version, a2=pages retired.
  kEpochReclaim,     ///< a0=callbacks reclaimed, a1=still pending.
  kCheckpointBegin,  ///< a0=applied LSN at entry (0 when no WAL).
  kCheckpointEnd,    ///< a0=captured LSN, a1=live entries persisted.
  kWalRotate,        ///< a0=segment seq, a1=first LSN of the segment.
  kWalTruncate,      ///< a0=truncation LSN bound, a1=segments deleted.
  kRecoverReplay,    ///< a0=replayed, a1=skipped, a2=last LSN, a3=torn tail.
  kLeafMigrateV2,    ///< a0=page id, a1=records, a2=payload bytes saved.
  kFaultInjected,    ///< a0=kind (see FaultKind), a1=operation ordinal.
  kSlowQuery,        ///< a0=latency us, a1=node accesses, a2=results.
  kFatal,            ///< a0=signal number (0 for a logical fatal error).
};

/// Payload slot a0 of `kFaultInjected`.
enum class FaultKind : uint64_t {
  kRead = 0,
  kWrite = 1,
  kSync = 2,
  kTorn = 3,
  kCrash = 4,
};

/// Stable lowercase name for rendering ("window_advance", "wal_rotate"...).
const char* EventTypeName(EventType t);

/// One decoded flight-recorder event.
struct FlightEvent {
  uint64_t seq = 0;    ///< Process-wide total order (1-based).
  uint64_t ts_ns = 0;  ///< Nanoseconds since the recorder was constructed.
  uint32_t tid = 0;    ///< Small dense id of the emitting thread.
  EventType type = EventType::kNone;
  uint64_t a0 = 0, a1 = 0, a2 = 0, a3 = 0;
};

/// \brief Always-on, lock-free, per-thread structured event ring — the
/// engine's black-box flight recorder.
///
/// Each emitting thread owns a private fixed-size ring of event slots, so
/// `Emit` never contends with other emitters: it is one relaxed fetch_add
/// on the global sequence counter plus a handful of relaxed stores into
/// the thread's own slot (tens of nanoseconds; the rare-path call sites —
/// window advances, checkpoints, migrations — dwarf it). When disabled,
/// `Emit` is a single relaxed bool load.
///
/// Every slot field is an atomic word and each slot carries a per-write
/// sequence stamp (stored 0 while the write is in flight), so `Dump` can
/// run concurrently with emitters: it copies each slot with relaxed loads
/// and revalidates the stamp, discarding the (at most one per ring) slot
/// that was mid-overwrite. Rings live on an append-only lock-free list —
/// `WriteToFd` can therefore walk everything without taking any lock or
/// allocating, which is what the fatal-signal black-box dump requires.
///
/// The ring keeps the *last* `events_per_thread` events per thread; older
/// events are overwritten (and counted — see `Stats::overwritten`).
class FlightRecorder {
 public:
  explicit FlightRecorder(size_t events_per_thread = kDefaultCapacity);
  ~FlightRecorder();

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// The process-wide recorder every subsystem emits into. Constructed on
  /// first use, enabled, and never destroyed (the black-box signal handler
  /// may fire at any point of shutdown).
  static FlightRecorder& Global();

  /// Disables/re-enables recording (the bench overhead gate's "off" leg).
  /// Already-recorded events stay dumpable.
  void SetEnabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  void Emit(EventType type, uint64_t a0 = 0, uint64_t a1 = 0, uint64_t a2 = 0,
            uint64_t a3 = 0);

  /// Merged time-ordered (by global seq) copy of every thread's ring.
  /// `max_events` > 0 keeps only the newest that many. Safe under
  /// concurrent Emit.
  std::vector<FlightEvent> Dump(size_t max_events = 0) const;

  struct Stats {
    uint64_t emitted = 0;      ///< Events ever emitted (while enabled).
    uint64_t retained = 0;     ///< Events currently readable in the rings.
    uint64_t overwritten = 0;  ///< emitted - retained (ring wrap losses).
    uint64_t threads = 0;      ///< Rings (one per emitting thread).
  };
  Stats stats() const;

  /// Clears every ring (events only; the global sequence keeps counting).
  /// Caller must ensure no concurrent emitters (tests/benches at rest).
  void Reset();

  /// Renders `events` (as returned by `Dump`) one line per event:
  /// `#seq +12.345ms tid=3 wal_rotate a0=7 a1=4100`.
  static std::string RenderText(const std::vector<FlightEvent>& events);

  /// JSON lines: {"seq":..,"ts_ns":..,"tid":..,"type":"..","args":[..]}.
  static std::string RenderJsonLines(const std::vector<FlightEvent>& events);

  /// Async-signal-safe dump of the newest `max_events` events into `fd`:
  /// no locks, no allocation, integer formatting only. Used by the
  /// black-box fatal handler; output matches `RenderText` per line.
  void WriteToFd(int fd, size_t max_events = 256) const;

  static constexpr size_t kDefaultCapacity = 1024;

 private:
  struct Slot;
  struct ThreadRing;

  ThreadRing* RingForThisThread();
  /// Copies one slot if it holds a settled event; false on empty/torn.
  static bool ReadSlot(const Slot& s, FlightEvent* out);

  const size_t capacity_;       ///< Slots per thread ring (power of two).
  const uint64_t instance_id_;  ///< Keys the thread-local ring cache.
  std::atomic<bool> enabled_{true};
  std::atomic<uint64_t> seq_{0};
  std::atomic<ThreadRing*> rings_{nullptr};  ///< Lock-free append-only list.
  std::atomic<uint32_t> next_tid_{0};
  std::chrono::steady_clock::time_point epoch_;
};

/// Convenience: `FlightRecorder::Global().Emit(...)`. All engine call
/// sites go through this so they read as one-liners.
inline void RecordEvent(EventType type, uint64_t a0 = 0, uint64_t a1 = 0,
                        uint64_t a2 = 0, uint64_t a3 = 0) {
  FlightRecorder::Global().Emit(type, a0, a1, a2, a3);
}

}  // namespace obs
}  // namespace swst

#endif  // SWST_OBS_FLIGHT_RECORDER_H_
