#include "obs/flight_recorder.h"

#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <new>

namespace swst {
namespace obs {

namespace {

// Signal-safe unsigned decimal formatting into buf; returns chars written.
size_t FormatU64(uint64_t v, char* buf) {
  char tmp[20];
  size_t n = 0;
  do {
    tmp[n++] = static_cast<char>('0' + v % 10);
    v /= 10;
  } while (v != 0);
  for (size_t i = 0; i < n; ++i) buf[i] = tmp[n - 1 - i];
  return n;
}

// Best-effort full write; signal-safe (write(2) only).
void WriteAll(int fd, const char* p, size_t n) {
  while (n > 0) {
    const ssize_t w = ::write(fd, p, n);
    if (w <= 0) return;
    p += w;
    n -= static_cast<size_t>(w);
  }
}

struct LineBuf {
  char data[256];
  size_t len = 0;
  void Str(const char* s) {
    const size_t n = std::strlen(s);
    const size_t room = sizeof(data) - len;
    const size_t c = n < room ? n : room;
    std::memcpy(data + len, s, c);
    len += c;
  }
  void U64(uint64_t v) {
    if (sizeof(data) - len >= 20) len += FormatU64(v, data + len);
  }
};

std::atomic<uint64_t> g_next_instance_id{1};

}  // namespace

const char* EventTypeName(EventType t) {
  switch (t) {
    case EventType::kNone:            return "none";
    case EventType::kWindowAdvance:   return "window_advance";
    case EventType::kCloseMigrate:    return "close_migrate";
    case EventType::kSnapshotPublish: return "snapshot_publish";
    case EventType::kEpochReclaim:    return "epoch_reclaim";
    case EventType::kCheckpointBegin: return "checkpoint_begin";
    case EventType::kCheckpointEnd:   return "checkpoint_end";
    case EventType::kWalRotate:       return "wal_rotate";
    case EventType::kWalTruncate:     return "wal_truncate";
    case EventType::kRecoverReplay:   return "recover_replay";
    case EventType::kLeafMigrateV2:   return "leaf_migrate_v2";
    case EventType::kFaultInjected:   return "fault_injected";
    case EventType::kSlowQuery:       return "slow_query";
    case EventType::kFatal:           return "fatal";
  }
  return "unknown";
}

// One 64-byte event slot. `seq` doubles as the per-slot seqlock: the writer
// stores 0 (release) before touching the payload, then the real sequence
// (release) after. A reader that sees the same nonzero seq before and after
// copying the payload (acquire/relaxed loads) got a consistent event. Every
// field is an atomic word, so concurrent dump-under-write is data-race-free
// by construction (and TSan-clean), at the cost of relaxed-store payload
// writes — still just plain MOVs on x86/ARM.
struct alignas(64) FlightRecorder::Slot {
  std::atomic<uint64_t> seq{0};
  std::atomic<uint64_t> ts_ns{0};
  std::atomic<uint64_t> type_tid{0};  // type in low 16 bits, tid above.
  std::atomic<uint64_t> a0{0}, a1{0}, a2{0}, a3{0};
  std::atomic<uint64_t> pad{0};
};

struct FlightRecorder::ThreadRing {
  explicit ThreadRing(size_t capacity)
      : slots(new Slot[capacity]), mask(capacity - 1) {}
  ~ThreadRing() { delete[] slots; }

  Slot* const slots;
  const size_t mask;
  // Next write position; also the count of events this thread ever emitted.
  std::atomic<uint64_t> head{0};
  uint32_t tid = 0;
  ThreadRing* next = nullptr;  // Immutable after publication on the list.
};

FlightRecorder::FlightRecorder(size_t events_per_thread)
    : capacity_([&] {
        size_t c = 8;
        while (c < events_per_thread) c <<= 1;
        return c;
      }()),
      instance_id_(g_next_instance_id.fetch_add(1, std::memory_order_relaxed)),
      epoch_(std::chrono::steady_clock::now()) {}

FlightRecorder::~FlightRecorder() {
  // Rings are only freed here — emitters cache a raw ThreadRing* in a
  // thread-local, so the recorder must outlive every emitting thread's
  // last Emit. Global() never destructs; test-local recorders join their
  // emitter threads first.
  ThreadRing* r = rings_.load(std::memory_order_acquire);
  while (r != nullptr) {
    ThreadRing* next = r->next;
    delete r;
    r = next;
  }
}

FlightRecorder& FlightRecorder::Global() {
  // Leaked on purpose: the fatal-signal handler may dump during static
  // destruction, after a normal singleton would already be gone.
  static FlightRecorder* g = new FlightRecorder();
  return *g;
}

FlightRecorder::ThreadRing* FlightRecorder::RingForThisThread() {
  // One cached ring per thread, keyed by recorder instance so tests that
  // build private recorders don't alias the global one's rings.
  struct Cache {
    uint64_t instance_id = 0;
    ThreadRing* ring = nullptr;
  };
  static thread_local Cache cache;
  if (cache.instance_id == instance_id_ && cache.ring != nullptr) {
    return cache.ring;
  }
  auto* ring = new ThreadRing(capacity_);
  ring->tid = next_tid_.fetch_add(1, std::memory_order_relaxed);
  ThreadRing* head = rings_.load(std::memory_order_relaxed);
  do {
    ring->next = head;
  } while (!rings_.compare_exchange_weak(head, ring,
                                         std::memory_order_release,
                                         std::memory_order_relaxed));
  cache.instance_id = instance_id_;
  cache.ring = ring;
  return ring;
}

void FlightRecorder::Emit(EventType type, uint64_t a0, uint64_t a1,
                          uint64_t a2, uint64_t a3) {
  if (!enabled_.load(std::memory_order_relaxed)) return;
  ThreadRing* ring = RingForThisThread();
  const uint64_t seq = seq_.fetch_add(1, std::memory_order_relaxed) + 1;
  const uint64_t ts =
      static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                std::chrono::steady_clock::now() - epoch_)
                                .count());
  const uint64_t pos = ring->head.load(std::memory_order_relaxed);
  Slot& s = ring->slots[pos & ring->mask];
  s.seq.store(0, std::memory_order_release);  // Mark in-flight.
  s.ts_ns.store(ts, std::memory_order_relaxed);
  s.type_tid.store(static_cast<uint64_t>(type) |
                       (static_cast<uint64_t>(ring->tid) << 16),
                   std::memory_order_relaxed);
  s.a0.store(a0, std::memory_order_relaxed);
  s.a1.store(a1, std::memory_order_relaxed);
  s.a2.store(a2, std::memory_order_relaxed);
  s.a3.store(a3, std::memory_order_relaxed);
  s.seq.store(seq, std::memory_order_release);  // Settle.
  ring->head.store(pos + 1, std::memory_order_release);
}

bool FlightRecorder::ReadSlot(const Slot& s, FlightEvent* out) {
  const uint64_t seq0 = s.seq.load(std::memory_order_acquire);
  if (seq0 == 0) return false;  // Empty or mid-write.
  out->seq = seq0;
  out->ts_ns = s.ts_ns.load(std::memory_order_relaxed);
  const uint64_t tt = s.type_tid.load(std::memory_order_relaxed);
  out->type = static_cast<EventType>(tt & 0xffff);
  out->tid = static_cast<uint32_t>(tt >> 16);
  out->a0 = s.a0.load(std::memory_order_relaxed);
  out->a1 = s.a1.load(std::memory_order_relaxed);
  out->a2 = s.a2.load(std::memory_order_relaxed);
  out->a3 = s.a3.load(std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_acquire);
  return s.seq.load(std::memory_order_relaxed) == seq0;  // Torn if changed.
}

std::vector<FlightEvent> FlightRecorder::Dump(size_t max_events) const {
  std::vector<FlightEvent> events;
  for (ThreadRing* r = rings_.load(std::memory_order_acquire); r != nullptr;
       r = r->next) {
    const uint64_t head = r->head.load(std::memory_order_acquire);
    const uint64_t n = std::min<uint64_t>(head, r->mask + 1);
    for (uint64_t i = 0; i < n; ++i) {
      FlightEvent e;
      if (ReadSlot(r->slots[(head - n + i) & r->mask], &e)) {
        events.push_back(e);
      }
    }
  }
  std::sort(events.begin(), events.end(),
            [](const FlightEvent& a, const FlightEvent& b) {
              return a.seq < b.seq;
            });
  if (max_events > 0 && events.size() > max_events) {
    events.erase(events.begin(),
                 events.end() - static_cast<ptrdiff_t>(max_events));
  }
  return events;
}

FlightRecorder::Stats FlightRecorder::stats() const {
  Stats st;
  for (ThreadRing* r = rings_.load(std::memory_order_acquire); r != nullptr;
       r = r->next) {
    const uint64_t head = r->head.load(std::memory_order_acquire);
    st.threads++;
    st.emitted += head;
    st.retained += std::min<uint64_t>(head, r->mask + 1);
  }
  st.overwritten = st.emitted - st.retained;
  return st;
}

void FlightRecorder::Reset() {
  for (ThreadRing* r = rings_.load(std::memory_order_acquire); r != nullptr;
       r = r->next) {
    for (size_t i = 0; i <= r->mask; ++i) {
      r->slots[i].seq.store(0, std::memory_order_relaxed);
    }
    r->head.store(0, std::memory_order_relaxed);
  }
}

namespace {

// Shared text-line shape for RenderText and WriteToFd:
// `#seq +12.345ms tid=3 wal_rotate a0=7 a1=4100`.
void FormatEventLine(const FlightEvent& e, LineBuf* line) {
  line->Str("#");
  line->U64(e.seq);
  line->Str(" +");
  line->U64(e.ts_ns / 1000000);
  line->Str(".");
  const uint64_t frac = (e.ts_ns / 1000) % 1000;
  if (frac < 100) line->Str("0");
  if (frac < 10) line->Str("0");
  line->U64(frac);
  line->Str("ms tid=");
  line->U64(e.tid);
  line->Str(" ");
  line->Str(EventTypeName(e.type));
  const uint64_t args[4] = {e.a0, e.a1, e.a2, e.a3};
  int last = -1;
  for (int i = 0; i < 4; ++i) {
    if (args[i] != 0) last = i;
  }
  static const char* const kNames[4] = {" a0=", " a1=", " a2=", " a3="};
  for (int i = 0; i <= last; ++i) {
    line->Str(kNames[i]);
    line->U64(args[i]);
  }
  line->Str("\n");
}

}  // namespace

std::string FlightRecorder::RenderText(const std::vector<FlightEvent>& events) {
  std::string out;
  out.reserve(events.size() * 48);
  for (const FlightEvent& e : events) {
    LineBuf line;
    FormatEventLine(e, &line);
    out.append(line.data, line.len);
  }
  return out;
}

std::string FlightRecorder::RenderJsonLines(
    const std::vector<FlightEvent>& events) {
  std::string out;
  out.reserve(events.size() * 96);
  for (const FlightEvent& e : events) {
    out += "{\"seq\":" + std::to_string(e.seq) +
           ",\"ts_ns\":" + std::to_string(e.ts_ns) +
           ",\"tid\":" + std::to_string(e.tid) + ",\"type\":\"" +
           EventTypeName(e.type) + "\",\"args\":[" + std::to_string(e.a0) +
           "," + std::to_string(e.a1) + "," + std::to_string(e.a2) + "," +
           std::to_string(e.a3) + "]}\n";
  }
  return out;
}

void FlightRecorder::WriteToFd(int fd, size_t max_events) const {
  // Signal-safe: walks the lock-free ring list in place, formats into a
  // stack buffer, write(2)s line by line. Unlike Dump it cannot sort
  // across rings without allocating, so it emits per-thread batches —
  // each line still carries the global seq for offline ordering.
  for (ThreadRing* r = rings_.load(std::memory_order_acquire); r != nullptr;
       r = r->next) {
    const uint64_t head = r->head.load(std::memory_order_acquire);
    uint64_t n = std::min<uint64_t>(head, r->mask + 1);
    if (max_events > 0) n = std::min<uint64_t>(n, max_events);
    for (uint64_t i = 0; i < n; ++i) {
      FlightEvent e;
      if (!ReadSlot(r->slots[(head - n + i) & r->mask], &e)) continue;
      LineBuf line;
      FormatEventLine(e, &line);
      WriteAll(fd, line.data, line.len);
    }
  }
}

}  // namespace obs
}  // namespace swst
