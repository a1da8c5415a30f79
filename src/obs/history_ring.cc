#include "obs/history_ring.h"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>

namespace swst {
namespace obs {

namespace {

void WriteAll(int fd, const char* p, size_t n) {
  while (n > 0) {
    const ssize_t w = ::write(fd, p, n);
    if (w <= 0) return;
    p += w;
    n -= static_cast<size_t>(w);
  }
}

}  // namespace

MetricsHistory::MetricsHistory(const MetricsRegistry* registry,
                               Options options)
    : registry_(registry),
      options_([&] {
        Options o = std::move(options);
        if (o.period.count() <= 0) o.period = std::chrono::milliseconds(1000);
        return o;
      }()),
      capacity_(std::clamp<size_t>(
          static_cast<size_t>(kRateWindow / options_.period) + 2, 128, 1024)),
      epoch_(std::chrono::steady_clock::now()) {}

MetricsHistory::~MetricsHistory() { Stop(); }

void MetricsHistory::Start() {
  std::unique_lock<std::mutex> lock(mu_);
  if (running_) return;
  running_ = true;
  stop_ = false;
  SampleLocked();  // Baseline so Rates() works before the first period.
  thread_ = std::thread(&MetricsHistory::Run, this);
}

void MetricsHistory::Stop() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (!running_) return;
    stop_ = true;
  }
  cv_.notify_all();
  thread_.join();
  std::unique_lock<std::mutex> lock(mu_);
  running_ = false;
  if (options_.sink) SampleAndEmit(lock);
}

void MetricsHistory::Run() {
  std::unique_lock<std::mutex> lock(mu_);
  while (!stop_) {
    if (cv_.wait_for(lock, options_.period, [this] { return stop_; })) break;
    SampleAndEmit(lock);
  }
}

void MetricsHistory::SampleNow() {
  std::unique_lock<std::mutex> lock(mu_);
  SampleLocked();
}

void MetricsHistory::SampleAndEmit(std::unique_lock<std::mutex>& lock) {
  const Sample& s = SampleLocked();
  if (!options_.sink) return;
  const std::string head = "{\"ts_ms\": " + std::to_string(s.uptime_ms) +
                           ", \"seq\": " + std::to_string(s.seq) + ", ";
  lock.unlock();
  // RenderJson emits one line that starts with '{': splice its keys into
  // the envelope. The registry has its own synchronization.
  options_.sink(head + registry_->RenderJson().substr(1) + "\n");
  lock.lock();
}

const MetricsHistory::Sample& MetricsHistory::SampleLocked() {
  Sample s;
  s.seq = samples_taken_.load(std::memory_order_relaxed) + 1;
  s.uptime_ms = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - epoch_)
          .count());
  s.scalars = registry_->CollectScalars();

  if (ring_.size() < capacity_) {
    ring_.push_back(std::move(s));
  } else {
    ring_[next_] = std::move(s);
    next_ = (next_ + 1) % capacity_;
  }
  samples_taken_.fetch_add(1, std::memory_order_relaxed);

  // Refresh the fatal-handler buffer: fill the non-current one under its
  // seqlock, then publish. Single writer (we hold mu_).
  const Sample& latest =
      ring_.size() < capacity_ ? ring_.back()
                               : ring_[(next_ + capacity_ - 1) % capacity_];
  const uint32_t target = 1 - current_.load(std::memory_order_relaxed);
  FixedSnap& snap = fixed_[target];
  const uint64_t stamp = latest.seq * 2;
  snap.seq.store(stamp + 1, std::memory_order_release);
  size_t len = 0;
  {
    int n = std::snprintf(snap.text, sizeof(snap.text),
                          "metrics sample #%llu uptime_ms=%llu\n",
                          static_cast<unsigned long long>(latest.seq),
                          static_cast<unsigned long long>(latest.uptime_ms));
    if (n > 0) len = static_cast<size_t>(n);
  }
  for (const auto& sc : latest.scalars) {
    if (len + sc.name.size() + 32 >= sizeof(snap.text)) break;
    const int n = std::snprintf(snap.text + len, sizeof(snap.text) - len,
                                "%s %lld\n", sc.name.c_str(),
                                static_cast<long long>(sc.value));
    if (n <= 0) break;
    len += static_cast<size_t>(n);
  }
  snap.len = static_cast<uint32_t>(len);
  snap.seq.store(stamp, std::memory_order_release);
  current_.store(target, std::memory_order_release);
  return latest;
}

std::vector<MetricsHistory::Sample> MetricsHistory::Samples() const {
  std::unique_lock<std::mutex> lock(mu_);
  std::vector<Sample> out;
  out.reserve(ring_.size());
  if (ring_.size() < capacity_) {
    out = ring_;
  } else {
    for (size_t i = 0; i < ring_.size(); ++i) {
      out.push_back(ring_[(next_ + i) % capacity_]);
    }
  }
  return out;
}

std::vector<MetricsHistory::Rate> MetricsHistory::Rates(
    std::chrono::milliseconds window) const {
  const std::vector<Sample> samples = Samples();
  std::vector<Rate> out;
  if (samples.size() < 2) return out;
  const Sample& now = samples.back();
  // Oldest sample within the window, i.e. the retained sample whose age is
  // closest to `window` without exceeding it — or the overall oldest when
  // the ring is still younger than the window.
  const Sample* base = &samples.front();
  for (const Sample& s : samples) {
    if (&s == &now) break;
    if (now.uptime_ms - s.uptime_ms <=
        static_cast<uint64_t>(window.count())) {
      base = &s;
      break;
    }
    base = &s;
  }
  const uint64_t elapsed_ms =
      now.uptime_ms > base->uptime_ms ? now.uptime_ms - base->uptime_ms : 1;

  // Align by name with one linear merge — both sides come from the same
  // registry walk, so they are in the same order modulo metric churn.
  size_t j = 0;
  for (const auto& cur : now.scalars) {
    const MetricsRegistry::Scalar* old = nullptr;
    for (size_t probe = 0; j + probe < base->scalars.size(); ++probe) {
      if (base->scalars[j + probe].name == cur.name) {
        old = &base->scalars[j + probe];
        j += probe + 1;
        break;
      }
    }
    Rate r;
    r.name = cur.name;
    r.monotonic = cur.monotonic;
    r.latest = cur.value;
    r.delta = old != nullptr ? cur.value - old->value : 0;
    if (cur.monotonic) {
      r.per_second =
          static_cast<double>(r.delta) * 1000.0 / static_cast<double>(elapsed_ms);
    }
    out.push_back(std::move(r));
  }
  return out;
}

std::string MetricsHistory::RenderRatesText(
    std::chrono::milliseconds window) const {
  const std::vector<Rate> rates = Rates(window);
  std::string out;
  char buf[256];
  for (const Rate& r : rates) {
    if (r.monotonic) {
      std::snprintf(buf, sizeof(buf), "%s latest=%lld delta=%lld rate=%.1f/s\n",
                    r.name.c_str(), static_cast<long long>(r.latest),
                    static_cast<long long>(r.delta), r.per_second);
    } else {
      std::snprintf(buf, sizeof(buf), "%s latest=%lld delta=%lld\n",
                    r.name.c_str(), static_cast<long long>(r.latest),
                    static_cast<long long>(r.delta));
    }
    out += buf;
  }
  return out;
}

std::string MetricsHistory::RenderRatesJson(
    std::chrono::milliseconds window) const {
  const std::vector<Rate> rates = Rates(window);
  std::string out = "{\"window_ms\": " + std::to_string(window.count()) +
                    ", \"rates\": [";
  bool first = true;
  char buf[64];
  for (const Rate& r : rates) {
    if (!first) out += ", ";
    first = false;
    out += "{\"name\": \"" + r.name +
           "\", \"latest\": " + std::to_string(r.latest) +
           ", \"delta\": " + std::to_string(r.delta);
    if (r.monotonic) {
      std::snprintf(buf, sizeof(buf), ", \"per_second\": %.3f", r.per_second);
      out += buf;
    }
    out += "}";
  }
  out += "]}";
  return out;
}

void MetricsHistory::WriteLastSampleToFd(int fd) const {
  // Try the published buffer, fall back to the other if torn mid-publish.
  for (int attempt = 0; attempt < 2; ++attempt) {
    const uint32_t idx =
        (current_.load(std::memory_order_acquire) + attempt) % 2;
    const FixedSnap& snap = fixed_[idx];
    const uint64_t s0 = snap.seq.load(std::memory_order_acquire);
    if (s0 == 0 || (s0 & 1) != 0) continue;
    char buf[sizeof(snap.text)];
    const uint32_t len = std::min<uint32_t>(snap.len, sizeof(buf));
    std::memcpy(buf, snap.text, len);
    std::atomic_thread_fence(std::memory_order_acquire);
    if (snap.seq.load(std::memory_order_relaxed) != s0) continue;
    WriteAll(fd, buf, len);
    return;
  }
}

}  // namespace obs
}  // namespace swst
