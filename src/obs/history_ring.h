#ifndef SWST_OBS_HISTORY_RING_H_
#define SWST_OBS_HISTORY_RING_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"

namespace swst {
namespace obs {

/// \brief Background sampler that snapshots the registry's scalars into a
/// fixed ring, so rates and derivatives (QPS, write amplification, epoch
/// reclaim lag) are computable in-process — no external scraper required.
///
/// A sampler thread calls `MetricsRegistry::CollectScalars` every
/// `period`; the ring keeps the last `capacity()` timestamped snapshots,
/// enough to span `kRateWindow`. `Rates()` differences the newest
/// snapshot against one `window` back: monotonic scalars become
/// per-second rates, instantaneous ones report their latest value and
/// delta. `Samples()`/`Rates()` are safe from any thread. The last
/// snapshot is additionally preformatted into a fixed buffer the fatal
/// black-box handler can write without locks.
///
/// With a `sink`, the sampler also streams the registry as JSON lines
/// (the CLI's `--stats-dump-ms`): after each periodic sample, and once
/// more on `Stop()` so short runs still produce one, it passes the sink
/// one self-contained line,
/// {"ts_ms": <uptime>, "seq": <sample seq>, ...registry json...}\n.
/// The registry must outlive the sampler.
class MetricsHistory {
 public:
  struct Options {
    std::chrono::milliseconds period{1000};
    /// Receives each JSON line, on the sampler thread (and on the thread
    /// calling `Stop()` for the last one), with no lock held. Empty = off.
    std::function<void(const std::string& json_line)> sink;
  };

  /// The default window of `Rates()` (what `top` and `healthz` report).
  static constexpr std::chrono::milliseconds kRateWindow{10000};

  /// One registry snapshot.
  struct Sample {
    uint64_t seq = 0;       ///< 1-based sample ordinal.
    uint64_t uptime_ms = 0; ///< Since Start().
    std::vector<MetricsRegistry::Scalar> scalars;
  };

  /// One computed rate line.
  struct Rate {
    std::string name;
    bool monotonic = false;
    int64_t latest = 0;
    int64_t delta = 0;       ///< latest - value one window back.
    double per_second = 0.0; ///< delta / elapsed (monotonic scalars only).
  };

  explicit MetricsHistory(const MetricsRegistry* registry)
      : MetricsHistory(registry, Options{}) {}
  MetricsHistory(const MetricsRegistry* registry, Options options);
  ~MetricsHistory();

  MetricsHistory(const MetricsHistory&) = delete;
  MetricsHistory& operator=(const MetricsHistory&) = delete;

  /// Starts the sampler thread (idempotent). Takes one sample immediately
  /// so `Rates()` has a baseline before the first period elapses.
  void Start();

  /// Stops and joins the sampler (idempotent; also run by the destructor).
  /// With a sink, then takes one final sample and streams it.
  void Stop();

  /// Takes one sample synchronously (used by Start, tests, and the CLI
  /// when it wants a fresh "now" point without waiting out a period).
  void SampleNow();

  /// Oldest-first copy of the retained snapshots.
  std::vector<Sample> Samples() const;

  /// Differences the newest sample against the retained sample closest to
  /// `window` older (largest available gap when the ring is younger).
  /// Empty when fewer than two samples exist.
  std::vector<Rate> Rates(
      std::chrono::milliseconds window = kRateWindow) const;

  /// Renders `Rates(window)`: `name latest=.. delta=.. rate=../s`.
  std::string RenderRatesText(
      std::chrono::milliseconds window = kRateWindow) const;

  /// JSON object {"window_ms":..,"rates":[{"name","latest","delta",
  /// "per_second"},..]} (per_second only on monotonic scalars).
  std::string RenderRatesJson(
      std::chrono::milliseconds window = kRateWindow) const;

  /// Async-signal-safe: writes the preformatted latest snapshot to `fd`.
  void WriteLastSampleToFd(int fd) const;

  size_t sample_count() const {
    return samples_taken_.load(std::memory_order_relaxed);
  }

  /// Snapshots retained: enough that `Rates(kRateWindow)` has a base
  /// sample a full window old, and at least 128 (~2 min at the default
  /// 1 s period). Capped at 1024, so periods under ~10 ms cover less.
  size_t capacity() const { return capacity_; }

 private:
  void Run();
  /// Takes one sample; caller holds mu_. Returns the new sample.
  const Sample& SampleLocked();
  /// Takes one sample and, with a sink, passes it the JSON line with
  /// `lock` (on mu_) released.
  void SampleAndEmit(std::unique_lock<std::mutex>& lock);

  const MetricsRegistry* const registry_;
  const Options options_;
  const size_t capacity_;
  const std::chrono::steady_clock::time_point epoch_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::thread thread_;
  bool running_ = false;
  bool stop_ = false;
  std::vector<Sample> ring_;   ///< Ring buffer, ring_[next_] is oldest.
  size_t next_ = 0;
  std::atomic<uint64_t> samples_taken_{0};

  // Preformatted latest snapshot for the fatal handler: two buffers, the
  // single writer (sampler under mu_) fills the non-current one under a
  // per-buffer seqlock (odd = in flight), then publishes it via current_.
  struct FixedSnap {
    std::atomic<uint64_t> seq{0};  // 0 = never written; odd = in flight.
    char text[4096] = {0};
    uint32_t len = 0;
  };
  FixedSnap fixed_[2];
  std::atomic<uint32_t> current_{0};
};

}  // namespace obs
}  // namespace swst

#endif  // SWST_OBS_HISTORY_RING_H_
