#ifndef SWST_OBS_STATS_DUMPER_H_
#define SWST_OBS_STATS_DUMPER_H_

#include <chrono>
#include <condition_variable>
#include <functional>
#include <mutex>
#include <string>
#include <thread>

#include "obs/metrics.h"

namespace swst {
namespace obs {

/// \brief Periodic stats-dump hook for long-running processes (benchmarks,
/// the CLI's `--stats-dump-ms` flag).
///
/// A background thread renders the registry every `period` and hands the
/// string to `sink` (e.g. a line writer to stderr or a rotating file). A
/// final dump is emitted on `Stop()`/destruction so short runs still
/// produce one snapshot. The registry must outlive the dumper.
///
/// Each snapshot is one self-contained JSON line,
/// {"ts_ms": <uptime>, "seq": <n>, ...registry json...}\n — machine-
/// ingestible with line-oriented tooling.
class StatsDumper {
 public:
  StatsDumper(const MetricsRegistry* registry, std::chrono::milliseconds period,
              std::function<void(const std::string& json)> sink);
  ~StatsDumper();

  StatsDumper(const StatsDumper&) = delete;
  StatsDumper& operator=(const StatsDumper&) = delete;

  /// Stops the background thread (idempotent) after one final dump.
  void Stop();

 private:
  std::string RenderOne();

  const MetricsRegistry* registry_;
  std::chrono::milliseconds period_;
  std::function<void(const std::string&)> sink_;
  const std::chrono::steady_clock::time_point epoch_;
  uint64_t seq_ = 0;  ///< Snapshots emitted; only the dumper thread + Stop.
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread thread_;
};

}  // namespace obs
}  // namespace swst

#endif  // SWST_OBS_STATS_DUMPER_H_
