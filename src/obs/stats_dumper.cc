#include "obs/stats_dumper.h"

namespace swst {
namespace obs {

StatsDumper::StatsDumper(const MetricsRegistry* registry,
                         std::chrono::milliseconds period,
                         std::function<void(const std::string&)> sink)
    : registry_(registry),
      period_(period),
      sink_(std::move(sink)),
      epoch_(std::chrono::steady_clock::now()) {
  thread_ = std::thread([this] {
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      if (cv_.wait_for(lock, period_, [this] { return stop_; })) return;
      // Render outside the wait but without holding our own lock across
      // the sink: the registry has its own synchronization.
      lock.unlock();
      sink_(RenderOne());
      lock.lock();
    }
  });
}

StatsDumper::~StatsDumper() { Stop(); }

std::string StatsDumper::RenderOne() {
  const std::string body = registry_->RenderJson();
  // Stamp the snapshot and splice the registry object's keys into one flat
  // single-line object. RenderJson emits a single line that starts with
  // '{', so splicing after it is safe.
  const uint64_t ts_ms = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - epoch_)
          .count());
  return "{\"ts_ms\": " + std::to_string(ts_ms) +
         ", \"seq\": " + std::to_string(++seq_) + ", " + body.substr(1) + "\n";
}

void StatsDumper::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stop_) return;
    stop_ = true;
  }
  cv_.notify_all();
  thread_.join();
  sink_(RenderOne());  // Final snapshot.
}

}  // namespace obs
}  // namespace swst
