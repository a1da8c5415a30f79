// `ingest`: fleet vehicles report independently and each report must be
// durable before it is acknowledged. One closed-loop writer streams the
// paper's protocol into an index preloaded from the same stream; the timed
// phase crosses the epoch boundary at t = 40200, so a wholesale window drop
// happens inside it. No query runs.

#include <algorithm>
#include <cstdio>

#include "common.h"

namespace perfbench {
namespace {

/// The paper's metric is pinned on this many reports, which every run
/// completes whatever its speed (about 1.5 s on the reference machine).
constexpr uint64_t kPinReports = 10000;
/// Traced and untraced reports alternate in blocks of this many.
constexpr uint64_t kTraceBlock = 256;

}  // namespace

Outcome RunIngest(const RunConfig& cfg) {
  using Clock = std::chrono::steady_clock;
  Outcome out;
  const Dataset ds = BuildDataset();

  EndToEnd e2e;
  std::unique_ptr<Stack> stack = SetUp(cfg, ds, &e2e.setup_s);

  Oracle oracle(ds);
  Writer writer(stack.get(), &oracle, ds);
  WriteSide w;
  Health health;
  std::vector<Sample> lat;
  std::vector<double> traced_us, plain_us;
  const LayerSnapshot before = LayerSnapshot::Take(*stack);
  const uint64_t reads0 = stack->pool->stats().logical_reads;
  uint64_t pinned_reads = 0;

  const auto start = Clock::now();
  while (!writer.done()) {
    if (SecondsSince(start) >= cfg.seconds && w.reports >= kPinReports) break;
    const bool traced = cfg.trace && (w.reports / kTraceBlock) % 2 == 1;
    TracedScope scope(traced);
    const auto t0 = Clock::now();
    const Status st = writer.Step(traced, &w);
    const auto t1 = Clock::now();
    const double ns = std::chrono::duration<double, std::nano>(t1 - t0).count();
    out.attempted++;
    if (!st.ok()) {
      out.failed++;
      if (out.failed == 1) {
        std::fprintf(stderr, "report failed: %s\n", st.ToString().c_str());
      }
    }
    w.reports++;
    w.all_ns += ns;
    if (traced) w.traced_ns += ns;
    lat.push_back({std::chrono::duration<double>(t1 - start).count(), ns / 1e3});
    (traced ? traced_us : plain_us).push_back(ns / 1e3);
    if (w.reports == kPinReports) {
      pinned_reads = stack->pool->stats().logical_reads - reads0;
      e2e.space_amp = SpaceAmp(*stack, oracle);
    }
    if (w.reports % 64 == 0) {
      health.pending_max =
          std::max(health.pending_max, stack->index->EpochStats().pending);
    }
  }
  const LayerSnapshot after = LayerSnapshot::Take(*stack);
  const SliceSummary sum = Summarize(lat, cfg.seconds);
  e2e.ops_per_s = sum.rate;
  e2e.op_p50_us = sum.p50;
  e2e.op_p95_us = sum.p95;
  e2e.node_accesses_per_op =
      static_cast<double>(pinned_reads) / static_cast<double>(kPinReports);
  std::vector<double> all_us;
  for (const Sample& s : lat) all_us.push_back(s.us);
  std::fprintf(stderr,
               "ingest: %llu reports (p99 %.1f us), node accesses over the "
               "first %llu: %llu\n",
               static_cast<unsigned long long>(w.reports),
               Percentile(all_us, 0.99),
               static_cast<unsigned long long>(kPinReports),
               static_cast<unsigned long long>(pinned_reads));

  CheckIndex(*stack, oracle, cfg.seed, "after ingest", &out);
  if (cfg.trace) {
    CrossCheck(before, after, &out);
    health.trace_overhead = TraceOverhead(traced_us, plain_us);
    EmitLayers(*stack, before, after, w, ReadSide{}, health, &out);
  }

  stack = TimedReopens(std::move(stack), kWarmPoolPages, cfg.trace,
                       &e2e.reopen_s);
  CheckIndex(*stack, oracle, cfg.seed, "after reopen", &out);
  if (!cfg.trace) EmitEndToEnd(e2e, &out);
  return out;
}

}  // namespace perfbench
