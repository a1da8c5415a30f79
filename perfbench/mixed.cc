// `mixed`: dashboards query while the fleet streams. Two closed-loop query
// clients run a fixed window/now/knn mix against a warm index whose pool
// holds every page, while one writer replays the stream's continuation
// open-loop at a constant rate (about a third of `ingest` capacity on the
// reference machine). Shows read/write interference: snapshot publishing
// against pinned readers.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <thread>

#include "common.h"

namespace perfbench {
namespace {

constexpr double kReportsPerSecond = 2000;  ///< Open-loop writer rate.
constexpr int kClients = 2;
constexpr size_t kSpecsPerClient = 3000;
constexpr uint64_t kTraceBlock = 256;  ///< Writer trace alternation.

struct ClientResult {
  std::vector<Sample> lat, window_lat;
  std::vector<double> traced_us, plain_us;
  std::vector<double> by_kind[3];
  ReadSide reads;
  uint64_t attempted = 0, failed = 0;
};

}  // namespace

Outcome RunMixed(const RunConfig& cfg) {
  using Clock = std::chrono::steady_clock;
  Outcome out;
  const Dataset ds = BuildDataset();

  EndToEnd e2e;
  std::unique_ptr<Stack> stack = SetUp(cfg, ds, &e2e.setup_s);

  Oracle oracle(ds);
  Writer writer(stack.get(), &oracle, ds);
  WriteSide w;
  uint64_t late = 0, write_failed = 0;
  std::vector<ClientResult> clients(kClients);
  std::atomic<int> running{kClients + 1};
  const LayerSnapshot before = LayerSnapshot::Take(*stack);
  const auto start = Clock::now();
  const auto end = start + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(cfg.seconds));

  std::thread writer_thread([&] {
    for (uint64_t i = 0; !writer.done(); ++i) {
      const auto due =
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(i / kReportsPerSecond));
      if (due >= end) break;
      std::this_thread::sleep_until(due);
      const bool traced = cfg.trace && (i / kTraceBlock) % 2 == 1;
      TracedScope scope(traced);
      const auto t0 = Clock::now();
      const Status st = writer.Step(traced, &w);
      const auto t1 = Clock::now();
      const double ns =
          std::chrono::duration<double, std::nano>(t1 - t0).count();
      if (!st.ok() && write_failed++ == 0) {
        std::fprintf(stderr, "report failed: %s\n", st.ToString().c_str());
      }
      if (t0 - due > std::chrono::milliseconds(1)) ++late;
      w.reports++;
      w.all_ns += ns;
      if (traced) w.traced_ns += ns;
    }
    running--;
  });

  std::vector<std::thread> client_threads;
  for (int c = 0; c < kClients; ++c) {
    client_threads.emplace_back([&, c] {
      ClientResult& res = clients[c];
      const std::vector<QuerySpec> specs = MakeQueries(
          cfg.seed * kClients + c, kSpecsPerClient,
          {QueryKind::kWindow, QueryKind::kNow, QueryKind::kKnn});
      for (size_t i = 0; Clock::now() < end; ++i) {
        const QuerySpec& q = specs[i % specs.size()];
        const bool traced = cfg.trace && (i / 3) % 2 == 1;
        TracedScope scope(traced);
        swst::obs::QueryTrace trace;
        const auto t0 = Clock::now();
        QueryRun run = RunQuery(stack->index.get(), q, traced ? &trace : nullptr);
        const auto t1 = Clock::now();
        const double us =
            std::chrono::duration<double, std::micro>(t1 - t0).count();
        res.attempted++;
        if (!run.status.ok()) {
          res.failed++;
          continue;
        }
        res.lat.push_back(
            {std::chrono::duration<double>(t1 - start).count(), us});
        res.by_kind[static_cast<int>(q.kind)].push_back(us);
        if (q.kind == QueryKind::kWindow) res.window_lat.push_back(res.lat.back());
        (traced ? res.traced_us : res.plain_us).push_back(us);
        res.reads.queries++;
        res.reads.stats += run.stats;
        if (q.kind == QueryKind::kNow) {
          res.reads.now_queries++;
          res.reads.now_live_candidates += run.stats.live_candidates;
        }
        if (traced) res.reads.spans.Add(trace);
      }
      running--;
    });
  }

  Health health;
  while (running.load() > 0) {
    health.pending_max =
        std::max(health.pending_max, stack->index->EpochStats().pending);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  writer_thread.join();
  for (auto& t : client_threads) t.join();
  const LayerSnapshot after = LayerSnapshot::Take(*stack);

  std::vector<Sample> lat, window_lat;
  std::vector<double> traced_us, plain_us;
  std::vector<double> by_kind[3];
  ReadSide reads;
  for (const ClientResult& c : clients) {
    lat.insert(lat.end(), c.lat.begin(), c.lat.end());
    window_lat.insert(window_lat.end(), c.window_lat.begin(),
                      c.window_lat.end());
    traced_us.insert(traced_us.end(), c.traced_us.begin(), c.traced_us.end());
    plain_us.insert(plain_us.end(), c.plain_us.begin(), c.plain_us.end());
    reads.Add(c.reads);
    for (int k = 0; k < 3; ++k) {
      by_kind[k].insert(by_kind[k].end(), c.by_kind[k].begin(),
                        c.by_kind[k].end());
    }
    out.attempted += c.attempted;
    out.failed += c.failed;
  }
  out.attempted += w.reports;
  out.failed += write_failed;
  const SliceSummary window = Summarize(window_lat, cfg.seconds);
  e2e.ops_per_s = Summarize(lat, cfg.seconds).rate;
  e2e.op_p50_us = window.p50;
  e2e.op_p95_us = window.p95;
  e2e.node_accesses_per_op =
      reads.queries > 0 ? static_cast<double>(reads.stats.node_accesses) /
                              static_cast<double>(reads.queries)
                        : 0.0;
  std::fprintf(stderr,
               "mixed: %llu queries (p50 window %.1f us, now %.1f us, knn "
               "%.1f us), %llu reports (%llu late)\n",
               static_cast<unsigned long long>(reads.queries),
               Median(by_kind[0]), Median(by_kind[1]), Median(by_kind[2]),
               static_cast<unsigned long long>(w.reports),
               static_cast<unsigned long long>(late));

  CheckIndex(*stack, oracle, cfg.seed, "after mixed", &out);
  e2e.space_amp = SpaceAmp(*stack, oracle);
  if (cfg.trace) {
    CrossCheck(before, after, &out);
    health.trace_overhead = TraceOverhead(traced_us, plain_us);
    health.late_share = w.reports > 0 ? static_cast<double>(late) /
                                            static_cast<double>(w.reports)
                                      : 0.0;
    EmitLayers(*stack, before, after, w, reads, health, &out);
  }

  stack = TimedReopens(std::move(stack), kWarmPoolPages, cfg.trace,
                       &e2e.reopen_s);
  CheckIndex(*stack, oracle, cfg.seed, "after reopen", &out);
  if (!cfg.trace) EmitEndToEnd(e2e, &out);
  return out;
}

}  // namespace perfbench
