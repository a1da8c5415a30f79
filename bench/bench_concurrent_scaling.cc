// Concurrent query scaling for the sharded SwstIndex: N client threads
// issue window queries against one index (read-only mode), or against one
// index that a background writer keeps ingesting into (mixed mode).
// Reports QPS and latency percentiles as JSON, one result object per
// (mode, threads) point.
//
// The point of the experiment: the lock-free read path (epoch-pinned shard
// snapshots + wait-free memo reads) lets read throughput scale with client
// threads instead of serializing on shard mutexes. Each point also reports
// `lock_waits` — the delta of the swst_index_shard_lock_wait_us histogram
// count across the point — so the read-only rows double as a proof that
// queries acquire zero shard locks (the checker gates lock_waits == 0 for
// every read_only point). The top-level `hw_concurrency` field records the
// machine's core count so the scaling gate in tools/check_bench_json.py can
// scale its speedup expectation to the hardware the run executed on.
//
// Latency is collected in bounded per-thread reservoirs (no shared state on
// the query path, no unbounded growth for long runs); reservoirs are merged
// after the threads join and percentiles are computed over the union.
//
// The read-only scaling gate gets its own paired section: 7 back-to-back
// 1-thread/8-thread rep pairs (the order inside a pair alternates, both
// sides run the same total number of queries). The top-level "scaling"
// JSON object lists every per-pair qps(8)/qps(1) speedup and their median;
// the checker fails only when the 75th-percentile speedup is below its
// hardware-scaled floor, so one oversubscribed-scheduler rep cannot flip
// the gate but a read path that stops scaling still does.
//
// The run also prices the always-on observability stack: the index runs
// with a SlowQueryLog attached throughout, and a final A/B section re-runs
// the mixed-mode 4-thread point with the process-wide flight recorder
// enabled vs disabled, as 7 back-to-back on/off pairs (the order inside a
// pair alternates). The result is the top-level "recorder" JSON object
// with every per-pair qps_on/qps_off ratio and their median; the checker
// fails only when the 75th-percentile pair ratio is below 0.95, so one
// noisy pair cannot flip the gate but a real >5% cost still does.
//
// Usage: bench_concurrent_scaling [--smoke] [--json]
//   --smoke    one short iteration per point (CI smoke test).
//   --json     accepted for symmetry with the other benches; output is
//              always the machine-readable BENCH_*.json schema.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/workload.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/slow_query_log.h"

namespace {

using namespace swst;
using namespace swst::bench;

double PercentileUs(std::vector<double>* lat, double p) {
  if (lat->empty()) return 0;
  std::sort(lat->begin(), lat->end());
  size_t i = static_cast<size_t>(p * (lat->size() - 1));
  return (*lat)[i];
}

// Bounded per-thread latency sink: the first kCap samples fill the buffer,
// later ones overwrite it round-robin, so a long run keeps a recent window
// instead of growing without bound. `total` still counts every completed
// query, so QPS is exact even when the reservoir wraps.
struct LatencyReservoir {
  static constexpr size_t kCap = 8192;
  std::vector<double> samples;
  uint64_t total = 0;

  void Add(double us) {
    if (samples.size() < kCap) {
      samples.push_back(us);
    } else {
      samples[total % kCap] = us;
    }
    total++;
  }
};

struct ScalingPoint {
  const char* mode;
  int threads;
  double qps;
  double p50_us;
  double p99_us;
  uint64_t lock_waits = 0;     // Shard-lock acquisitions during this point.
  uint64_t pages_read = 0;     // Physical page reads during this point.
  uint64_t pages_written = 0;  // Physical page writes during this point.
};

ScalingPoint RunPoint(SwstIndex* idx, const std::vector<WindowQuery>& queries,
               int threads, int queries_per_thread, bool mixed,
               const GstdOptions& gstd) {
  std::atomic<bool> stop_writer{false};
  std::thread writer;
  if (mixed) {
    // One ingestion thread replays a fresh GSTD stream (new oids) for the
    // duration of the measurement — the paper's streaming model.
    writer = std::thread([&] {
      GstdGenerator gen(gstd);
      std::unordered_map<ObjectId, Entry> open;
      GstdRecord rec;
      while (!stop_writer.load(std::memory_order_relaxed) && gen.Next(&rec)) {
        const ObjectId oid = rec.oid + 1000000;  // Avoid loaded oids.
        auto it = open.find(oid);
        const Entry* prev = (it != open.end()) ? &it->second : nullptr;
        Entry cur;
        if (!idx->ReportPosition(oid, rec.pos, rec.t, prev, &cur).ok()) break;
        open[oid] = cur;
      }
    });
  }

  std::vector<LatencyReservoir> lat(threads);
  std::atomic<uint64_t> errors{0};
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> clients;
  for (int t = 0; t < threads; ++t) {
    clients.emplace_back([&, t] {
      for (int i = 0; i < queries_per_thread; ++i) {
        const WindowQuery& q = queries[(t * queries_per_thread + i) %
                                       queries.size()];
        const auto q0 = std::chrono::steady_clock::now();
        auto r = idx->IntervalQuery(q.area, q.interval);
        const auto q1 = std::chrono::steady_clock::now();
        if (!r.ok()) {
          errors++;
          return;
        }
        lat[t].Add(
            std::chrono::duration<double, std::micro>(q1 - q0).count());
      }
    });
  }
  for (auto& c : clients) c.join();
  const auto t1 = std::chrono::steady_clock::now();
  if (mixed) {
    stop_writer.store(true, std::memory_order_relaxed);
    writer.join();
  }
  if (errors.load() != 0) {
    std::fprintf(stderr, "query failures in %s mode\n",
                 mixed ? "mixed" : "read_only");
    std::abort();
  }

  std::vector<double> all;
  uint64_t completed = 0;
  for (auto& v : lat) {
    all.insert(all.end(), v.samples.begin(), v.samples.end());
    completed += v.total;
  }
  const double secs = std::chrono::duration<double>(t1 - t0).count();
  ScalingPoint p;
  p.mode = mixed ? "mixed" : "read_only";
  p.threads = threads;
  p.qps = (secs > 0) ? completed / secs : 0;
  p.p50_us = PercentileUs(&all, 0.50);
  p.p99_us = PercentileUs(&all, 0.99);
  return p;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strcmp(argv[i], "--json") == 0) {}  // JSON is the only format.
  }

  const double scale = smoke ? 0.02 : ScaleFromEnv();
  const uint64_t objects = ScaledObjects(50000, scale);
  const int queries_per_thread = smoke ? 20 : 400;

  obs::MetricsRegistry registry;
  SwstOptions options = PaperSwstOptions();
  // Intra-query fan-out stays off: this benchmark measures inter-query
  // scaling, the dominant mode for a streaming server.
  options.query_threads = 1;
  options.metrics = &registry;
  // The production posture: slow-query capture is on for every point, so
  // the scaling numbers already include its (lock-free) hot-path cost.
  obs::SlowQueryLog slow_log;
  options.slow_log = &slow_log;
  auto pager = Pager::OpenMemory();
  BufferPool pool(pager.get(), 1 << 17, /*partitions=*/0, &registry);
  auto idx_or = SwstIndex::Create(&pool, options);
  if (!idx_or.ok()) return 1;
  auto idx = std::move(*idx_or);

  const GstdOptions gstd = PaperGstdOptions(objects);
  LoadSwst(idx.get(), &pool, gstd, /*time_cap=*/95000);
  const TimeInterval win = idx->QueriablePeriod();
  const auto queries =
      MakeQueries(options.space, win, /*spatial_extent=*/0.01,
                  /*temporal_extent=*/0.10, /*count=*/256, /*seed=*/11);

  // Registration is idempotent, so this returns the very histogram the
  // index records shard-lock waits into — its count() delta across a point
  // is the number of shard mutex acquisitions that point performed.
  auto lock_wait_hist = registry.RegisterHistogram(
      "swst_index_shard_lock_wait_us",
      "Time spent waiting to acquire a shard mutex on the write path");

  const GstdOptions mixer = PaperGstdOptions(objects, /*seed=*/77);
  std::vector<ScalingPoint> points;
  const std::vector<int> thread_counts =
      smoke ? std::vector<int>{1, 4, 8} : std::vector<int>{1, 2, 4, 8, 16};
  for (bool mixed : {false, true}) {
    for (int threads : thread_counts) {
      const IoStats before = pool.stats();
      const uint64_t locks_before = lock_wait_hist->count();
      ScalingPoint p = RunPoint(idx.get(), queries, threads,
                                queries_per_thread, mixed, mixer);
      p.lock_waits = lock_wait_hist->count() - locks_before;
      const IoStats io = pool.stats().Since(before);
      p.pages_read = io.physical_reads.load();
      p.pages_written = io.physical_writes.load();
      points.push_back(p);
    }
  }

  // Even in smoke mode each A/B rep runs a few hundred queries per thread:
  // a sub-10ms measurement would be scheduler noise, and the paired
  // sections below are pass/fail gates, not a scaling curve.
  const int ab_queries = std::max(queries_per_thread, 200);
  constexpr int kPairs = 7;
  auto median = [](std::vector<double> v) {
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
  };

  // Read-only 8T/1T scaling, paired: each pair runs both sides back to
  // back on the same total query count, order alternating between pairs.
  // A virtualized host may park idle vCPUs: from idle, a pure compute loop
  // on a 4-vCPU KVM guest ran 8 threads at 1.0x its 1-thread speed for
  // the first ~1.1 s of demand, then at 3.6x. Two seconds of 8-thread
  // read-only load first keep that wake-up out of the pairs.
  const auto warm_up = std::chrono::steady_clock::now();
  while (std::chrono::steady_clock::now() - warm_up <
         std::chrono::seconds(2)) {
    RunPoint(idx.get(), queries, 8, ab_queries, /*mixed=*/false, mixer);
  }
  std::vector<double> speedups;
  for (int pair = 0; pair < kPairs; ++pair) {
    auto run_read_only = [&](int threads) {
      return RunPoint(idx.get(), queries, threads, ab_queries * 8 / threads,
                      /*mixed=*/false, mixer)
          .qps;
    };
    const bool one_first = pair % 2 == 0;
    const double first = run_read_only(one_first ? 1 : 8);
    const double second = run_read_only(one_first ? 8 : 1);
    const double qps1 = one_first ? first : second;
    const double qps8 = one_first ? second : first;
    speedups.push_back(qps1 > 0 ? qps8 / qps1 : 0.0);
  }

  // Flight-recorder overhead A/B on the busiest observable point (mixed
  // mode: the writer emits snapshot-publish/epoch-reclaim events while the
  // clients query). Each pair runs both sides back to back, so the pair
  // ratio cancels drift that spans pairs; the order alternates between
  // pairs. The recorder is re-enabled afterwards — it is always on in
  // production and the A/B exists to prove that is affordable.
  obs::FlightRecorder& recorder = obs::FlightRecorder::Global();
  const int ab_threads = 4;
  auto run_ab = [&](bool enabled) {
    recorder.SetEnabled(enabled);
    return RunPoint(idx.get(), queries, ab_threads, ab_queries,
                    /*mixed=*/true, mixer)
        .qps;
  };
  std::vector<double> ratios;
  for (int pair = 0; pair < kPairs; ++pair) {
    const bool on_first = pair % 2 == 0;
    const double first = run_ab(on_first);
    const double second = run_ab(!on_first);
    const double on = on_first ? first : second;
    const double off = on_first ? second : first;
    ratios.push_back(off > 0 ? on / off : 0.0);
  }
  recorder.SetEnabled(true);

  std::printf("{\n  \"bench\": \"concurrent_scaling\",\n");
  std::printf("  \"objects\": %llu,\n",
              static_cast<unsigned long long>(objects));
  std::printf("  \"hw_concurrency\": %u,\n",
              std::thread::hardware_concurrency());
  std::printf("  \"queries_per_thread\": %d,\n", queries_per_thread);
  std::printf("  \"recorder\": {\"mode\": \"mixed\", \"threads\": %d, "
              "\"pairs\": %d, \"ratios\": [",
              ab_threads, kPairs);
  for (int i = 0; i < kPairs; ++i) {
    std::printf("%s%.3f", i == 0 ? "" : ", ", ratios[i]);
  }
  std::printf("], \"median_ratio\": %.3f},\n", median(ratios));
  std::printf("  \"scaling\": {\"mode\": \"read_only\", \"threads\": [1, 8], "
              "\"pairs\": %d, \"speedups\": [",
              kPairs);
  for (int i = 0; i < kPairs; ++i) {
    std::printf("%s%.3f", i == 0 ? "" : ", ", speedups[i]);
  }
  std::printf("], \"median_speedup\": %.3f},\n", median(speedups));
  std::printf("  \"results\": [\n");
  for (size_t i = 0; i < points.size(); ++i) {
    const ScalingPoint& p = points[i];
    std::printf("    {\"mode\": \"%s\", \"threads\": %d, \"qps\": %.1f, "
                "\"p50_us\": %.1f, \"p99_us\": %.1f, \"lock_waits\": %llu, "
                "\"pages_read\": %llu, \"pages_written\": %llu}%s\n",
                p.mode, p.threads, p.qps, p.p50_us, p.p99_us,
                static_cast<unsigned long long>(p.lock_waits),
                static_cast<unsigned long long>(p.pages_read),
                static_cast<unsigned long long>(p.pages_written),
                (i + 1 < points.size()) ? "," : "");
  }
  std::printf("  ],\n  \"metrics\": %s\n}\n", registry.RenderJson().c_str());
  return 0;
}
