// `cold`: historical analysis over data larger than the program's cache.
// The dataset is built and checkpointed, then reopened with a buffer pool
// of 1/8 of the index's live pages; one serial client runs window and knn
// queries, with no writer. The first pass over the query list runs
// untraced in every mode and pins the paper's metric (node accesses per
// window query), the physical reads, and the result hash: all repeat
// exactly for a given seed.

#include <algorithm>
#include <cstdio>

#include "common.h"

namespace perfbench {
namespace {

constexpr size_t kQueries = 1200;  ///< One pass; cycled for the timed phase.
constexpr size_t kPoolFraction = 8;

}  // namespace

Outcome RunCold(const RunConfig& cfg) {
  using Clock = std::chrono::steady_clock;
  Outcome out;
  const Dataset ds = BuildDataset();

  EndToEnd e2e;
  std::unique_ptr<Stack> stack = SetUp(cfg, ds, &e2e.setup_s);
  const Oracle oracle(ds);
  e2e.space_amp = SpaceAmp(*stack, oracle);
  const size_t pool_pages = std::max<size_t>(
      16, stack->file_pager->live_page_count() / kPoolFraction);

  stack = TimedReopens(std::move(stack), pool_pages, cfg.trace,
                       &e2e.reopen_s);

  const std::vector<QuerySpec> specs = MakeQueries(
      cfg.seed, kQueries, {QueryKind::kWindow, QueryKind::kKnn});
  std::vector<uint64_t> digests(specs.size());
  uint64_t result_hash = 0, window_na = 0, windows = 0, node_accesses = 0;
  ReadSide reads;
  std::vector<Sample> lat, window_lat;
  std::vector<double> traced_us, plain_us;
  uint64_t pass_reads = 0, pass_syscalls = 0;
  const LayerSnapshot before = LayerSnapshot::Take(*stack);

  const auto start = Clock::now();
  for (size_t i = 0;; ++i) {
    const bool first_pass = i < specs.size();
    if (!first_pass && SecondsSince(start) >= cfg.seconds) break;
    if (i == specs.size()) {
      const LayerSnapshot now = LayerSnapshot::Take(*stack);
      pass_reads = now.io.physical_reads - before.io.physical_reads;
      pass_syscalls = now.read_syscalls - before.read_syscalls;
    }
    const QuerySpec& q = specs[i % specs.size()];
    const bool traced = cfg.trace && !first_pass && (i / 2) % 2 == 1;
    TracedScope scope(traced);
    swst::obs::QueryTrace trace;
    const auto t0 = Clock::now();
    QueryRun run = RunQuery(stack->index.get(), q, traced ? &trace : nullptr);
    const auto t1 = Clock::now();
    const double us = std::chrono::duration<double, std::micro>(t1 - t0).count();
    out.attempted++;
    if (!run.status.ok()) {
      out.failed++;
      continue;
    }
    node_accesses += run.stats.node_accesses;
    const uint64_t d = Digest(run.entries);
    if (first_pass) {
      digests[i] = d;
      result_hash = result_hash * 0x100000001B3ULL ^ d;
      if (q.kind == QueryKind::kWindow) {
        window_na += run.stats.node_accesses;
        windows++;
      }
    } else if (d != digests[i % specs.size()]) {
      out.Fail("query " + std::to_string(i % specs.size()) +
               (traced ? " (traced)" : "") +
               " answered differently from its first run");
    }
    lat.push_back({std::chrono::duration<double>(t1 - start).count(), us});
    if (q.kind == QueryKind::kWindow) window_lat.push_back(lat.back());
    if (!first_pass) (traced ? traced_us : plain_us).push_back(us);
    reads.queries++;
    reads.stats += run.stats;
    if (traced) reads.spans.Add(trace);
  }
  const LayerSnapshot after = LayerSnapshot::Take(*stack);
  const SliceSummary window = Summarize(window_lat, cfg.seconds);
  e2e.ops_per_s = Summarize(lat, cfg.seconds).rate;
  e2e.op_p50_us = window.p50;
  e2e.op_p95_us = window.p95;
  e2e.node_accesses_per_op =
      windows ? static_cast<double>(window_na) / windows : 0.0;
  std::fprintf(stderr,
               "cold: pool %zu pages, %llu queries; first pass: result hash "
               "%016llx, node accesses per window query %.4f, physical reads "
               "%llu, read syscalls %llu\n",
               pool_pages, static_cast<unsigned long long>(reads.queries),
               static_cast<unsigned long long>(result_hash),
               e2e.node_accesses_per_op,
               static_cast<unsigned long long>(pass_reads),
               static_cast<unsigned long long>(pass_syscalls));

  // The paper's metric, cross-checked: per-query node accesses must add up
  // to the pool's logical reads exactly.
  const uint64_t logical = after.io.logical_reads - before.io.logical_reads;
  if (logical != node_accesses) {
    out.Fail("QueryStats node accesses " + std::to_string(node_accesses) +
             " != pool logical reads " + std::to_string(logical));
  }
  CheckIndex(*stack, oracle, cfg.seed, "cold", &out);

  if (cfg.trace) {
    CrossCheck(before, after, &out);
    Health health;
    health.trace_overhead = TraceOverhead(traced_us, plain_us);
    health.pending_max = stack->index->EpochStats().pending;
    EmitLayers(*stack, before, after, WriteSide{}, reads, health, &out);
  } else {
    EmitEndToEnd(e2e, &out);
  }
  return out;
}

}  // namespace perfbench
