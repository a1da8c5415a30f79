// WAL group-commit throughput: ingest the same number of entries at
// increasing commit batch sizes and report records/sec plus the real
// fsync cost per record. Batch size 1 is the per-insert-sync baseline
// (every Insert forces its own log sync); larger batches go through
// InsertBatch, whose group commit stamps every record and pays for one
// sync per batch.
//
// The point of the experiment: group commit amortizes the dominant
// durability cost — fsyncs/record must fall roughly linearly with the
// batch size (the bench aborts unless batch 1024 shows at least a 4x
// reduction vs. per-insert sync).
//
// A separate "report" row prices the streaming protocol itself: a fixed
// stream of ReportPosition calls (close the previous entry, insert the
// current one) with no Advance. A report is one acknowledgement, so it is
// one group commit — the checker gates fsyncs_per_report <= 1.0 while
// wal_records_per_report approaches 2 (close + insert).
//
// Syncs are counted at the WalStore boundary through the
// FaultInjectionWalStore decorator (no faults installed) — the same
// counter the crash-matrix tests use — so "fsyncs" means actual store
// sync calls, not requests that Wal::Sync short-circuited.
//
// The batch rows and the "report" row run over the in-memory WAL store.
// The "dir_report" row runs the same report stream over a directory WAL
// (real files, real fdatasync) in a temporary directory under the build
// tree, with one writer, and reports reports/s and the p50 of
// swst_wal_sync_us (a log2 bucket's upper bound) — the file-system cost
// of one durable report. It counts syncs with the WAL's own
// swst_wal_syncs_total (backend syncs), and the checker pins
// fsyncs_per_report at exactly 1.0.
//
// Usage: bench_wal_commit [--smoke] [--json]
//   --smoke    fewer records per point (CI smoke test).
//   --json     accepted for symmetry with the other benches; output is
//              always the machine-readable BENCH_*.json schema.

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "bench/workload.h"
#include "common/random.h"
#include "obs/metrics.h"
#include "storage/fault_injection_wal.h"
#include "storage/wal.h"

namespace {

using namespace swst;
using namespace swst::bench;

struct CommitPoint {
  uint64_t batch = 0;
  uint64_t records = 0;
  double records_per_sec = 0;
  uint64_t wal_appends = 0;
  uint64_t wal_syncs = 0;
  double fsyncs_per_record = 0;
};

struct ReportPoint {
  uint64_t reports = 0;
  double reports_per_sec = 0;
  uint64_t wal_appends = 0;
  uint64_t wal_syncs = 0;
  double fsyncs_per_report = 0;
  double wal_records_per_report = 0;
};

struct DirReportPoint {
  uint64_t reports = 0;
  double reports_per_sec = 0;
  uint64_t wal_syncs = 0;
  double fsyncs_per_report = 0;
  uint64_t sync_p50_us = 0;
};

void Check(const Status& st, const char* what) {
  if (!st.ok()) {
    std::fprintf(stderr, "%s: %s\n", what, st.ToString().c_str());
    std::abort();
  }
}

/// A durable paper-default index over a memory pager and the WAL store
/// `wal_store` (not owned; must outlive the stack). Members are declared
/// so the Wal outlives the pool (whose destructor-time flush enforces the
/// WAL rule against it) and the pager outlives both.
struct DurableStack {
  std::unique_ptr<Pager> pager = Pager::OpenMemory();
  std::unique_ptr<Wal> wal;
  std::unique_ptr<BufferPool> pool;
  std::unique_ptr<SwstIndex> idx;
  SwstOptions options = PaperSwstOptions();

  DurableStack(WalStore* wal_store, obs::MetricsRegistry* registry) {
    WalOptions wopts;
    wopts.metrics = registry;
    auto w = Wal::Open(wal_store, wopts);
    Check(w.status(), "Wal::Open");
    wal = std::move(*w);
    pool = std::make_unique<BufferPool>(pager.get(), 1 << 14);
    pool->AttachWal(wal.get());
    options.wal = wal.get();
    auto i = SwstIndex::Create(pool.get(), options);
    Check(i.status(), "Create");
    idx = std::move(*i);
  }
};

/// An in-memory WAL store behind the sync-counting decorator.
struct CountedMemoryWal {
  std::unique_ptr<WalStore> base = WalStore::OpenMemory();
  FaultInjectionWalStore store{base.get()};  // Sync counter; no faults.
};

// Fixed arrival clock inside the first window: the bench measures commit
// cost, so nothing should expire or slide mid-run.
Entry MakeBenchEntry(Random* rng, ObjectId oid, const SwstOptions& options) {
  Entry e;
  e.oid = oid;
  e.pos = {rng->UniformDouble(options.space.lo.x, options.space.hi.x),
           rng->UniformDouble(options.space.lo.y, options.space.hi.y)};
  e.start = 100;
  e.duration = 1 + static_cast<Duration>(rng->Uniform(options.max_duration - 1));
  return e;
}

CommitPoint RunPoint(uint64_t batch, uint64_t records,
                     obs::MetricsRegistry* registry) {
  CountedMemoryWal m;
  DurableStack s(&m.store, registry);
  Random rng(/*seed=*/batch * 7919 + 1);
  const uint64_t syncs0 = m.store.syncs();
  const uint64_t appends0 = m.store.appends();
  ObjectId oid = 1;
  uint64_t done = 0;
  const auto t0 = std::chrono::steady_clock::now();
  while (done < records) {
    const uint64_t n = std::min(batch, records - done);
    if (n == 1) {
      Check(s.idx->Insert(MakeBenchEntry(&rng, oid, s.options)), "insert");
      ++oid;
    } else {
      std::vector<Entry> group;
      group.reserve(n);
      for (uint64_t j = 0; j < n; ++j) {
        group.push_back(MakeBenchEntry(&rng, oid, s.options));
        ++oid;
      }
      Check(s.idx->InsertBatch(group), "insert");
    }
    done += n;
  }
  const auto t1 = std::chrono::steady_clock::now();

  const double secs = std::chrono::duration<double>(t1 - t0).count();
  CommitPoint p;
  p.batch = batch;
  p.records = records;
  p.records_per_sec = (secs > 0) ? records / secs : 0;
  p.wal_appends = m.store.appends() - appends0;
  p.wal_syncs = m.store.syncs() - syncs0;
  p.fsyncs_per_record =
      (records > 0) ? static_cast<double>(p.wal_syncs) / records : 0;
  return p;
}

// The report stream: kObjects objects report round-robin, one tick apart,
// for kRounds rounds — every report after an object's first closes its
// previous entry. 4096 reports fit well inside one WAL segment and one
// window, so no rotation or expiry adds a sync.
constexpr uint64_t kObjects = 64;
constexpr uint64_t kRounds = 64;
constexpr uint64_t kReports = kObjects * kRounds;

/// Streams the reports into `s`; returns the wall seconds they took.
double StreamReports(DurableStack* s) {
  Random rng(/*seed=*/4243);
  std::vector<Entry> open(kObjects);
  const auto t0 = std::chrono::steady_clock::now();
  for (uint64_t round = 0; round < kRounds; ++round) {
    for (uint64_t k = 0; k < kObjects; ++k) {
      const Point pos{rng.UniformDouble(s->options.space.lo.x,
                                        s->options.space.hi.x),
                      rng.UniformDouble(s->options.space.lo.y,
                                        s->options.space.hi.y)};
      Check(s->idx->ReportPosition(k + 1, pos, 100 + round,
                                   round == 0 ? nullptr : &open[k], &open[k]),
            "report");
    }
  }
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

ReportPoint RunReports(obs::MetricsRegistry* registry) {
  CountedMemoryWal m;
  DurableStack s(&m.store, registry);
  const uint64_t syncs0 = m.store.syncs();
  const uint64_t appends0 = m.store.appends();
  const Lsn lsn0 = s.wal->last_lsn();
  const double secs = StreamReports(&s);

  ReportPoint p;
  p.reports = kReports;
  p.reports_per_sec = (secs > 0) ? p.reports / secs : 0;
  p.wal_appends = m.store.appends() - appends0;
  p.wal_syncs = m.store.syncs() - syncs0;
  p.fsyncs_per_report = static_cast<double>(p.wal_syncs) / p.reports;
  p.wal_records_per_report =
      static_cast<double>(s.wal->last_lsn() - lsn0) / p.reports;
  return p;
}

/// The report stream over a directory WAL in a fresh directory under
/// `parent`, removed afterwards. Its own registry keeps the sync latency
/// histogram to this row's syncs.
DirReportPoint RunDirReports(const std::string& parent) {
  const std::filesystem::path dir =
      std::filesystem::path(parent) /
      ("bench_wal_commit_dir_wal_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  obs::MetricsRegistry registry;
  DirReportPoint p;
  {
    auto store = WalStore::OpenDir(dir.string());
    Check(store.status(), "WalStore::OpenDir");
    DurableStack s(store->get(), &registry);
    const auto syncs = registry.RegisterCounter("swst_wal_syncs_total", "");
    const uint64_t syncs0 = syncs->value();
    const double secs = StreamReports(&s);
    p.reports = kReports;
    p.reports_per_sec = (secs > 0) ? p.reports / secs : 0;
    p.wal_syncs = syncs->value() - syncs0;
    p.fsyncs_per_report = static_cast<double>(p.wal_syncs) / p.reports;
    p.sync_p50_us =
        registry.RegisterHistogram("swst_wal_sync_us", "")->Percentile(0.5);
  }
  std::filesystem::remove_all(dir);
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
  const uint64_t records = ScaledObjects(100000, scale);
  const std::vector<uint64_t> batches = {1, 16, 256, 1024, 8192};

  obs::MetricsRegistry registry;
  std::vector<CommitPoint> points;
  for (uint64_t batch : batches) {
    points.push_back(RunPoint(batch, records, &registry));
  }
  const ReportPoint report = RunReports(&registry);
  const DirReportPoint dir_report = RunDirReports(SWST_BENCH_SCRATCH_DIR);

  // Acceptance gate: group commit at batch 1024 must cut fsyncs/record
  // by at least 4x vs. per-insert sync (in practice it is ~batch-size x).
  double fpr1 = 0, fpr1024 = 0;
  for (const CommitPoint& p : points) {
    if (p.batch == 1) fpr1 = p.fsyncs_per_record;
    if (p.batch == 1024) fpr1024 = p.fsyncs_per_record;
  }
  if (fpr1 <= 0 || fpr1024 * 4.0 > fpr1) {
    std::fprintf(stderr,
                 "group commit regression: fsyncs/record %.4f at batch 1 vs "
                 "%.4f at batch 1024 (< 4x reduction)\n",
                 fpr1, fpr1024);
    std::abort();
  }

  std::printf("{\n  \"bench\": \"wal_commit\",\n");
  std::printf("  \"records_per_point\": %llu,\n",
              static_cast<unsigned long long>(records));
  std::printf(
      "  \"report\": {\"reports\": %llu, \"reports_per_sec\": %.1f, "
      "\"wal_appends\": %llu, \"wal_syncs\": %llu, "
      "\"fsyncs_per_report\": %.6f, \"wal_records_per_report\": %.6f},\n",
      static_cast<unsigned long long>(report.reports), report.reports_per_sec,
      static_cast<unsigned long long>(report.wal_appends),
      static_cast<unsigned long long>(report.wal_syncs),
      report.fsyncs_per_report, report.wal_records_per_report);
  std::printf(
      "  \"dir_report\": {\"reports\": %llu, \"reports_per_sec\": %.1f, "
      "\"wal_syncs\": %llu, \"fsyncs_per_report\": %.6f, "
      "\"sync_p50_us\": %llu},\n",
      static_cast<unsigned long long>(dir_report.reports),
      dir_report.reports_per_sec,
      static_cast<unsigned long long>(dir_report.wal_syncs),
      dir_report.fsyncs_per_report,
      static_cast<unsigned long long>(dir_report.sync_p50_us));
  std::printf("  \"results\": [\n");
  for (size_t i = 0; i < points.size(); ++i) {
    const CommitPoint& p = points[i];
    std::printf(
        "    {\"batch\": %llu, \"records\": %llu, \"records_per_sec\": %.1f, "
        "\"wal_appends\": %llu, \"wal_syncs\": %llu, "
        "\"fsyncs_per_record\": %.6f}%s\n",
        static_cast<unsigned long long>(p.batch),
        static_cast<unsigned long long>(p.records), p.records_per_sec,
        static_cast<unsigned long long>(p.wal_appends),
        static_cast<unsigned long long>(p.wal_syncs), p.fsyncs_per_record,
        (i + 1 < points.size()) ? "," : "");
  }
  std::printf("  ],\n  \"metrics\": %s\n}\n", registry.RenderJson().c_str());
  return 0;
}
