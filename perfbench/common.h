// Shared pieces of the end-to-end benchmark: the fixed dataset (paper
// Table II), the production stack, the brute-force oracle that checks
// answers, query generation, and the result record every workload fills.
// See README.md for what each workload measures and why.

#ifndef SWST_PERFBENCH_COMMON_H_
#define SWST_PERFBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/random.h"
#include "common/types.h"
#include "gstd/gstd.h"
#include "obs/metrics.h"
#include "obs/slow_query_log.h"
#include "obs/trace.h"
#include "storage/buffer_pool.h"
#include "storage/pager.h"
#include "storage/wal.h"
#include "swst/swst_index.h"
#include "timed_io.h"

namespace perfbench {

using swst::Entry;
using swst::Point;
using swst::Rect;
using swst::Status;
using swst::TimeInterval;
using swst::Timestamp;

struct Outcome;

/// Command-line settings of one run.
struct RunConfig {
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string dir;  ///< Scratch directory for data files and the WAL.
};

// Every size and rate is a constant, so a parent commit and a change see
// identical load however fast either runs.
inline constexpr uint64_t kObjects = 10000;     ///< Table II, smallest set.
inline constexpr uint64_t kStreamSeed = 42;     ///< Fixed GSTD stream.
inline constexpr Timestamp kPreloadEnd = 40000; ///< Epoch 2 starts at 40200.
inline constexpr size_t kPreloadBatch = 4096;   ///< Entries per group commit.
inline constexpr size_t kWarmPoolPages = 1 << 16;  ///< Holds every page.
inline constexpr uint64_t kCheckpointSlides = 20;  ///< Stream-time period.
inline constexpr int kSetupReps = 5;
inline constexpr int kReopenReps = 9;
inline constexpr int kSlices = 10;  ///< Timed phase split for medians.
inline constexpr size_t kKnnK = 10;
inline constexpr double kQuerySide = 1000.0;      ///< 1% of the area.
inline constexpr Timestamp kWindowSpan = 10000;   ///< 10% of T.

/// Paper Table II index options; one query thread (clients give the
/// parallelism, as in a streaming server).
swst::SwstOptions PaperOptions();

/// The Table II GSTD stream with the fixed seed.
swst::GstdOptions PaperStream();

/// The whole stream, and the index state at `kPreloadEnd` derived from it
/// without replaying it: closed entries (next report within Dmax) and
/// current ones, restricted to the window at the preload clock.
struct Dataset {
  std::vector<swst::GstdRecord> stream;
  size_t continuation = 0;     ///< First record with t >= kPreloadEnd.
  std::vector<Entry> preload;  ///< In start order; InsertBatch-ready.
  Timestamp preload_clock = 0;
};
Dataset BuildDataset();

/// The benchmark's own copy of the window: every entry it put into the
/// index, kept current as reports close entries. Answers queries by brute
/// force.
class Oracle {
 public:
  explicit Oracle(const Dataset& ds);

  /// The object's latest entry, if it is in the copy.
  const Entry* Latest(swst::ObjectId oid) const;

  /// Mirrors `SwstIndex::ReportPosition`.
  void Report(swst::ObjectId oid, const Point& pos, Timestamp t);

  std::vector<Entry> Window(const Rect& area, const TimeInterval& interval,
                            const TimeInterval& win) const;
  /// Sorted squared distances of the k nearest qualifying entries.
  std::vector<double> KnnDistances(const Point& c, size_t k,
                                   const TimeInterval& interval,
                                   const TimeInterval& win) const;
  /// Current entries whose epoch is still live at clock `now`.
  uint64_t OpenEntries(Timestamp now) const;
  /// Entries whose start lies in `win`.
  uint64_t InWindow(const TimeInterval& win) const;

 private:
  std::vector<Entry> entries_;
  std::unordered_map<swst::ObjectId, size_t> latest_;
};

/// SwstIndex over a file pager and a directory WAL, with a metrics
/// registry and slow-query log attached; optionally behind the timing
/// decorators. Members are declared in dependency order, so destruction
/// tears the stack down top first.
struct Stack {
  std::string dir;
  swst::obs::MetricsRegistry registry;
  swst::obs::SlowQueryLog slow_log;
  std::unique_ptr<swst::Pager> file_pager;
  std::unique_ptr<TimedPager> timed_pager;
  std::unique_ptr<swst::WalStore> file_store;
  std::unique_ptr<TimedWalStore> timed_store;
  std::unique_ptr<swst::Wal> wal;
  std::unique_ptr<swst::BufferPool> pool;
  std::unique_ptr<swst::SwstIndex> index;
  swst::PageId meta = swst::kInvalidPageId;

  /// Creates an empty stack in `dir` (wiped first).
  static std::unique_ptr<Stack> Create(const std::string& dir,
                                       size_t pool_pages, bool timed);
  /// Reopens the stack in `dir` from its checkpoint at `meta` (Recover:
  /// Open plus redo of any logged suffix).
  static std::unique_ptr<Stack> Reopen(const std::string& dir,
                                       swst::PageId meta, size_t pool_pages,
                                       bool timed);

  /// Bytes of the data file plus every WAL segment.
  uint64_t DiskBytes() const;
  /// Value of a registry scalar (counter, gauge, callback, or a
  /// histogram's `_count` / `_sum`); 0 when absent.
  int64_t Scalar(const std::string& name) const;
};

/// Checkpoints `stack`, then closes and reopens it `kReopenReps` times;
/// returns the last reopened stack and the median reopen time.
std::unique_ptr<Stack> TimedReopens(std::unique_ptr<Stack> stack,
                                    size_t pool_pages, bool timed,
                                    double* median_s);

/// Peak resident set of this process, in MiB.
double PeakRssMb();

/// Aborts the run (no result line) on an infrastructure failure.
void Check(const Status& st, const char* what);

double SecondsSince(std::chrono::steady_clock::time_point t0);
double Median(std::vector<double> v);
/// Nearest-rank percentile, p in [0, 1].
double Percentile(std::vector<double> v, double p);

/// Latency sample stamped with its completion time in the timed phase.
struct Sample {
  double at_s;
  double us;
};
/// Median across `kSlices` equal time slices of per-slice rate, p50, p95.
struct SliceSummary {
  double rate = 0, p50 = 0, p95 = 0;
};
SliceSummary Summarize(const std::vector<Sample>& samples, double duration_s);

/// One query of the mix. Window and now queries use `area`; knn uses the
/// area's centre. `frac` places a window interval inside the queriable
/// period when the query is sent.
enum class QueryKind { kWindow, kNow, kKnn };
struct QuerySpec {
  QueryKind kind;
  Rect area;
  double frac;
};
std::vector<QuerySpec> MakeQueries(uint64_t seed, size_t n,
                                   const std::vector<QueryKind>& mix);

/// Result of one query: its answer and its stats.
struct QueryRun {
  Status status;
  std::vector<Entry> entries;
  swst::QueryStats stats;
};
QueryRun RunQuery(swst::SwstIndex* index, const QuerySpec& q,
                  swst::obs::QueryTrace* trace);

/// Order-insensitive digest of a query's answer.
uint64_t Digest(const std::vector<Entry>& entries);

/// Checks `stack` against the oracle: the live tier holds exactly the open
/// entries the oracle counts, and a sample of answers agrees. Any mismatch
/// fails the run.
void CheckIndex(const Stack& stack, const Oracle& oracle, uint64_t seed,
                const char* when, Outcome* out);

/// Data file plus WAL bytes over the bytes of the entries in the window.
double SpaceAmp(const Stack& stack, const Oracle& oracle);

/// Self time of the spans of traced queries, by layer.
struct SpanTimes {
  double root_ns = 0;    ///< Trace root durations.
  double plan_ns = 0;
  double search_ns = 0;  ///< Search and per-cell self time (memo trims,
                         ///< key-range building).
  double live_ns = 0;
  double bfs_ns = 0;     ///< B+ descent, leaf decode and refinement.
  double refine_ns = 0;
  double other_ns = 0;   ///< Root self time: outside every span.
  void Add(const swst::obs::QueryTrace& trace);
  void Add(const SpanTimes& o);
};

/// What a workload hands back to main.
struct Outcome {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics;

  void Fail(const std::string& why) {
    correct = false;
    errors.push_back(why);
  }
  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
};

/// Every counter the per-layer metrics are derived from, taken at the start
/// and the end of the timed phase.
struct LayerSnapshot {
  swst::IoStats io;
  CallStats::Snapshot alloc, free, read, write, sync;
  CallStats::Snapshot wal_append, wal_sync, wal_segment;
  uint64_t batches = 0, async_batches = 0, leaves_v1 = 0, leaves_v2 = 0;
  uint64_t read_syscalls = 0;
  int64_t wal_records = 0, wal_bytes = 0, wal_syncs = 0, wal_segments = 0;
  int64_t trees_dropped = 0, migrations = 0, published = 0;
  int64_t lock_wait_us = 0;

  static LayerSnapshot Take(const Stack& s);
};

/// Write-side accounting of the timed phase. Times cover traced reports
/// only; the maintenance a report triggers (Advance, Checkpoint) counts as
/// part of it.
struct WriteSide {
  uint64_t reports = 0;
  double all_ns = 0;     ///< Loop time of every report.
  double traced_ns = 0;  ///< Loop time of traced reports.
  double close_ns = 0, insert_ns = 0, advance_ns = 0, checkpoint_ns = 0;
  uint64_t checkpoint_writes = 0;  ///< Pages written by checkpoints.
};

/// Read-side accounting of the timed phase (all queries; spans from traced
/// queries only).
struct ReadSide {
  uint64_t queries = 0;
  uint64_t now_queries = 0;
  uint64_t now_live_candidates = 0;
  swst::QueryStats stats;
  SpanTimes spans;

  void Add(const ReadSide& o);
};

/// Streams the continuation of the stream (from `kPreloadEnd` on) into the
/// index with the paper's protocol, calling `Advance` at every slide
/// boundary and `Checkpoint` every `kCheckpointSlides` slides, both in
/// stream time, so every run does the same work in the same order. Keeps
/// the oracle in step. Single-threaded.
class Writer {
 public:
  Writer(Stack* stack, Oracle* oracle, const Dataset& ds);

  bool done() const { return next_ >= ds_.stream.size(); }

  /// Handles the next report and any maintenance it triggers. A traced
  /// report calls `CloseCurrent` and `Insert` itself (what
  /// `ReportPosition` does) so each call is timed into `w`.
  Status Step(bool traced, WriteSide* w);

 private:
  Stack* stack_;
  Oracle* oracle_;
  const Dataset& ds_;
  size_t next_;
  Timestamp last_slide_;
  uint64_t slides_ = 0;
};

/// Builds the index state at `kPreloadEnd` in a fresh stack `kSetupReps`
/// times; returns the last stack and the median set-up time.
std::unique_ptr<Stack> SetUp(const RunConfig& cfg, const Dataset& ds,
                             double* median_s);

/// The end-to-end figures every workload reports (see README.md for what
/// each means per workload); peak RSS is read when emitting.
struct EndToEnd {
  double setup_s = 0, reopen_s = 0, ops_per_s = 0, op_p50_us = 0,
         op_p95_us = 0, node_accesses_per_op = 0, space_amp = 0;
};
void EmitEndToEnd(const EndToEnd& e, Outcome* out);

/// Median latency of traced operations over untraced ones, minus one.
double TraceOverhead(const std::vector<double>& traced_us,
                     const std::vector<double>& plain_us);

/// Trace-run health figures that are not layer counters.
struct Health {
  double trace_overhead = 0;  ///< Traced p50 / untraced p50 - 1.
  double late_share = 0;      ///< Open-loop reports started > 1 ms late.
  uint64_t pending_max = 0;   ///< Largest epoch retire backlog seen.
};

/// Emits every per-layer metric (see README.md for the catalogue).
void EmitLayers(const Stack& stack, const LayerSnapshot& before,
                const LayerSnapshot& after, const WriteSide& w,
                const ReadSide& r, const Health& h, Outcome* out);

/// Decorator call counts must equal the pool's IoStats deltas and the
/// `swst_wal_*` registry deltas over the same interval.
void CrossCheck(const LayerSnapshot& before, const LayerSnapshot& after,
                Outcome* out);

Outcome RunIngest(const RunConfig& cfg);
Outcome RunMixed(const RunConfig& cfg);
Outcome RunCold(const RunConfig& cfg);

}  // namespace perfbench

#endif  // SWST_PERFBENCH_COMMON_H_
