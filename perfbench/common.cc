#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <tuple>

namespace perfbench {

namespace fs = std::filesystem;

swst::SwstOptions PaperOptions() {
  swst::SwstOptions o;
  o.space = Rect{{0, 0}, {10000, 10000}};
  o.x_partitions = 20;
  o.y_partitions = 20;
  o.window_size = 20000;
  o.slide = 100;
  o.max_duration = 2000;
  o.duration_interval = 100;
  o.query_threads = 1;
  return o;
}

swst::GstdOptions PaperStream() {
  swst::GstdOptions g;
  g.num_objects = kObjects;
  g.records_per_object = 100;
  g.max_time = 100000;
  g.space = Rect{{0, 0}, {10000, 10000}};
  g.max_step = 200.0;
  g.seed = kStreamSeed;
  return g;
}

namespace {

Timestamp WindowLo(Timestamp clock) {
  const swst::SwstOptions o = PaperOptions();
  const Timestamp aligned = clock / o.slide * o.slide;
  return aligned >= o.window_size ? aligned - o.window_size : 0;
}

bool ByOidStart(const Entry& a, const Entry& b) {
  return std::tie(a.oid, a.start) < std::tie(b.oid, b.start);
}

TimeInterval Clip(const TimeInterval& q, const TimeInterval& win) {
  return {std::max(q.lo, win.lo), std::min(q.hi, win.hi)};
}

double Dist2(const Point& a, const Point& b) {
  const double dx = a.x - b.x;
  const double dy = a.y - b.y;
  return dx * dx + dy * dy;
}

uint64_t Mix(uint64_t h, uint64_t v) {
  h ^= v + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2);
  h ^= h >> 31;
  h *= 0xBF58476D1CE4E5B9ULL;
  return h ^ (h >> 29);
}

}  // namespace

Dataset BuildDataset() {
  Dataset ds;
  ds.stream = swst::GenerateGstd(PaperStream());
  const swst::Duration dmax = PaperOptions().max_duration;
  // Replays the reporting protocol in memory: a report closes the object's
  // previous entry when the gap is within Dmax (otherwise that entry stays
  // current, as ReportPosition leaves it) and opens a current one.
  std::vector<Entry> all;
  std::unordered_map<swst::ObjectId, size_t> latest;
  ds.continuation = ds.stream.size();
  for (size_t i = 0; i < ds.stream.size(); ++i) {
    const swst::GstdRecord& r = ds.stream[i];
    if (r.t >= kPreloadEnd) {
      ds.continuation = i;
      break;
    }
    auto it = latest.find(r.oid);
    if (it != latest.end()) {
      Entry& prev = all[it->second];
      if (r.t - prev.start <= dmax) prev.duration = r.t - prev.start;
    }
    latest[r.oid] = all.size();
    all.push_back(Entry{r.oid, r.pos, r.t, swst::kUnknownDuration});
    ds.preload_clock = r.t;
  }
  // Only entries the window still holds at the preload clock; the window
  // start never moves back, so nothing older can become visible again.
  const Timestamp cutoff = WindowLo(ds.preload_clock);
  for (const Entry& e : all) {
    if (e.start >= cutoff) ds.preload.push_back(e);
  }
  return ds;
}

Oracle::Oracle(const Dataset& ds) : entries_(ds.preload) {
  for (size_t i = 0; i < entries_.size(); ++i) latest_[entries_[i].oid] = i;
}

const Entry* Oracle::Latest(swst::ObjectId oid) const {
  auto it = latest_.find(oid);
  return it == latest_.end() ? nullptr : &entries_[it->second];
}

void Oracle::Report(swst::ObjectId oid, const Point& pos, Timestamp t) {
  auto it = latest_.find(oid);
  if (it != latest_.end()) {
    Entry& prev = entries_[it->second];
    if (prev.is_current() && t - prev.start <= PaperOptions().max_duration) {
      prev.duration = t - prev.start;
    }
  }
  latest_[oid] = entries_.size();
  entries_.push_back(Entry{oid, pos, t, swst::kUnknownDuration});
}

std::vector<Entry> Oracle::Window(const Rect& area,
                                  const TimeInterval& interval,
                                  const TimeInterval& win) const {
  std::vector<Entry> out;
  const TimeInterval q = Clip(interval, win);
  if (q.lo > q.hi) return out;
  for (const Entry& e : entries_) {
    if (e.start >= win.lo && e.start <= win.hi && e.ValidTimeOverlaps(q) &&
        area.Contains(e.pos)) {
      out.push_back(e);
    }
  }
  std::sort(out.begin(), out.end(), ByOidStart);
  return out;
}

std::vector<double> Oracle::KnnDistances(const Point& c, size_t k,
                                         const TimeInterval& interval,
                                         const TimeInterval& win) const {
  std::vector<double> d;
  const TimeInterval q = Clip(interval, win);
  if (q.lo > q.hi) return d;
  for (const Entry& e : entries_) {
    if (e.start >= win.lo && e.start <= win.hi && e.ValidTimeOverlaps(q)) {
      d.push_back(Dist2(c, e.pos));
    }
  }
  std::sort(d.begin(), d.end());
  if (d.size() > k) d.resize(k);
  return d;
}

uint64_t Oracle::OpenEntries(Timestamp now) const {
  const Timestamp e_len = PaperOptions().epoch_length();
  const uint64_t k = now / e_len;
  const uint64_t min_live = k == 0 ? 0 : k - 1;
  uint64_t n = 0;
  for (const Entry& e : entries_) {
    if (e.is_current() && e.start / e_len >= min_live) ++n;
  }
  return n;
}

uint64_t Oracle::InWindow(const TimeInterval& win) const {
  uint64_t n = 0;
  for (const Entry& e : entries_) {
    if (e.start >= win.lo && e.start <= win.hi) ++n;
  }
  return n;
}

void Check(const Status& st, const char* what) {
  if (!st.ok()) {
    std::fprintf(stderr, "perfbench: %s: %s\n", what, st.ToString().c_str());
    std::exit(2);
  }
}

namespace {

std::unique_ptr<Stack> Assemble(const std::string& dir, size_t pool_pages,
                                bool timed, bool create, swst::PageId meta) {
  auto s = std::make_unique<Stack>();
  s->dir = dir;
  auto pager = swst::Pager::OpenFile(dir + "/data.db", create);
  Check(pager.status(), "open data file");
  s->file_pager = std::move(*pager);
  auto store = swst::WalStore::OpenDir(dir + "/wal");
  Check(store.status(), "open wal directory");
  s->file_store = std::move(*store);
  swst::Pager* pager_ptr = s->file_pager.get();
  swst::WalStore* store_ptr = s->file_store.get();
  if (timed) {
    s->timed_pager = std::make_unique<TimedPager>(pager_ptr);
    s->timed_store = std::make_unique<TimedWalStore>(store_ptr);
    pager_ptr = s->timed_pager.get();
    store_ptr = s->timed_store.get();
  }
  swst::WalOptions wo;
  wo.metrics = &s->registry;
  auto wal = swst::Wal::Open(store_ptr, wo);
  Check(wal.status(), "open wal");
  s->wal = std::move(*wal);
  s->pool = std::make_unique<swst::BufferPool>(pager_ptr, pool_pages, 0,
                                               &s->registry);
  s->pool->AttachWal(s->wal.get());
  swst::SwstOptions o = PaperOptions();
  o.metrics = &s->registry;
  o.slow_log = &s->slow_log;
  o.wal = s->wal.get();
  auto idx = create ? swst::SwstIndex::Create(s->pool.get(), o)
                    : swst::SwstIndex::Recover(s->pool.get(), o, meta);
  Check(idx.status(), create ? "create index" : "recover index");
  s->index = std::move(*idx);
  s->meta = meta;
  return s;
}

}  // namespace

std::unique_ptr<Stack> Stack::Create(const std::string& dir, size_t pool_pages,
                                     bool timed) {
  std::error_code ec;
  fs::remove_all(dir, ec);
  fs::create_directories(dir, ec);
  if (ec) Check(Status::IOError("mkdir " + dir + ": " + ec.message()), "setup");
  return Assemble(dir, pool_pages, timed, /*create=*/true,
                  swst::kInvalidPageId);
}

std::unique_ptr<Stack> Stack::Reopen(const std::string& dir, swst::PageId meta,
                                     size_t pool_pages, bool timed) {
  return Assemble(dir, pool_pages, timed, /*create=*/false, meta);
}

uint64_t Stack::DiskBytes() const {
  std::error_code ec;
  uint64_t bytes = fs::file_size(dir + "/data.db", ec);
  for (const auto& f : fs::directory_iterator(dir + "/wal", ec)) {
    if (f.is_regular_file()) bytes += f.file_size();
  }
  return bytes;
}

int64_t Stack::Scalar(const std::string& name) const {
  for (const auto& s : registry.CollectScalars()) {
    if (s.name == name) return s.value;
  }
  return 0;
}

namespace {

// Loads the preload with group commits and checkpoints it.
void Preload(Stack* stack, const Dataset& ds) {
  for (size_t i = 0; i < ds.preload.size(); i += kPreloadBatch) {
    const size_t n = std::min(kPreloadBatch, ds.preload.size() - i);
    Check(stack->index->InsertBatch(ds.preload.data() + i, n), "preload");
  }
  Check(stack->index->Checkpoint(&stack->meta), "preload checkpoint");
}

}  // namespace

Writer::Writer(Stack* stack, Oracle* oracle, const Dataset& ds)
    : stack_(stack),
      oracle_(oracle),
      ds_(ds),
      next_(ds.continuation),
      last_slide_(ds.preload_clock / PaperOptions().slide *
                  PaperOptions().slide) {}

Status Writer::Step(bool traced, WriteSide* w) {
  using Clock = std::chrono::steady_clock;
  auto ns_since = [](Clock::time_point t0) {
    return std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
  };
  swst::SwstIndex* index = stack_->index.get();
  const swst::GstdRecord& r = ds_.stream[next_++];
  const swst::SwstOptions o = PaperOptions();
  const Timestamp slide = r.t / o.slide * o.slide;
  if (slide > last_slide_) {
    last_slide_ = slide;
    auto t0 = Clock::now();
    SWST_RETURN_IF_ERROR(index->Advance(slide));
    if (traced) w->advance_ns += ns_since(t0);
    if (++slides_ % kCheckpointSlides == 0) {
      const uint64_t writes0 = stack_->pool->stats().physical_writes;
      t0 = Clock::now();
      SWST_RETURN_IF_ERROR(index->Checkpoint(&stack_->meta));
      if (traced) w->checkpoint_ns += ns_since(t0);
      w->checkpoint_writes += stack_->pool->stats().physical_writes - writes0;
    }
  }
  const Entry* latest = oracle_->Latest(r.oid);
  const bool has_prev = latest != nullptr;
  const Entry prev = has_prev ? *latest : Entry{};
  oracle_->Report(r.oid, r.pos, r.t);
  if (!traced) {
    return index->ReportPosition(r.oid, r.pos, r.t,
                                 has_prev ? &prev : nullptr);
  }
  if (has_prev && r.t - prev.start <= o.max_duration) {
    const auto t0 = Clock::now();
    Status st = index->CloseCurrent(prev, r.t - prev.start);
    w->close_ns += ns_since(t0);
    if (!st.ok() && !st.IsNotFound()) return st;
  }
  const auto t0 = Clock::now();
  Status st = index->Insert(Entry{r.oid, r.pos, r.t, swst::kUnknownDuration});
  w->insert_ns += ns_since(t0);
  return st;
}

std::unique_ptr<Stack> TimedReopens(std::unique_ptr<Stack> stack,
                                    size_t pool_pages, bool timed,
                                    double* median_s) {
  Check(stack->index->Checkpoint(&stack->meta), "checkpoint before reopen");
  const std::string dir = stack->dir;
  const swst::PageId meta = stack->meta;
  std::vector<double> secs;
  for (int i = 0; i < kReopenReps; ++i) {
    stack.reset();
    const auto t0 = std::chrono::steady_clock::now();
    stack = Stack::Reopen(dir, meta, pool_pages, timed);
    secs.push_back(SecondsSince(t0));
  }
  *median_s = Median(secs);
  return stack;
}

double PeakRssMb() {
  struct rusage ru;
  std::memset(&ru, 0, sizeof(ru));
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

double SecondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 0.5); }

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(p * v.size()));
  if (rank == 0) rank = 1;
  return v[std::min(rank, v.size()) - 1];
}

SliceSummary Summarize(const std::vector<Sample>& samples,
                       double duration_s) {
  const double width = duration_s / kSlices;
  std::vector<std::vector<double>> slices(kSlices);
  std::vector<double> first(kSlices, -1), last(kSlices, -1);
  for (const Sample& s : samples) {
    const int i = static_cast<int>(s.at_s / width);
    if (i < 0 || i >= kSlices) continue;
    slices[i].push_back(s.us);
    if (first[i] < 0 || s.at_s < first[i]) first[i] = s.at_s;
    last[i] = std::max(last[i], s.at_s);
  }
  std::vector<double> rate, p50, p95;
  for (int i = 0; i < kSlices; ++i) {
    // Completions per second between the slice's first and last one.
    const double span = last[i] - first[i];
    rate.push_back(span > 0 ? (slices[i].size() - 1) / span : 0.0);
    p50.push_back(Percentile(slices[i], 0.50));
    p95.push_back(Percentile(slices[i], 0.95));
  }
  return {Median(rate), Median(p50), Median(p95)};
}

std::vector<QuerySpec> MakeQueries(uint64_t seed, size_t n,
                                   const std::vector<QueryKind>& mix) {
  swst::Random rng(seed);
  std::vector<QuerySpec> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    QuerySpec q;
    q.kind = mix[i % mix.size()];
    const double x = rng.UniformDouble(0, 10000 - kQuerySide);
    const double y = rng.UniformDouble(0, 10000 - kQuerySide);
    q.area = Rect{{x, y}, {x + kQuerySide, y + kQuerySide}};
    q.frac = rng.UniformDouble(0, 1);
    out.push_back(q);
  }
  return out;
}

namespace {

// The concrete interval a spec asks for against the current clock.
TimeInterval IntervalFor(const QuerySpec& q, const TimeInterval& win,
                         Timestamp now) {
  switch (q.kind) {
    case QueryKind::kWindow: {
      const Timestamp room =
          win.hi - win.lo > kWindowSpan ? win.hi - win.lo - kWindowSpan : 0;
      const Timestamp lo =
          win.lo + static_cast<Timestamp>(q.frac * static_cast<double>(room));
      return {lo, lo + kWindowSpan};
    }
    case QueryKind::kNow:
      return {now, now};
    case QueryKind::kKnn: {
      const Timestamp slide = PaperOptions().slide;
      return {now > slide ? now - slide : 0, now};
    }
  }
  return {now, now};
}

Point Center(const Rect& r) {
  return {(r.lo.x + r.hi.x) / 2, (r.lo.y + r.hi.y) / 2};
}

}  // namespace

QueryRun RunQuery(swst::SwstIndex* index, const QuerySpec& q,
                  swst::obs::QueryTrace* trace) {
  QueryRun run;
  swst::QueryOptions opts;
  opts.trace = trace;
  const Timestamp now = index->now();
  const TimeInterval interval =
      IntervalFor(q, index->QueriablePeriod(), now);
  swst::Result<std::vector<Entry>> r =
      q.kind == QueryKind::kKnn
          ? index->Knn(Center(q.area), kKnnK, interval, opts, &run.stats)
      : q.kind == QueryKind::kNow
          ? index->TimesliceQuery(q.area, interval.lo, opts, &run.stats)
          : index->IntervalQuery(q.area, interval, opts, &run.stats);
  run.status = r.status();
  if (r.ok()) run.entries = std::move(*r);
  return run;
}

uint64_t Digest(const std::vector<Entry>& entries) {
  std::vector<Entry> sorted = entries;
  std::sort(sorted.begin(), sorted.end(), ByOidStart);
  uint64_t h = sorted.size();
  for (const Entry& e : sorted) {
    uint64_t x = 0, y = 0;
    std::memcpy(&x, &e.pos.x, sizeof(x));
    std::memcpy(&y, &e.pos.y, sizeof(y));
    h = Mix(Mix(Mix(Mix(Mix(h, e.oid), e.start), e.duration), x), y);
  }
  return h;
}

namespace {

// Checks a sample of window, now and knn answers against the oracle;
// returns the number of mismatching queries.
int CheckAnswers(swst::SwstIndex* index, const Oracle& oracle, uint64_t seed,
                 std::string* why) {
  const std::vector<QuerySpec> sample =
      MakeQueries(seed ^ 0xC0FFEEULL, 24,
                  {QueryKind::kWindow, QueryKind::kNow, QueryKind::kKnn});
  const TimeInterval win = index->QueriablePeriod();
  const Timestamp now = index->now();
  int bad = 0;
  for (const QuerySpec& q : sample) {
    QueryRun run = RunQuery(index, q, nullptr);
    const TimeInterval interval = IntervalFor(q, win, now);
    bool ok = run.status.ok();
    if (ok && q.kind == QueryKind::kKnn) {
      std::vector<double> got;
      for (const Entry& e : run.entries) got.push_back(Dist2(Center(q.area), e.pos));
      std::sort(got.begin(), got.end());
      ok = got == oracle.KnnDistances(Center(q.area), kKnnK, interval, win);
    } else if (ok) {
      std::sort(run.entries.begin(), run.entries.end(), ByOidStart);
      ok = run.entries == oracle.Window(q.area, interval, win);
    }
    if (!ok) {
      ++bad;
      if (why->empty()) {
        *why = "query answer differs from the brute-force oracle (kind " +
               std::to_string(static_cast<int>(q.kind)) + ", interval [" +
               std::to_string(interval.lo) + "," +
               std::to_string(interval.hi) + "])";
      }
    }
  }
  return bad;
}

}  // namespace

void CheckIndex(const Stack& stack, const Oracle& oracle, uint64_t seed,
                const char* when, Outcome* out) {
  const int64_t live = stack.Scalar("swst_live_entries");
  const uint64_t open = oracle.OpenEntries(stack.index->now());
  if (live < 0 || static_cast<uint64_t>(live) != open) {
    out->Fail(std::string(when) + ": live tier holds " + std::to_string(live) +
              " entries, the benchmark counts " + std::to_string(open) +
              " open");
  }
  std::string why;
  if (CheckAnswers(stack.index.get(), oracle, seed, &why) != 0) {
    out->Fail(std::string(when) + ": " + why);
  }
}

double SpaceAmp(const Stack& stack, const Oracle& oracle) {
  const double live_bytes =
      static_cast<double>(oracle.InWindow(stack.index->QueriablePeriod())) *
      sizeof(Entry);
  return live_bytes > 0 ? static_cast<double>(stack.DiskBytes()) / live_bytes
                        : 0.0;
}

void SpanTimes::Add(const SpanTimes& o) {
  root_ns += o.root_ns;
  plan_ns += o.plan_ns;
  search_ns += o.search_ns;
  live_ns += o.live_ns;
  bfs_ns += o.bfs_ns;
  refine_ns += o.refine_ns;
  other_ns += o.other_ns;
}

void ReadSide::Add(const ReadSide& o) {
  queries += o.queries;
  now_queries += o.now_queries;
  now_live_candidates += o.now_live_candidates;
  stats += o.stats;
  spans.Add(o.spans);
}

std::unique_ptr<Stack> SetUp(const RunConfig& cfg, const Dataset& ds,
                             double* median_s) {
  std::vector<double> secs;
  std::unique_ptr<Stack> stack;
  for (int i = 0; i < kSetupReps; ++i) {
    stack.reset();
    const auto t0 = std::chrono::steady_clock::now();
    stack = Stack::Create(cfg.dir, kWarmPoolPages, cfg.trace);
    Preload(stack.get(), ds);
    secs.push_back(SecondsSince(t0));
  }
  *median_s = Median(secs);
  return stack;
}

void EmitEndToEnd(const EndToEnd& e, Outcome* out) {
  out->Add("setup_s", e.setup_s, "s");
  out->Add("reopen_s", e.reopen_s, "s");
  out->Add("ops_per_s", e.ops_per_s, "1/s");
  out->Add("op_p50_us", e.op_p50_us, "us");
  out->Add("op_p95_us", e.op_p95_us, "us");
  out->Add("node_accesses_per_op", e.node_accesses_per_op, "count");
  out->Add("space_amp", e.space_amp, "ratio");
  out->Add("peak_rss_mb", PeakRssMb(), "MiB");
}

double TraceOverhead(const std::vector<double>& traced_us,
                     const std::vector<double>& plain_us) {
  const double plain = Median(plain_us);
  return plain > 0 && !traced_us.empty() ? Median(traced_us) / plain - 1.0
                                         : 0.0;
}

void SpanTimes::Add(const swst::obs::QueryTrace& trace) {
  struct Walk {
    SpanTimes* t;
    void operator()(const swst::obs::TraceSpan& s, bool root) const {
      double child_ns = 0;
      for (const auto& c : s.children) {
        child_ns += static_cast<double>(c->duration_ns);
        (*this)(*c, false);
      }
      const double self =
          std::max(0.0, static_cast<double>(s.duration_ns) - child_ns);
      const std::string& n = s.name;
      if (root) {
        t->other_ns += self;
      } else if (n == "plan") {
        t->plan_ns += self;
      } else if (n == "live") {
        t->live_ns += self;
      } else if (n.rfind("bfs", 0) == 0) {
        t->bfs_ns += self;
      } else if (n == "refine") {
        t->refine_ns += self;
      } else {
        t->search_ns += self;  // "search", "cell <n>", "merge".
      }
    }
  };
  root_ns += static_cast<double>(trace.root().duration_ns);
  Walk{this}(trace.root(), true);
}

LayerSnapshot LayerSnapshot::Take(const Stack& s) {
  LayerSnapshot l;
  l.io = s.pool->stats();
  if (const TimedPager* p = s.timed_pager.get()) {
    l.alloc = p->alloc.Get();
    l.free = p->free.Get();
    l.read = p->read.Get();
    l.write = p->write.Get();
    l.sync = p->sync.Get();
    l.batches = p->batches.load();
    l.async_batches = p->async_batches.load();
    l.leaves_v1 = p->leaves_v1.load();
    l.leaves_v2 = p->leaves_v2.load();
  }
  if (const TimedWalStore* w = s.timed_store.get()) {
    l.wal_append = w->append.Get();
    l.wal_sync = w->sync.Get();
    l.wal_segment = w->segment.Get();
  }
  l.read_syscalls = s.file_pager->read_syscalls();
  l.wal_records = s.Scalar("swst_wal_records_total");
  l.wal_bytes = s.Scalar("swst_wal_bytes_total");
  l.wal_syncs = s.Scalar("swst_wal_syncs_total");
  l.wal_segments = s.Scalar("swst_wal_segments_created_total");
  l.trees_dropped = s.Scalar("swst_index_trees_dropped_total");
  l.migrations = s.Scalar("swst_live_migrations_total");
  l.published = s.Scalar("swst_epoch_snapshots_published_total");
  l.lock_wait_us = s.Scalar("swst_index_shard_lock_wait_us_sum");
  return l;
}

namespace {

double Per(double x, double n) { return n > 0 ? x / n : 0.0; }

}  // namespace

void EmitLayers(const Stack& stack, const LayerSnapshot& b,
                const LayerSnapshot& a, const WriteSide& w, const ReadSide& r,
                const Health& h, Outcome* out) {
  const double reports = static_cast<double>(w.reports);
  const double queries = static_cast<double>(r.queries);
  auto io = [&](const std::atomic<uint64_t> swst::IoStats::*f) {
    return static_cast<double>((a.io.*f).load() - (b.io.*f).load());
  };
  auto wshare = [&](double ns) { return Per(ns, w.traced_ns); };
  auto rshare = [&](double ns) { return Per(ns, r.spans.root_ns); };
  const auto alloc = a.alloc - b.alloc, free = a.free - b.free,
             read = a.read - b.read, write = a.write - b.write,
             sync = a.sync - b.sync;
  const auto wal_append = a.wal_append - b.wal_append,
             wal_sync = a.wal_sync - b.wal_sync,
             wal_segment = a.wal_segment - b.wal_segment;
  const swst::QueryStats& qs = r.stats;

  out->Add("wal.syncs_per_report", Per(wal_sync.calls, reports), "count");
  out->Add("wal.appends_per_report", Per(wal_append.calls, reports), "count");
  out->Add("wal.bytes_per_report", Per(wal_append.units, reports), "B");
  out->Add("wal.sync_share", wshare(wal_sync.traced_ns), "ratio");
  out->Add("wal.append_share", wshare(wal_append.traced_ns), "ratio");

  out->Add("pager.alloc_per_report", Per(alloc.calls, reports), "count");
  out->Add("pager.free_per_report", Per(free.calls, reports), "count");
  out->Add("pager.write_pages_per_report", Per(write.units, reports), "count");
  out->Add("pager.alloc_share", wshare(alloc.traced_ns), "ratio");
  out->Add("pager.free_share", wshare(free.traced_ns), "ratio");
  out->Add("pager.write_share", wshare(write.traced_ns), "ratio");
  out->Add("pager.sync_share", wshare(sync.traced_ns), "ratio");
  out->Add("pager.read_pages_per_query", Per(read.units, queries), "count");
  out->Add("pager.read_syscalls_per_query",
           Per(static_cast<double>(a.read_syscalls - b.read_syscalls), queries),
           "count");
  out->Add("pager.async_batch_share",
           Per(static_cast<double>(a.async_batches - b.async_batches),
               static_cast<double>(a.batches - b.batches)),
           "ratio");
  out->Add("pager.read_share", rshare(read.traced_ns), "ratio");

  const double logical = io(&swst::IoStats::logical_reads);
  const double misses = io(&swst::IoStats::physical_reads) -
                        io(&swst::IoStats::readahead_pages);
  const double writes = io(&swst::IoStats::physical_writes);
  out->Add("pool.hit_ratio", logical > 0 ? 1.0 - misses / logical : 1.0,
           "ratio");
  out->Add("pool.readahead_pages_per_query",
           Per(io(&swst::IoStats::readahead_pages), queries), "count");
  out->Add("pool.readahead_hit_ratio",
           Per(io(&swst::IoStats::readahead_hits),
               io(&swst::IoStats::readahead_pages)),
           "ratio");
  out->Add("pool.evicted_writes_per_report",
           Per(writes - static_cast<double>(w.checkpoint_writes), reports),
           "count");
  out->Add("pool.coalesced_write_share",
           Per(io(&swst::IoStats::coalesced_writes), writes), "ratio");
  out->Add("pool.wal_forced_syncs", io(&swst::IoStats::wal_forced_syncs),
           "count");

  out->Add("btree.pages_allocated_per_report",
           Per(io(&swst::IoStats::pages_allocated), reports), "count");
  out->Add("btree.pages_freed_per_report",
           Per(io(&swst::IoStats::pages_freed), reports), "count");
  out->Add("btree.leaf_v2_share",
           Per(static_cast<double>(a.leaves_v2 - b.leaves_v2),
               static_cast<double>(a.leaves_v1 + a.leaves_v2 - b.leaves_v1 -
                                   b.leaves_v2)),
           "ratio");
  out->Add("btree.saved_bytes_per_leaf",
           Per(io(&swst::IoStats::compression_saved_bytes),
               io(&swst::IoStats::pages_compressed)),
           "B");

  out->Add("swst.close_share", wshare(w.close_ns), "ratio");
  out->Add("swst.insert_current_share", wshare(w.insert_ns), "ratio");
  out->Add("swst.advance_share", wshare(w.advance_ns), "ratio");
  out->Add("swst.checkpoint_share", wshare(w.checkpoint_ns), "ratio");
  out->Add("swst.trees_dropped",
           static_cast<double>(a.trees_dropped - b.trees_dropped), "count");
  out->Add("swst.shard_lock_wait_share",
           Per(1e3 * static_cast<double>(a.lock_wait_us - b.lock_wait_us),
               w.all_ns),
           "ratio");

  out->Add("swst.cells_visited_per_query", Per(qs.cells_visited, queries),
           "count");
  out->Add("swst.cells_pruned_per_query", Per(qs.cells_pruned, queries),
           "count");
  out->Add("swst.memo_pruned_columns_per_query",
           Per(qs.memo_pruned_columns, queries), "count");
  out->Add("swst.key_ranges_per_query", Per(qs.key_ranges, queries), "count");
  out->Add("swst.candidates_per_result",
           Per(static_cast<double>(qs.candidates + qs.live_candidates),
               static_cast<double>(qs.results)),
           "ratio");
  out->Add("swst.refined_out_ratio",
           Per(qs.refined_out, qs.candidates_refined), "ratio");
  out->Add("swst.plan_share", rshare(r.spans.plan_ns), "ratio");
  out->Add("swst.search_share", rshare(r.spans.search_ns), "ratio");
  out->Add("swst.bfs_share", rshare(r.spans.bfs_ns), "ratio");
  out->Add("swst.refine_share", rshare(r.spans.refine_ns), "ratio");

  out->Add("live.scan_share", rshare(r.spans.live_ns), "ratio");
  out->Add("live.candidates_per_now_query",
           Per(r.now_live_candidates, r.now_queries), "count");
  out->Add("live.only_cells_ratio", Per(qs.live_only_cells, qs.spatial_cells),
           "ratio");
  out->Add("live.entries",
           static_cast<double>(stack.Scalar("swst_live_entries")), "count");
  out->Add("live.migrations_per_report",
           Per(static_cast<double>(a.migrations - b.migrations), reports),
           "count");

  out->Add("epoch.snapshots_published_per_report",
           Per(static_cast<double>(a.published - b.published), reports),
           "count");
  out->Add("epoch.pending_max", static_cast<double>(h.pending_max), "count");

  // Time no decorator or span claims: for reports, loop time minus WAL
  // store and pager time; for queries, trace-root self time.
  const double write_attributed =
      wal_append.traced_ns + wal_sync.traced_ns + wal_segment.traced_ns +
      alloc.traced_ns + free.traced_ns + write.traced_ns + sync.traced_ns;
  out->Add("bench.unattributed_share",
           Per(w.traced_ns - write_attributed + r.spans.other_ns,
               w.traced_ns + r.spans.root_ns),
           "ratio");
  out->Add("bench.trace_overhead", h.trace_overhead, "ratio");
  out->Add("bench.writer_late_share", h.late_share, "ratio");
}

void CrossCheck(const LayerSnapshot& b, const LayerSnapshot& a,
                Outcome* out) {
  auto io = [&](const std::atomic<uint64_t> swst::IoStats::*f) {
    return (a.io.*f).load() - (b.io.*f).load();
  };
  auto expect = [&](const char* what, uint64_t decorator, uint64_t library) {
    if (decorator != library) {
      out->Fail(std::string("cross-check ") + what + ": decorator " +
                std::to_string(decorator) + " != library " +
                std::to_string(library));
    }
  };
  const uint64_t segments = static_cast<uint64_t>(a.wal_segments - b.wal_segments);
  expect("pager allocations", (a.alloc - b.alloc).calls,
         io(&swst::IoStats::pages_allocated));
  expect("pager frees", (a.free - b.free).calls,
         io(&swst::IoStats::pages_freed));
  expect("pages read", (a.read - b.read).units,
         io(&swst::IoStats::physical_reads));
  expect("pages written", (a.write - b.write).units,
         io(&swst::IoStats::physical_writes));
  expect("wal syncs", (a.wal_sync - b.wal_sync).calls,
         static_cast<uint64_t>(a.wal_syncs - b.wal_syncs));
  expect("wal appends", (a.wal_append - b.wal_append).calls,
         static_cast<uint64_t>(a.wal_records - b.wal_records) + segments);
  expect("wal bytes", (a.wal_append - b.wal_append).units,
         static_cast<uint64_t>(a.wal_bytes - b.wal_bytes) +
             segments * sizeof(swst::WalSegmentHeader));
}

}  // namespace perfbench
