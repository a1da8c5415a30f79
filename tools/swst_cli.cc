// swst_cli — interactive / scriptable shell over an SWST index.
//
// Usage:
//   swst_cli [--db FILE] [--wal DIR] [--window W] [--slide L] [--dmax D]
//            [--delta d] [--grid N] [--space MAX] [--pool PAGES]
//            [--stats-dump-ms N] [--json] [--slow-us N] [--crash-file FILE]
//   swst_cli verify --db FILE [--legacy-stats] [index options as above]
//   swst_cli stats --db FILE [index options as above]
//   swst_cli recover --db FILE --wal DIR [index options as above]
//   swst_cli events|slow|top|healthz --db FILE [--json] [--slow-us N]
//
// `verify` opens FILE read-only, reads every page (which checks the
// per-page checksums), then opens the index and runs CountEntries +
// ValidateTrees. Exit status is non-zero if any page or tree is corrupt.
// After "verify: ok" it prints the run's metrics in Prometheus text
// exposition format; `--legacy-stats` restores the old hand-formatted
// `verify: io ...` line for scripts that still scrape it.
//
// `stats` opens FILE read-only, walks the index once (GetDebugStats) and
// prints the metrics registry as JSON — a machine-readable snapshot of
// the pool, pager, and index counters (see docs/observability.md).
//
// `recover` replays the write-ahead log in DIR on top of the last
// checkpoint in FILE (creating FILE when it does not exist yet), prints
// the replay statistics, and checkpoints so the log can be truncated.
// See docs/durability.md for the protocol.
//
// `--wal DIR` in shell mode attaches a write-ahead log: every mutation is
// logged and synced before it is acknowledged, and `checkpoint` persists
// the index and truncates the log's covered prefix.
//
// With --db the index is opened from (or created at) FILE and persisted on
// `save` / `quit`; without it an in-memory index is used. Commands are read
// line by line from stdin (also works interactively):
//
//   report <oid> <x> <y> <t>          stream a position report
//   insert <oid> <x> <y> <s> <d>      insert a closed entry
//   batch <n>                         read n `oid x y s d` lines, insert
//                                     them through the batched write path
//   delete <oid> <x> <y> <s> <d>      delete a specific entry
//   query <xlo> <ylo> <xhi> <yhi> <tlo> <thi> [W']   interval query
//   slice <xlo> <ylo> <xhi> <yhi> <t> [W']           timeslice query
//   explain <xlo> <ylo> <xhi> <yhi> <tlo> <thi> [W'] traced query plan
//   knn <x> <y> <k> <tlo> <thi>       k nearest entries
//   advance <t>                       move the clock / expire windows
//   window                            print the queriable period
//   stats                             index statistics
//   metrics                           Prometheus rendering of the registry
//   save                              persist (needs --db)
//   help | quit
//
// The observability stack is always on in shell mode: the process-wide
// flight recorder, a slow-query log (threshold `--slow-us`, default
// 10000; 0 admits everything — handy for scripts), a metrics history
// sampler, and the black-box fatal-signal dump (`--crash-file FILE`
// additionally persists the dump). The shell commands `events`, `slow`,
// `top`, and `healthz` render them on the live index; the standalone
// modes of the same names open `--db FILE` read-only, run a small probe
// workload, and render the same surfaces. `--json` switches `events`,
// `slow`, and `top` to machine-readable output (`healthz` is always
// JSON). See docs/observability.md for the schemas.
//
// `--stats-dump-ms N` runs the metrics history sampler every N
// milliseconds instead of every second and has it write each sample's
// registry as a self-contained JSON line to stderr (plus one final line on
// exit).
//
// Example:
//   printf 'report 1 10 20 100\nslice 0 0 50 50 100\nquit\n' | swst_cli

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "obs/black_box.h"
#include "obs/flight_recorder.h"
#include "obs/history_ring.h"
#include "obs/metrics.h"
#include "obs/slow_query_log.h"
#include "obs/trace.h"
#include "storage/buffer_pool.h"
#include "storage/pager.h"
#include "swst/swst_index.h"

namespace {

using namespace swst;

struct CliConfig {
  std::string db_path;
  std::string wal_dir;
  SwstOptions options;
  size_t pool_pages = 4096;
  bool legacy_stats = false;     ///< verify: old `verify: io ...` line.
  uint64_t stats_dump_ms = 0;    ///< Sampler period + JSON lines (0 = off).
  bool json = false;             ///< events/slow/top: JSON output.
  uint64_t slow_us = 10000;      ///< Slow-query threshold (0 = keep all).
  std::string crash_file;        ///< Black-box dump file ("" = stderr only).
};

void PrintEntry(const Entry& e) {
  if (e.is_current()) {
    std::printf("entry oid=%llu x=%.3f y=%.3f start=%llu duration=current\n",
                static_cast<unsigned long long>(e.oid), e.pos.x, e.pos.y,
                static_cast<unsigned long long>(e.start));
  } else {
    std::printf("entry oid=%llu x=%.3f y=%.3f start=%llu duration=%llu\n",
                static_cast<unsigned long long>(e.oid), e.pos.x, e.pos.y,
                static_cast<unsigned long long>(e.start),
                static_cast<unsigned long long>(e.duration));
  }
}

int Fail(const Status& st) {
  std::printf("error: %s\n", st.ToString().c_str());
  return 0;  // Keep the shell alive; scripting decides via output.
}

void PrintHelp() {
  std::printf(
      "commands:\n"
      "  report <oid> <x> <y> <t>\n"
      "  insert <oid> <x> <y> <start> <duration>\n"
      "  batch <n>   (then n lines: <oid> <x> <y> <start> <duration|current>)\n"
      "  delete <oid> <x> <y> <start> <duration>\n"
      "  query <xlo> <ylo> <xhi> <yhi> <tlo> <thi> [logical_window]\n"
      "  slice <xlo> <ylo> <xhi> <yhi> <t> [logical_window]\n"
      "  explain <xlo> <ylo> <xhi> <yhi> <tlo> <thi> [logical_window]\n"
      "  knn <x> <y> <k> <tlo> <thi>\n"
      "  advance <t> | window | stats | metrics | save | checkpoint\n"
      "  events [text|json]    last flight-recorder events\n"
      "  slow [text|json]      worst captured queries\n"
      "  top [text|json]       metric rates over the history window\n"
      "  healthz               one-line health summary (JSON)\n"
      "  crash                 force a black-box dump and abort\n"
      "  help | quit\n");
}

// ---------------------------------------------------------------------------
// Ops surface: shared renderers for the `events` / `slow` / `top` /
// `healthz` shell commands and the standalone modes of the same names.

void PrintEvents(bool json) {
  const auto events = obs::FlightRecorder::Global().Dump(/*max_events=*/256);
  if (json) {
    std::fputs(obs::FlightRecorder::RenderJsonLines(events).c_str(), stdout);
  } else {
    std::fputs(obs::FlightRecorder::RenderText(events).c_str(), stdout);
    if (events.empty()) std::printf("(no events recorded)\n");
  }
}

void PrintSlow(const obs::SlowQueryLog& slow, bool json) {
  const auto worst = slow.Worst();
  if (json) {
    std::fputs(obs::SlowQueryLog::RenderJsonLines(worst).c_str(), stdout);
  } else {
    std::fputs(obs::SlowQueryLog::RenderText(worst).c_str(), stdout);
    if (worst.empty()) std::printf("(no slow queries captured)\n");
  }
}

void PrintTop(obs::MetricsHistory* history, bool json) {
  history->SampleNow();  // A fresh endpoint so rates cover "now".
  if (json) {
    std::printf("%s\n", history->RenderRatesJson().c_str());
  } else {
    std::fputs(history->RenderRatesText().c_str(), stdout);
  }
}

/// The `healthz` JSON document (schema: docs/observability.md). Rates come
/// from the metrics history; recorder/slow-log health from their stats.
std::string RenderHealthz(const obs::SlowQueryLog& slow,
                          obs::MetricsHistory* history) {
  history->SampleNow();
  const obs::FlightRecorder::Stats rec =
      obs::FlightRecorder::Global().stats();
  const obs::SlowQueryLog::Stats sq = slow.stats();
  double qps = 0.0, write_qps = 0.0;
  long long live_entries = 0, epoch_pending = 0;
  for (const auto& r : history->Rates()) {
    if (r.name == "swst_index_queries_total") {
      qps = r.per_second;
    } else if (r.name == "swst_index_inserts_total") {
      write_qps = r.per_second;
    } else if (r.name == "swst_live_entries") {
      live_entries = r.latest;
    } else if (r.name == "swst_epoch_pending") {
      epoch_pending = r.latest;
    }
  }
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "{\"status\": \"ok\", \"samples\": %llu, \"qps\": %.1f, "
      "\"write_qps\": %.1f, \"live_entries\": %lld, \"epoch_pending\": %lld, "
      "\"recorder\": {\"enabled\": %s, \"emitted\": %llu, \"retained\": %llu, "
      "\"overwritten\": %llu, \"threads\": %llu}, "
      "\"slow_queries\": {\"recorded\": %llu, \"fast\": %llu, "
      "\"admitted\": %llu, \"retained\": %llu}}",
      static_cast<unsigned long long>(history->sample_count()), qps,
      write_qps, live_entries, epoch_pending,
      obs::FlightRecorder::Global().enabled() ? "true" : "false",
      static_cast<unsigned long long>(rec.emitted),
      static_cast<unsigned long long>(rec.retained),
      static_cast<unsigned long long>(rec.overwritten),
      static_cast<unsigned long long>(rec.threads),
      static_cast<unsigned long long>(sq.recorded),
      static_cast<unsigned long long>(sq.fast),
      static_cast<unsigned long long>(sq.admitted),
      static_cast<unsigned long long>(sq.retained));
  return buf;
}

/// `swst_cli events|slow|top|healthz --db FILE`: opens the index
/// read-only, runs a small probe workload (one structural walk + one
/// full-domain interval query) through the observability stack, and
/// renders the requested surface. The probe query is always traced
/// (sample_every=1), so `slow` has at least one entry; pass `--slow-us 0`
/// to also force it over the threshold (guaranteeing a kSlowQuery flight
/// event for `events`).
int RunOps(const CliConfig& cfg, const std::string& surface) {
  if (cfg.db_path.empty()) {
    std::fprintf(stderr, "%s: --db FILE is required\n", surface.c_str());
    return 2;
  }
  FILE* probe = std::fopen(cfg.db_path.c_str(), "rb");
  if (probe == nullptr) {
    std::fprintf(stderr, "%s: %s: no such file\n", surface.c_str(),
                 cfg.db_path.c_str());
    return 1;
  }
  std::fclose(probe);
  auto p = Pager::OpenFile(cfg.db_path, /*truncate=*/false);
  if (!p.ok()) {
    std::fprintf(stderr, "%s: open %s: %s\n", surface.c_str(),
                 cfg.db_path.c_str(), p.status().ToString().c_str());
    return 1;
  }
  std::unique_ptr<Pager> pager = std::move(*p);
  obs::MetricsRegistry registry;
  obs::SlowQueryLog slow_log(obs::SlowQueryLog::Options{
      cfg.slow_us, /*sample_every=*/1, /*capacity=*/32});
  obs::MetricsHistory history(&registry);
  BufferPool pool(pager.get(), cfg.pool_pages, /*partitions=*/0, &registry);
  SwstOptions opts = cfg.options;
  opts.metrics = &registry;
  opts.slow_log = &slow_log;
  auto idx = SwstIndex::Open(&pool, opts, /*meta_page=*/1);
  if (!idx.ok()) {
    std::fprintf(stderr, "%s: open index: %s\n", surface.c_str(),
                 idx.status().ToString().c_str());
    return 1;
  }
  history.SampleNow();  // Baseline sample, before the probe workload.
  auto dbg = (*idx)->GetDebugStats();
  if (!dbg.ok()) {
    std::fprintf(stderr, "%s: GetDebugStats: %s\n", surface.c_str(),
                 dbg.status().ToString().c_str());
    return 1;
  }
  QueryStats qs;
  auto r = (*idx)->IntervalQuery(opts.space, {0, (*idx)->now()},
                                 QueryOptions{}, &qs);
  if (!r.ok()) {
    std::fprintf(stderr, "%s: probe query: %s\n", surface.c_str(),
                 r.status().ToString().c_str());
    return 1;
  }
  if (surface == "events") {
    PrintEvents(cfg.json);
  } else if (surface == "slow") {
    PrintSlow(slow_log, cfg.json);
  } else if (surface == "top") {
    PrintTop(&history, cfg.json);
  } else {
    std::printf("%s\n", RenderHealthz(slow_log, &history).c_str());
  }
  return 0;
}

/// `swst_cli verify --db FILE`: offline integrity check. Every page read
/// goes through the file pager, so the per-page CRC32C and page-id
/// trailers are verified for the whole file; the index structures on top
/// are then validated. Returns the process exit code.
int RunVerify(const CliConfig& cfg) {
  if (cfg.db_path.empty()) {
    std::fprintf(stderr, "verify: --db FILE is required\n");
    return 2;
  }
  // OpenFile creates missing files; a checker must not.
  FILE* probe = std::fopen(cfg.db_path.c_str(), "rb");
  if (probe == nullptr) {
    std::fprintf(stderr, "verify: %s: no such file\n", cfg.db_path.c_str());
    return 1;
  }
  std::fclose(probe);
  auto p = Pager::OpenFile(cfg.db_path, /*truncate=*/false);
  if (!p.ok()) {
    std::fprintf(stderr, "verify: open %s: %s\n", cfg.db_path.c_str(),
                 p.status().ToString().c_str());
    return 1;
  }
  std::unique_ptr<Pager> pager = std::move(*p);

  // Pass 1: physical integrity. Page 0 (the superblock) was already
  // checked by OpenFile; read every other page, free or live.
  uint64_t bad_pages = 0;
  std::vector<char> buf(kPageSize);
  for (PageId id = 1; id < pager->page_count(); ++id) {
    Status st = pager->ReadPage(id, buf.data());
    if (!st.ok()) {
      std::fprintf(stderr, "verify: page %u: %s\n", id,
                   st.ToString().c_str());
      bad_pages++;
    }
  }
  std::printf("verify: %llu pages checked, %llu bad\n",
              static_cast<unsigned long long>(pager->page_count() - 1),
              static_cast<unsigned long long>(bad_pages));
  if (bad_pages > 0) return 1;

  // Pass 2: logical integrity of the index rooted at the conventional
  // metadata head (page 1, see below). The registry outlives the pool and
  // the index (both unregister their metrics on destruction).
  obs::MetricsRegistry registry;
  BufferPool pool(pager.get(), cfg.pool_pages, /*partitions=*/0, &registry);
  SwstOptions opts = cfg.options;
  opts.metrics = &registry;
  auto idx = SwstIndex::Open(&pool, opts, /*meta_page=*/1);
  if (!idx.ok()) {
    std::fprintf(stderr, "verify: open index: %s\n",
                 idx.status().ToString().c_str());
    return 1;
  }
  Status st = (*idx)->ValidateTrees();
  if (!st.ok()) {
    std::fprintf(stderr, "verify: ValidateTrees: %s\n",
                 st.ToString().c_str());
    return 1;
  }
  auto count = (*idx)->CountEntries();
  if (!count.ok()) {
    std::fprintf(stderr, "verify: CountEntries: %s\n",
                 count.status().ToString().c_str());
    return 1;
  }
  std::printf("verify: ok (%llu entries, now=%llu)\n",
              static_cast<unsigned long long>(*count),
              static_cast<unsigned long long>((*idx)->now()));
  if (cfg.legacy_stats) {
    // I/O profile of the verification itself in the pre-registry format,
    // for smoke scripts that scrape the `verify: io` line.
    const IoStats io = pool.stats();
    std::printf(
        "verify: io logical_reads=%llu physical_reads=%llu "
        "physical_writes=%llu coalesced_writes=%llu readahead_pages=%llu "
        "readahead_hits=%llu\n",
        static_cast<unsigned long long>(io.logical_reads.load()),
        static_cast<unsigned long long>(io.physical_reads.load()),
        static_cast<unsigned long long>(io.physical_writes.load()),
        static_cast<unsigned long long>(io.coalesced_writes.load()),
        static_cast<unsigned long long>(io.readahead_pages.load()),
        static_cast<unsigned long long>(io.readahead_hits.load()));
    std::printf(
        "verify: compression pages_compressed=%llu "
        "compression_saved_bytes=%llu\n",
        static_cast<unsigned long long>(io.pages_compressed.load()),
        static_cast<unsigned long long>(io.compression_saved_bytes.load()));
  } else {
    // Everything the verification touched — pool, pager, and index — in
    // Prometheus text exposition format.
    std::fputs(registry.RenderPrometheus().c_str(), stdout);
  }
  return 0;
}

/// `swst_cli stats --db FILE`: opens the index read-only, walks it once,
/// and prints the metrics registry as JSON.
int RunStats(const CliConfig& cfg) {
  if (cfg.db_path.empty()) {
    std::fprintf(stderr, "stats: --db FILE is required\n");
    return 2;
  }
  FILE* probe = std::fopen(cfg.db_path.c_str(), "rb");
  if (probe == nullptr) {
    std::fprintf(stderr, "stats: %s: no such file\n", cfg.db_path.c_str());
    return 1;
  }
  std::fclose(probe);
  auto p = Pager::OpenFile(cfg.db_path, /*truncate=*/false);
  if (!p.ok()) {
    std::fprintf(stderr, "stats: open %s: %s\n", cfg.db_path.c_str(),
                 p.status().ToString().c_str());
    return 1;
  }
  std::unique_ptr<Pager> pager = std::move(*p);
  obs::MetricsRegistry registry;
  BufferPool pool(pager.get(), cfg.pool_pages, /*partitions=*/0, &registry);
  SwstOptions opts = cfg.options;
  opts.metrics = &registry;
  auto idx = SwstIndex::Open(&pool, opts, /*meta_page=*/1);
  if (!idx.ok()) {
    std::fprintf(stderr, "stats: open index: %s\n",
                 idx.status().ToString().c_str());
    return 1;
  }
  // One structural walk so entry/tree counts are reflected in the pool's
  // logical-read counters even on a cold open.
  auto dbg = (*idx)->GetDebugStats();
  if (!dbg.ok()) {
    std::fprintf(stderr, "stats: GetDebugStats: %s\n",
                 dbg.status().ToString().c_str());
    return 1;
  }
  std::printf("%s\n", registry.RenderJson().c_str());
  return 0;
}

/// `swst_cli recover --db FILE --wal DIR`: redo-recovers the index from
/// its last checkpoint plus the log suffix, prints what was replayed, and
/// checkpoints so the covered log prefix can be truncated. Creates FILE
/// when it does not exist (recovery of a database that crashed before its
/// first checkpoint).
int RunRecover(const CliConfig& cfg) {
  if (cfg.db_path.empty() || cfg.wal_dir.empty()) {
    std::fprintf(stderr, "recover: --db FILE and --wal DIR are required\n");
    return 2;
  }
  FILE* probe = std::fopen(cfg.db_path.c_str(), "rb");
  const bool fresh = (probe == nullptr);
  if (probe != nullptr) std::fclose(probe);
  auto p = Pager::OpenFile(cfg.db_path, /*truncate=*/fresh);
  if (!p.ok()) {
    std::fprintf(stderr, "recover: open %s: %s\n", cfg.db_path.c_str(),
                 p.status().ToString().c_str());
    return 1;
  }
  std::unique_ptr<Pager> pager = std::move(*p);
  auto store = WalStore::OpenDir(cfg.wal_dir);
  if (!store.ok()) {
    std::fprintf(stderr, "recover: open wal %s: %s\n", cfg.wal_dir.c_str(),
                 store.status().ToString().c_str());
    return 1;
  }
  obs::MetricsRegistry registry;
  WalOptions wopts;
  wopts.metrics = &registry;
  auto wal = Wal::Open(store->get(), wopts);
  if (!wal.ok()) {
    std::fprintf(stderr, "recover: wal: %s\n",
                 wal.status().ToString().c_str());
    return 1;
  }
  BufferPool pool(pager.get(), cfg.pool_pages, /*partitions=*/0, &registry);
  pool.AttachWal(wal->get());
  SwstOptions opts = cfg.options;
  opts.metrics = &registry;
  opts.wal = wal->get();

  SwstIndex::RecoverStats rs;
  auto idx = SwstIndex::Recover(&pool, opts,
                                fresh ? kInvalidPageId : PageId{1}, &rs);
  if (!idx.ok()) {
    std::fprintf(stderr, "recover: %s\n", idx.status().ToString().c_str());
    return 1;
  }
  std::printf(
      "recover: replayed=%llu skipped=%llu lsn=[%llu, %llu] torn_tail=%s "
      "segments=%llu replay_us=%llu\n",
      static_cast<unsigned long long>(rs.records_replayed),
      static_cast<unsigned long long>(rs.records_skipped),
      static_cast<unsigned long long>(rs.first_lsn),
      static_cast<unsigned long long>(rs.last_lsn),
      rs.torn_tail ? "yes" : "no",
      static_cast<unsigned long long>(rs.segments_scanned),
      static_cast<unsigned long long>(rs.replay_us));

  PageId meta = kInvalidPageId;
  Status st = (*idx)->Checkpoint(&meta);
  if (!st.ok()) {
    std::fprintf(stderr, "recover: checkpoint: %s\n", st.ToString().c_str());
    return 1;
  }
  auto count = (*idx)->CountEntries();
  if (!count.ok()) {
    std::fprintf(stderr, "recover: CountEntries: %s\n",
                 count.status().ToString().c_str());
    return 1;
  }
  std::printf("recover: ok meta_page=%u entries=%llu now=%llu\n", meta,
              static_cast<unsigned long long>(*count),
              static_cast<unsigned long long>((*idx)->now()));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  CliConfig cfg;
  std::string mode;
  int first_flag = 1;
  if (argc > 1 && argv[1][0] != '-') {
    mode = argv[1];
    first_flag = 2;
  }
  for (int i = first_flag; i < argc; ++i) {
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--db") == 0) {
      cfg.db_path = next("--db");
    } else if (std::strcmp(argv[i], "--wal") == 0) {
      cfg.wal_dir = next("--wal");
    } else if (std::strcmp(argv[i], "--window") == 0) {
      cfg.options.window_size = std::strtoull(next("--window"), nullptr, 10);
    } else if (std::strcmp(argv[i], "--slide") == 0) {
      cfg.options.slide = std::strtoull(next("--slide"), nullptr, 10);
    } else if (std::strcmp(argv[i], "--dmax") == 0) {
      cfg.options.max_duration = std::strtoull(next("--dmax"), nullptr, 10);
    } else if (std::strcmp(argv[i], "--delta") == 0) {
      cfg.options.duration_interval =
          std::strtoull(next("--delta"), nullptr, 10);
    } else if (std::strcmp(argv[i], "--grid") == 0) {
      const uint32_t n =
          static_cast<uint32_t>(std::strtoul(next("--grid"), nullptr, 10));
      cfg.options.x_partitions = n;
      cfg.options.y_partitions = n;
    } else if (std::strcmp(argv[i], "--space") == 0) {
      const double m = std::strtod(next("--space"), nullptr);
      cfg.options.space = Rect{{0, 0}, {m, m}};
    } else if (std::strcmp(argv[i], "--pool") == 0) {
      cfg.pool_pages = std::strtoull(next("--pool"), nullptr, 10);
    } else if (std::strcmp(argv[i], "--legacy-stats") == 0) {
      cfg.legacy_stats = true;
    } else if (std::strcmp(argv[i], "--stats-dump-ms") == 0) {
      cfg.stats_dump_ms = std::strtoull(next("--stats-dump-ms"), nullptr, 10);
    } else if (std::strcmp(argv[i], "--json") == 0) {
      cfg.json = true;
    } else if (std::strcmp(argv[i], "--slow-us") == 0) {
      cfg.slow_us = std::strtoull(next("--slow-us"), nullptr, 10);
    } else if (std::strcmp(argv[i], "--crash-file") == 0) {
      cfg.crash_file = next("--crash-file");
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
      return 2;
    }
  }
  if (mode == "verify") return RunVerify(cfg);
  if (mode == "stats") return RunStats(cfg);
  if (mode == "recover") return RunRecover(cfg);
  if (mode == "events" || mode == "slow" || mode == "top" ||
      mode == "healthz") {
    return RunOps(cfg, mode);
  }
  if (!mode.empty()) {
    std::fprintf(stderr, "unknown mode: %s\n", mode.c_str());
    return 2;
  }

  // Storage: file-backed (persistent) or in-memory.
  std::unique_ptr<Pager> pager;
  bool fresh = true;
  if (!cfg.db_path.empty()) {
    // Reuse an existing database file when present.
    FILE* probe = std::fopen(cfg.db_path.c_str(), "rb");
    fresh = (probe == nullptr);
    if (probe != nullptr) std::fclose(probe);
    auto p = Pager::OpenFile(cfg.db_path, /*truncate=*/fresh);
    if (!p.ok()) {
      std::fprintf(stderr, "open %s: %s\n", cfg.db_path.c_str(),
                   p.status().ToString().c_str());
      return 1;
    }
    pager = std::move(*p);
  } else {
    pager = Pager::OpenMemory();
  }
  // The registry is declared before the pool and the index so it outlives
  // both (their destructors unregister the callbacks that capture them).
  // The Wal is declared before the pool for the same reason: the pool's
  // destructor-time flush enforces the WAL rule against it.
  obs::MetricsRegistry registry;
  // Observability stack, always on. The slow-query log is wired into the
  // index via options and must outlive it; the history sampler snapshots
  // the registry every second (every `--stats-dump-ms`, streaming each
  // sample to stderr, when set); the black box dumps all three (plus the
  // process-wide flight recorder) on any fatal signal or the `crash`
  // command. Both are declared right after the registry so they are
  // destroyed after the index but before the registry.
  obs::SlowQueryLog slow_log(obs::SlowQueryLog::Options{
      cfg.slow_us, /*sample_every=*/256, /*capacity=*/32});
  obs::MetricsHistory::Options history_opts;
  if (cfg.stats_dump_ms > 0) {
    history_opts.period = std::chrono::milliseconds(cfg.stats_dump_ms);
    history_opts.sink = [](const std::string& line) {
      std::fputs(line.c_str(), stderr);
    };
  }
  obs::MetricsHistory history(&registry, history_opts);
  history.Start();
  obs::BlackBox::Install(
      obs::BlackBox::Sources{&obs::FlightRecorder::Global(), &slow_log,
                             &history},
      cfg.crash_file);
  std::unique_ptr<WalStore> wal_store;
  std::unique_ptr<Wal> wal;
  if (!cfg.wal_dir.empty()) {
    auto ws = WalStore::OpenDir(cfg.wal_dir);
    if (!ws.ok()) {
      std::fprintf(stderr, "open wal %s: %s\n", cfg.wal_dir.c_str(),
                   ws.status().ToString().c_str());
      return 1;
    }
    wal_store = std::move(*ws);
    WalOptions wopts;
    wopts.metrics = &registry;
    auto w = Wal::Open(wal_store.get(), wopts);
    if (!w.ok()) {
      std::fprintf(stderr, "wal: %s\n", w.status().ToString().c_str());
      return 1;
    }
    wal = std::move(*w);
  }
  BufferPool pool(pager.get(), cfg.pool_pages, /*partitions=*/0, &registry);
  if (wal != nullptr) pool.AttachWal(wal.get());
  cfg.options.metrics = &registry;
  cfg.options.slow_log = &slow_log;
  cfg.options.wal = wal.get();

  // The metadata page chain head lives at a known page right after the
  // superblock; we stash its id in a tiny sidecar convention: page 1.
  std::unique_ptr<SwstIndex> index;
  PageId meta = kInvalidPageId;
  if (!fresh) {
    meta = 1;  // Save() below allocates the chain head first, so it is 1.
    auto idx = SwstIndex::Open(&pool, cfg.options, meta);
    if (!idx.ok()) {
      std::fprintf(stderr, "reopen failed (%s); pass matching options\n",
                   idx.status().ToString().c_str());
      return 1;
    }
    index = std::move(*idx);
    std::printf("reopened %s: now=%llu\n", cfg.db_path.c_str(),
                static_cast<unsigned long long>(index->now()));
  } else {
    auto idx = SwstIndex::Create(&pool, cfg.options);
    if (!idx.ok()) {
      std::fprintf(stderr, "create: %s\n", idx.status().ToString().c_str());
      return 1;
    }
    index = std::move(*idx);
    if (!cfg.db_path.empty()) {
      // Allocate the metadata chain immediately so its head is page 1.
      Status st = index->Save(&meta);
      if (!st.ok()) {
        std::fprintf(stderr, "save: %s\n", st.ToString().c_str());
        return 1;
      }
    }
  }

  std::unordered_map<ObjectId, Entry> open_entries;
  std::string line;
  while (std::getline(std::cin, line)) {
    std::istringstream in(line);
    std::string cmd;
    if (!(in >> cmd) || cmd[0] == '#') continue;

    if (cmd == "quit" || cmd == "exit") {
      break;
    } else if (cmd == "help") {
      PrintHelp();
    } else if (cmd == "report") {
      ObjectId oid;
      double x, y;
      Timestamp t;
      if (!(in >> oid >> x >> y >> t)) {
        std::printf("usage: report <oid> <x> <y> <t>\n");
        continue;
      }
      auto it = open_entries.find(oid);
      Entry cur;
      Status st = index->ReportPosition(
          oid, {x, y}, t, it != open_entries.end() ? &it->second : nullptr,
          &cur);
      if (!st.ok()) {
        Fail(st);
        continue;
      }
      open_entries[oid] = cur;
      std::printf("ok now=%llu\n",
                  static_cast<unsigned long long>(index->now()));
    } else if (cmd == "insert" || cmd == "delete") {
      ObjectId oid;
      double x, y;
      Timestamp s;
      std::string dur;
      if (!(in >> oid >> x >> y >> s >> dur)) {
        std::printf("usage: %s <oid> <x> <y> <start> <duration|current>\n",
                    cmd.c_str());
        continue;
      }
      Entry e{oid, {x, y}, s,
              dur == "current" ? kUnknownDuration
                               : std::strtoull(dur.c_str(), nullptr, 10)};
      Status st = (cmd == "insert") ? index->Insert(e) : index->Delete(e);
      if (!st.ok()) {
        Fail(st);
        continue;
      }
      std::printf("ok\n");
    } else if (cmd == "batch") {
      size_t n;
      if (!(in >> n)) {
        std::printf("usage: batch <n>\n");
        continue;
      }
      std::vector<Entry> entries;
      entries.reserve(n);
      std::string entry_line;
      bool parse_ok = true;
      while (entries.size() < n && std::getline(std::cin, entry_line)) {
        std::istringstream ein(entry_line);
        ObjectId oid;
        double x, y;
        Timestamp s;
        std::string dur;
        if (!(ein >> oid >> x >> y >> s >> dur)) {
          std::printf("batch: bad entry line: %s\n", entry_line.c_str());
          parse_ok = false;
          break;
        }
        entries.push_back(
            Entry{oid, {x, y}, s,
                  dur == "current"
                      ? kUnknownDuration
                      : std::strtoull(dur.c_str(), nullptr, 10)});
      }
      if (!parse_ok) continue;
      if (entries.size() < n) {
        std::printf("batch: expected %zu entries, got %zu\n", n,
                    entries.size());
        continue;
      }
      Status st = index->InsertBatch(entries);
      if (!st.ok()) {
        Fail(st);
        continue;
      }
      std::printf("ok inserted=%zu now=%llu\n", entries.size(),
                  static_cast<unsigned long long>(index->now()));
    } else if (cmd == "query" || cmd == "slice") {
      double xlo, ylo, xhi, yhi;
      Timestamp tlo, thi;
      if (!(in >> xlo >> ylo >> xhi >> yhi >> tlo)) {
        std::printf("usage: %s <xlo> <ylo> <xhi> <yhi> <t...>\n",
                    cmd.c_str());
        continue;
      }
      if (cmd == "query") {
        if (!(in >> thi)) {
          std::printf("usage: query <xlo> <ylo> <xhi> <yhi> <tlo> <thi>\n");
          continue;
        }
      } else {
        thi = tlo;
      }
      QueryOptions qo;
      Timestamp lw;
      if (in >> lw) qo.logical_window = lw;
      QueryStats stats;
      auto r = index->IntervalQuery(Rect{{xlo, ylo}, {xhi, yhi}},
                                    {tlo, thi}, qo, &stats);
      if (!r.ok()) {
        Fail(r.status());
        continue;
      }
      std::printf("results %zu (node_accesses=%llu)\n", r->size(),
                  static_cast<unsigned long long>(stats.node_accesses));
      for (const Entry& e : *r) PrintEntry(e);
    } else if (cmd == "explain") {
      double xlo, ylo, xhi, yhi;
      Timestamp tlo, thi;
      if (!(in >> xlo >> ylo >> xhi >> yhi >> tlo >> thi)) {
        std::printf(
            "usage: explain <xlo> <ylo> <xhi> <yhi> <tlo> <thi> "
            "[logical_window]\n");
        continue;
      }
      QueryOptions qo;
      Timestamp lw;
      if (in >> lw) qo.logical_window = lw;
      auto r = index->Explain(Rect{{xlo, ylo}, {xhi, yhi}}, {tlo, thi}, qo);
      if (!r.ok()) {
        Fail(r.status());
        continue;
      }
      std::printf("explain results=%zu node_accesses=%llu "
                  "cells_visited=%llu cells_pruned=%llu "
                  "memo_pruned_columns=%llu\n",
                  r->results.size(),
                  static_cast<unsigned long long>(r->stats.node_accesses),
                  static_cast<unsigned long long>(r->stats.cells_visited),
                  static_cast<unsigned long long>(r->stats.cells_pruned),
                  static_cast<unsigned long long>(
                      r->stats.memo_pruned_columns));
      std::fputs(r->text.c_str(), stdout);
    } else if (cmd == "metrics") {
      std::fputs(registry.RenderPrometheus().c_str(), stdout);
    } else if (cmd == "knn") {
      double x, y;
      size_t k;
      Timestamp tlo, thi;
      if (!(in >> x >> y >> k >> tlo >> thi)) {
        std::printf("usage: knn <x> <y> <k> <tlo> <thi>\n");
        continue;
      }
      auto r = index->Knn({x, y}, k, {tlo, thi});
      if (!r.ok()) {
        Fail(r.status());
        continue;
      }
      std::printf("results %zu\n", r->size());
      for (const Entry& e : *r) PrintEntry(e);
    } else if (cmd == "advance") {
      Timestamp t;
      if (!(in >> t)) {
        std::printf("usage: advance <t>\n");
        continue;
      }
      Status st = index->Advance(t);
      if (!st.ok()) {
        Fail(st);
        continue;
      }
      std::printf("ok now=%llu\n",
                  static_cast<unsigned long long>(index->now()));
    } else if (cmd == "window") {
      const TimeInterval w = index->QueriablePeriod();
      std::printf("window [%llu, %llu]\n",
                  static_cast<unsigned long long>(w.lo),
                  static_cast<unsigned long long>(w.hi));
    } else if (cmd == "stats") {
      auto s = index->GetDebugStats();
      if (!s.ok()) {
        Fail(s.status());
        continue;
      }
      std::printf("stats trees=%llu entries=%llu current=%llu height=%d "
                  "memo_cells=%llu memo_bytes=%zu pages=%llu\n",
                  static_cast<unsigned long long>(s->live_trees),
                  static_cast<unsigned long long>(s->entries),
                  static_cast<unsigned long long>(s->current_entries),
                  s->max_tree_height,
                  static_cast<unsigned long long>(s->memo_nonempty_cells),
                  s->memo_bytes,
                  static_cast<unsigned long long>(
                      pager->live_page_count()));
    } else if (cmd == "events" || cmd == "slow" || cmd == "top") {
      std::string fmt;
      const bool json = (in >> fmt) ? fmt == "json" : cfg.json;
      if (cmd == "events") {
        PrintEvents(json);
      } else if (cmd == "slow") {
        PrintSlow(slow_log, json);
      } else {
        PrintTop(&history, json);
      }
    } else if (cmd == "healthz") {
      std::printf("%s\n", RenderHealthz(slow_log, &history).c_str());
    } else if (cmd == "crash") {
      // Deliberate black-box exercise: dumps the flight recorder, slow
      // log, and last metrics sample, then aborts the process.
      obs::BlackBox::Fatal("operator-requested crash (crash command)");
    } else if (cmd == "save") {
      if (cfg.db_path.empty()) {
        std::printf("error: no --db file\n");
        continue;
      }
      Status st = index->Save(&meta);
      if (!st.ok()) {
        Fail(st);
        continue;
      }
      std::printf("ok meta_page=%u\n", meta);
    } else if (cmd == "checkpoint") {
      if (cfg.db_path.empty()) {
        std::printf("error: no --db file\n");
        continue;
      }
      Status st = index->Checkpoint(&meta);
      if (!st.ok()) {
        Fail(st);
        continue;
      }
      std::printf("ok meta_page=%u wal_segments=%llu\n", meta,
                  wal != nullptr
                      ? static_cast<unsigned long long>(wal->segment_count())
                      : 0ull);
    } else {
      std::printf("unknown command: %s (try 'help')\n", cmd.c_str());
    }
  }

  Status st;
  if (!cfg.db_path.empty()) {
    // With a WAL attached, the final persist is a checkpoint so the log's
    // covered prefix is truncated too.
    st = (wal != nullptr) ? index->Checkpoint(&meta) : index->Save(&meta);
  }
  // Stopped while the index is alive, so the final `--stats-dump-ms` line
  // still carries the index's registered metrics.
  history.Stop();
  if (!st.ok()) {
    std::fprintf(stderr, "final save: %s\n", st.ToString().c_str());
    return 1;
  }
  return 0;
}
