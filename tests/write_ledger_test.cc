// Pinned write-side cost ledger: a fixed-seed GSTD stream driven through
// every public write call — `ReportPosition`, single `Insert`, `InsertBatch`
// chunks, `CloseCurrent`, `Delete` and `Advance` — into an in-memory index
// with an in-memory WAL. The page traffic, epoch retirements, write
// metrics, the log, the memo statistics and a full-window answer are all
// deterministic, so they are pinned exactly: a write-path change that
// alters the pages a write touches, how often it publishes, what it logs,
// or what ends up in the index fails here. The companion of
// read_ledger_test; a deliberate change to any constant must update it
// and say why.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <tuple>
#include <vector>

#include "common/random.h"
#include "gstd/gstd.h"
#include "obs/metrics.h"
#include "storage/wal.h"
#include "swst/swst_index.h"
#include "tests/test_util.h"

namespace swst {
namespace {

/// Small geometry (4x4 grid, W = 1200, slide 60, E = 1260, Dmax 240) over
/// a stream spanning four epochs, so trees are created, split and dropped.
SwstOptions LedgerOptions() {
  SwstOptions o;
  o.space = Rect{{0, 0}, {1000, 1000}};
  o.x_partitions = 4;
  o.y_partitions = 4;
  o.window_size = 1200;
  o.slide = 60;
  o.max_duration = 240;
  o.duration_interval = 60;
  o.zcurve_bits = 6;
  o.query_threads = 1;
  return o;
}

struct WriteLedger {
  uint64_t logical_reads = 0;
  uint64_t pages_allocated = 0;
  uint64_t pages_freed = 0;
  uint64_t epoch_retired = 0;
  uint64_t inserts = 0;
  uint64_t deletes = 0;
  uint64_t snapshots_published = 0;
  uint64_t wal_records = 0;
  uint64_t wal_last_lsn = 0;
  uint64_t memo_hash = 0;
  uint64_t answer_hash = 0;

  friend bool operator==(const WriteLedger&, const WriteLedger&) = default;
};

std::ostream& operator<<(std::ostream& os, const WriteLedger& l) {
  return os << "{" << l.logical_reads << ", " << l.pages_allocated << ", "
            << l.pages_freed << ", " << l.epoch_retired << ", " << l.inserts
            << ", " << l.deletes << ", " << l.snapshots_published << ", "
            << l.wal_records << ", " << l.wal_last_lsn << ", 0x" << std::hex
            << l.memo_hash << "ull, 0x" << l.answer_hash << "ull" << std::dec
            << "}";
}

uint64_t Mix(uint64_t h, uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  return h;
}

uint64_t HashMemo(const std::vector<IsPresentMemo::CellStat>& memo) {
  uint64_t h = Mix(0, memo.size());
  for (const auto& s : memo) {
    h = Mix(Mix(Mix(Mix(Mix(h, s.count), s.min_x), s.min_y), s.max_x),
            s.max_y);
  }
  return h;
}

/// Order-independent hash of a query answer.
uint64_t HashAnswer(std::vector<Entry> answer) {
  std::sort(answer.begin(), answer.end(), [](const Entry& a, const Entry& b) {
    return std::tie(a.oid, a.start) < std::tie(b.oid, b.start);
  });
  uint64_t h = Mix(0, answer.size());
  for (const Entry& e : answer) {
    uint64_t x = 0, y = 0;
    std::memcpy(&x, &e.pos.x, sizeof(x));
    std::memcpy(&y, &e.pos.y, sizeof(y));
    h = Mix(Mix(Mix(Mix(Mix(h, e.oid), e.start), e.duration), x), y);
  }
  return h;
}

class WriteLedgerTest : public PoolTest {
 protected:
  WriteLedgerTest() : PoolTest(4096) {}
};

TEST_F(WriteLedgerTest, PinnedWriteCounters) {
  obs::MetricsRegistry registry;
  auto store = WalStore::OpenMemory();
  auto wal = Wal::Open(store.get());
  ASSERT_OK(wal.status());
  SwstOptions o = LedgerOptions();
  o.wal = wal->get();
  o.metrics = &registry;
  auto created = SwstIndex::Create(pool(), o);
  ASSERT_OK(created.status());
  SwstIndex& idx = **created;

  // 150 objects x 60 reports over t in [0, 5000). Objects are split three
  // ways by oid: fleet reports (`ReportPosition`); batch loads (closed and
  // current entries buffered into `InsertBatch` chunks of 1..8 or 1..60,
  // each flush followed by a `Delete` of an entry of the previous chunk);
  // and raw current inserts (`Insert`, then `CloseCurrent` on the next
  // report unless the stay exceeds Dmax).
  GstdOptions g;
  g.num_objects = 150;
  g.records_per_object = 60;
  g.max_time = 5000;
  g.space = o.space;
  g.max_step = 120.0;
  g.seed = 20261017;
  GstdGenerator gen(g);
  Random rng(17);
  std::map<ObjectId, Entry> open;
  std::vector<Entry> batch, flushed;
  size_t chunk = 1;
  Timestamp advanced = 0;
  GstdRecord rec;
  while (gen.Next(&rec)) {
    if (rec.t >= advanced + o.slide) {
      advanced = rec.t / o.slide * o.slide;
      ASSERT_OK(idx.Advance(advanced));
    }
    auto it = open.find(rec.oid);
    if (it != open.end() && rec.t <= it->second.start) continue;
    switch (rec.oid % 3) {
      case 0: {
        const Entry* prev = nullptr;
        if (it != open.end() && rec.t - it->second.start <= o.max_duration) {
          prev = &it->second;
        }
        Entry cur;
        ASSERT_OK(idx.ReportPosition(rec.oid, rec.pos, rec.t, prev, &cur));
        open[rec.oid] = cur;
        break;
      }
      case 1: {
        const Duration d = rng.Bernoulli(0.15)
                               ? kUnknownDuration
                               : 1 + rng.Uniform(o.max_duration);
        batch.push_back(Entry{rec.oid, rec.pos, rec.t, d});
        open[rec.oid] = batch.back();
        if (batch.size() >= chunk) {
          ASSERT_OK(idx.InsertBatch(batch));
          if (!flushed.empty()) {
            ASSERT_OK(idx.Delete(flushed[rng.Uniform(flushed.size())]));
          }
          flushed.swap(batch);
          batch.clear();
          chunk = 1 + rng.Uniform(rng.Bernoulli(0.2) ? 60 : 8);
        }
        break;
      }
      case 2: {
        if (it != open.end() && rec.t - it->second.start <= o.max_duration) {
          ASSERT_OK(idx.CloseCurrent(it->second, rec.t - it->second.start));
        }
        const Entry cur{rec.oid, rec.pos, rec.t, kUnknownDuration};
        ASSERT_OK(idx.Insert(cur));
        open[rec.oid] = cur;
        break;
      }
    }
  }
  ASSERT_OK(idx.InsertBatch(batch));

  WriteLedger l;
  l.logical_reads = pool()->stats().logical_reads.load();
  l.pages_allocated = pool()->stats().pages_allocated.load();
  l.pages_freed = pool()->stats().pages_freed.load();
  l.epoch_retired = idx.EpochStats().retired;
  l.inserts = registry.RegisterCounter("swst_index_inserts_total", "")->value();
  l.deletes = registry.RegisterCounter("swst_index_deletes_total", "")->value();
  l.snapshots_published =
      registry.RegisterCounter("swst_epoch_snapshots_published_total", "")
          ->value();
  auto replayed = (*wal)->Replay(1, [](Lsn, WalRecordType, const char*,
                                       uint32_t) { return Status::OK(); });
  ASSERT_OK(replayed.status());
  l.wal_records = replayed->records_delivered;
  l.wal_last_lsn = (*wal)->last_lsn();
  l.memo_hash = HashMemo(idx.MemoSnapshot());
  auto answer = idx.IntervalQuery(o.space, idx.QueriablePeriod());
  ASSERT_OK(answer.status());
  l.answer_hash = HashAnswer(std::move(*answer));

  // Recorded at the commit that introduced this test; see the file
  // comment before changing them.
  EXPECT_EQ(l, (WriteLedger{23627, 7818, 7786, 13965, 14900, 6221, 13965,
                            15315, 15315, 0x5fc12afe561956fcull,
                            0xac16972305c5cdfcull}))
      << l;
}

}  // namespace
}  // namespace swst
