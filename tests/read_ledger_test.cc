// Pinned read-side cost ledger: a fixed-seed GSTD stream into an in-memory
// index, then a fixed set of window, now and knn queries. The summed
// `QueryStats` counters and a hash of the answers are deterministic, so
// they are pinned exactly: a read-path change that alters the pages a
// query visits, the key ranges it builds, the columns it plans, what the
// isPresent memo prunes, the candidates the trees yield, or the answers
// themselves fails here.
// A deliberate change to any of them must update the constants and say
// why.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <tuple>
#include <vector>

#include "common/random.h"
#include "gstd/gstd.h"
#include "swst/swst_index.h"
#include "tests/test_util.h"

namespace swst {
namespace {

/// Paper Table II geometry (20x20 grid, W = 20000, slide 100, Dmax 2000,
/// delta 100) over a shorter stream.
SwstOptions LedgerOptions() {
  SwstOptions o;
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

struct Ledger {
  uint64_t node_accesses = 0;
  uint64_t key_ranges = 0;
  uint64_t memo_pruned_columns = 0;
  uint64_t columns = 0;
  uint64_t candidates = 0;
  uint64_t results = 0;
  uint64_t result_hash = 0;

  friend bool operator==(const Ledger&, const Ledger&) = default;
};

std::ostream& operator<<(std::ostream& os, const Ledger& l) {
  return os << "{" << l.node_accesses << ", " << l.key_ranges << ", "
            << l.memo_pruned_columns << ", " << l.columns << ", "
            << l.candidates << ", "
            << l.results << ", 0x" << std::hex << l.result_hash << std::dec
            << "ull}";
}

uint64_t Mix(uint64_t h, uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  return h;
}

/// Folds one query's answer, order-independently, into `l`.
void Add(Ledger* l, const QueryStats& s, std::vector<Entry> answer) {
  l->node_accesses += s.node_accesses;
  l->key_ranges += s.key_ranges;
  l->memo_pruned_columns += s.memo_pruned_columns;
  l->columns += s.columns;
  l->candidates += s.candidates;
  l->results += s.results;
  std::sort(answer.begin(), answer.end(), [](const Entry& a, const Entry& b) {
    return std::tie(a.oid, a.start) < std::tie(b.oid, b.start);
  });
  uint64_t h = Mix(l->result_hash, answer.size());
  for (const Entry& e : answer) {
    uint64_t x = 0, y = 0;
    std::memcpy(&x, &e.pos.x, sizeof(x));
    std::memcpy(&y, &e.pos.y, sizeof(y));
    h = Mix(Mix(Mix(Mix(Mix(h, e.oid), e.start), e.duration), x), y);
  }
  l->result_hash = h;
}

class ReadLedgerTest : public PoolTest {
 protected:
  ReadLedgerTest() : PoolTest(16384) {}
};

TEST_F(ReadLedgerTest, PinnedCountersAndAnswers) {
  const SwstOptions o = LedgerOptions();
  auto created = SwstIndex::Create(pool(), o);
  ASSERT_OK(created.status());
  SwstIndex& idx = **created;

  // 4,000 objects x 30 reports (the stream ends near t = 40000): the
  // window slides past its first epoch boundary, so both tree slots and a
  // dropped epoch are exercised. A report whose gap exceeds Dmax leaves
  // the previous entry current (it stays in the live tier). Window and knn
  // queries look at random historical intervals (disk tier); now queries
  // mostly hit the live tier.
  GstdOptions g;
  g.num_objects = 4000;
  g.records_per_object = 30;
  g.max_time = 30000;
  g.space = o.space;
  g.max_step = 200.0;
  g.seed = 20261016;
  GstdGenerator gen(g);
  std::map<ObjectId, Entry> open;
  Timestamp advanced = 0;
  GstdRecord rec;
  while (gen.Next(&rec)) {
    if (rec.t >= advanced + o.slide) {
      advanced = rec.t / o.slide * o.slide;
      ASSERT_OK(idx.Advance(advanced));
    }
    auto it = open.find(rec.oid);
    const Entry* prev = nullptr;
    if (it != open.end() && rec.t > it->second.start &&
        rec.t - it->second.start <= o.max_duration) {
      prev = &it->second;
    }
    if (it != open.end() && rec.t <= it->second.start) continue;
    Entry cur;
    ASSERT_OK(idx.ReportPosition(rec.oid, rec.pos, rec.t, prev, &cur));
    open[rec.oid] = cur;
  }

  const TimeInterval win = idx.QueriablePeriod();
  const Timestamp now = idx.now();
  Random rng(7);
  Ledger window, now_q, knn;
  for (int i = 0; i < 60; ++i) {
    const double x = rng.UniformDouble(0, 9000);
    const double y = rng.UniformDouble(0, 9000);
    const Rect area{{x, y}, {x + 1000, y + 1000}};
    const Timestamp lo = win.lo + rng.Uniform(win.hi - win.lo - 2000);
    QueryStats s;
    auto r = idx.IntervalQuery(area, {lo, lo + 2000}, {}, &s);
    ASSERT_OK(r.status());
    Add(&window, s, std::move(*r));
  }
  for (int i = 0; i < 30; ++i) {
    const double x = rng.UniformDouble(0, 9500);
    const double y = rng.UniformDouble(0, 9500);
    QueryStats s;
    auto r =
        idx.TimesliceQuery(Rect{{x, y}, {x + 500, y + 500}}, now, {}, &s);
    ASSERT_OK(r.status());
    Add(&now_q, s, std::move(*r));
  }
  for (int i = 0; i < 30; ++i) {
    const Point c{rng.UniformDouble(0, 10000), rng.UniformDouble(0, 10000)};
    const Timestamp lo = win.lo + rng.Uniform(win.hi - win.lo - 1000);
    QueryStats s;
    auto r = idx.Knn(c, 10, {lo, lo + 1000}, {}, &s);
    ASSERT_OK(r.status());
    Add(&knn, s, std::move(*r));
  }

  // Recorded at the commit that introduced this test; see the file
  // comment before changing them. `memo_pruned_columns` and `columns` were
  // re-recorded when planning stopped at the closed d-partitions (a column
  // whose closed entries all end before q.lo is no longer planned, so it
  // is no longer pruned either); every other field is unchanged.
  EXPECT_EQ(window, (Ledger{362, 2795, 17488, 2363, 3565, 4668,
                            0x4854d1b1d0c20ca2ull}))
      << window;
  EXPECT_EQ(now_q, (Ledger{0, 0, 0, 630, 0, 283, 0xa07de987361eebe7ull}))
      << now_q;
  EXPECT_EQ(knn, (Ledger{198, 1956, 5268, 926, 2670, 3827,
                         0x6783294626b6b813ull}))
      << knn;
}

}  // namespace
}  // namespace swst
