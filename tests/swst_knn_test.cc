#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/random.h"
#include "swst/swst_index.h"
#include "tests/test_util.h"

namespace swst {
namespace {

SwstOptions SmallOptions() {
  SwstOptions o;
  o.space = Rect{{0, 0}, {1000, 1000}};
  o.x_partitions = 5;
  o.y_partitions = 5;
  o.window_size = 1000;
  o.slide = 50;
  o.max_duration = 200;
  o.duration_interval = 50;
  o.zcurve_bits = 6;
  return o;
}

double Dist(const Point& a, const Point& b) {
  return std::hypot(a.x - b.x, a.y - b.y);
}

class SwstKnnTest : public PoolTest {
 protected:
  std::unique_ptr<SwstIndex> Make(const SwstOptions& o) {
    auto idx = SwstIndex::Create(pool(), o);
    EXPECT_TRUE(idx.ok());
    return std::move(*idx);
  }
};

TEST_F(SwstKnnTest, MatchesBruteForceOnRandomData) {
  SwstOptions o = SmallOptions();
  auto idx = Make(o);
  Random rng(71);
  std::vector<Entry> all;
  for (int i = 0; i < 1500; ++i) {
    Entry e = MakeEntry(i, rng.UniformDouble(0, 1000),
                        rng.UniformDouble(0, 1000), i / 3,
                        1 + rng.Uniform(200));
    ASSERT_OK(idx->Insert(e));
    all.push_back(e);
  }
  const TimeInterval win = idx->QueriablePeriod();

  for (int trial = 0; trial < 25; ++trial) {
    const Point center{rng.UniformDouble(0, 1000), rng.UniformDouble(0, 1000)};
    const size_t k = 1 + rng.Uniform(20);
    TimeInterval q{win.lo + rng.Uniform(win.hi - win.lo + 1), 0};
    q.hi = q.lo + rng.Uniform(100);

    auto r = idx->Knn(center, k, q);
    ASSERT_TRUE(r.ok()) << r.status().ToString();

    // Brute force: qualified entries sorted by distance.
    std::vector<const Entry*> qualified;
    for (const Entry& e : all) {
      if (e.start >= win.lo && e.start <= win.hi &&
          e.ValidTimeOverlaps(q)) {
        qualified.push_back(&e);
      }
    }
    std::sort(qualified.begin(), qualified.end(),
              [&](const Entry* a, const Entry* b) {
                return Dist(a->pos, center) < Dist(b->pos, center);
              });
    const size_t expect_n = std::min(k, qualified.size());
    ASSERT_EQ(r->size(), expect_n) << "trial " << trial;
    // Distances must match the brute-force distances (positions may tie).
    for (size_t i = 0; i < expect_n; ++i) {
      EXPECT_NEAR(Dist((*r)[i].pos, center),
                  Dist(qualified[i]->pos, center), 1e-9)
          << "trial " << trial << " i=" << i;
    }
    // Results sorted by distance.
    for (size_t i = 1; i < r->size(); ++i) {
      EXPECT_LE(Dist((*r)[i - 1].pos, center), Dist((*r)[i].pos, center));
    }
  }
}

// A centre in a corner cell: every ring past the first lies partly outside
// the grid, and the last ring wholly outside. `k` reaches past the first
// rings up to nearly every entry. The answer must match brute force, and
// the fanned-out walk (query_threads 4) must return the serial walk's
// entries in the same order with the same stats.
TEST_F(SwstKnnTest, CornerCenterCrossesClippedRings) {
  Random rng(73);
  std::vector<Entry> all;
  for (int i = 0; i < 1500; ++i) {
    all.push_back(MakeEntry(i, rng.UniformDouble(0, 1000),
                            rng.UniformDouble(0, 1000), i / 3,
                            1 + rng.Uniform(200)));
  }
  const Point center{30, 970};  // Cell (0, 4) of the 5x5 grid.
  for (const size_t k : {100, 400, 1000, 1500}) {
    std::vector<Entry> serial;
    QueryStats serial_stats;
    for (const uint32_t threads : {1u, 4u}) {
      SwstOptions o = SmallOptions();
      o.query_threads = threads;
      auto idx = Make(o);
      for (const Entry& e : all) ASSERT_OK(idx->Insert(e));
      const TimeInterval win = idx->QueriablePeriod();
      const TimeInterval q{win.lo, win.hi};
      QueryStats stats;
      auto r = idx->Knn(center, k, q, {}, &stats);
      ASSERT_TRUE(r.ok()) << r.status().ToString();

      std::vector<double> expect;
      for (const Entry& e : all) {
        if (e.start >= win.lo && e.start <= win.hi && e.ValidTimeOverlaps(q)) {
          expect.push_back(Dist(e.pos, center));
        }
      }
      std::sort(expect.begin(), expect.end());
      expect.resize(std::min(k, expect.size()));
      ASSERT_EQ(r->size(), expect.size()) << "k=" << k << " t=" << threads;
      for (size_t i = 0; i < expect.size(); ++i) {
        ASSERT_NEAR(Dist((*r)[i].pos, center), expect[i], 1e-9)
            << "k=" << k << " t=" << threads << " i=" << i;
      }

      if (threads == 1) {
        serial = *r;
        serial_stats = stats;
        continue;
      }
      for (size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ((*r)[i].oid, serial[i].oid) << "k=" << k << " i=" << i;
      }
      EXPECT_EQ(stats.spatial_cells, serial_stats.spatial_cells);
      EXPECT_EQ(stats.node_accesses, serial_stats.node_accesses);
      EXPECT_EQ(stats.results, serial_stats.results);
    }
  }
}

TEST_F(SwstKnnTest, KZeroReturnsEmpty) {
  auto idx = Make(SmallOptions());
  ASSERT_OK(idx->Insert(MakeEntry(1, 10, 10, 0, 10)));
  auto r = idx->Knn({10, 10}, 0, {0, 10});
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->empty());
}

TEST_F(SwstKnnTest, KLargerThanDataReturnsAll) {
  auto idx = Make(SmallOptions());
  for (int i = 0; i < 5; ++i) {
    ASSERT_OK(idx->Insert(MakeEntry(i, 100.0 * i + 50, 500, 10, 100)));
  }
  auto r = idx->Knn({0, 500}, 100, {10, 50});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->size(), 5u);
}

TEST_F(SwstKnnTest, RespectsTemporalPredicate) {
  auto idx = Make(SmallOptions());
  ASSERT_OK(idx->Insert(MakeEntry(1, 500, 500, 10, 50)));   // Valid [10,60).
  ASSERT_OK(idx->Insert(MakeEntry(2, 400, 400, 100, 50)));  // Valid [100,150).
  ASSERT_OK(idx->Advance(200));
  auto r = idx->Knn({500, 500}, 5, {120, 130});
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->size(), 1u);
  EXPECT_EQ((*r)[0].oid, 2u);
}

TEST_F(SwstKnnTest, CenterOutsideDomainRejected) {
  auto idx = Make(SmallOptions());
  auto r = idx->Knn({-5, 10}, 3, {0, 10});
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsInvalidArgument());
}

TEST_F(SwstKnnTest, EarlyRingTerminationSavesWork) {
  SwstOptions o = SmallOptions();
  o.x_partitions = 10;
  o.y_partitions = 10;
  auto idx = Make(o);
  Random rng(72);
  for (int i = 0; i < 3000; ++i) {
    ASSERT_OK(idx->Insert(MakeEntry(i, rng.UniformDouble(0, 1000),
                                    rng.UniformDouble(0, 1000), 10,
                                    1 + rng.Uniform(200))));
  }
  QueryStats stats;
  auto r = idx->Knn({500, 500}, 3, {10, 50}, {}, &stats);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->size(), 3u);
  // With dense data, 3 neighbours come from the first ring or two: far
  // fewer than the 100 cells of the grid.
  EXPECT_LT(stats.spatial_cells, 30u);
}

}  // namespace
}  // namespace swst
