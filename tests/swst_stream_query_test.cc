#include <gtest/gtest.h>

#include <set>

#include "common/random.h"
#include "swst/swst_index.h"
#include "tests/test_util.h"

namespace swst {
namespace {

SwstOptions SmallOptions() {
  SwstOptions o;
  o.space = Rect{{0, 0}, {1000, 1000}};
  o.x_partitions = 4;
  o.y_partitions = 4;
  o.window_size = 1000;
  o.slide = 50;
  o.max_duration = 200;
  o.duration_interval = 50;
  return o;
}

class StreamQueryTest : public PoolTest {
 protected:
  std::unique_ptr<SwstIndex> MakeFilled(int n) {
    auto idx = SwstIndex::Create(pool(), SmallOptions());
    EXPECT_TRUE(idx.ok());
    Random rng(17);
    for (int i = 0; i < n; ++i) {
      EXPECT_OK((*idx)->Insert(MakeEntry(i, rng.UniformDouble(0, 1000),
                                         rng.UniformDouble(0, 1000), i / 4,
                                         1 + rng.Uniform(200))));
    }
    return std::move(*idx);
  }
};

TEST_F(StreamQueryTest, StreamMatchesMaterializedQuery) {
  auto idx = MakeFilled(2000);
  const TimeInterval win = idx->QueriablePeriod();
  const Rect area{{100, 100}, {700, 700}};
  const TimeInterval q{win.lo + 50, win.lo + 300};

  auto materialized = idx->IntervalQuery(area, q);
  ASSERT_TRUE(materialized.ok());

  std::multiset<std::pair<ObjectId, Timestamp>> streamed, expect;
  ASSERT_OK(idx->IntervalQueryStream(area, q, {}, [&](const Entry& e) {
    streamed.insert({e.oid, e.start});
    return true;
  }));
  for (const Entry& e : *materialized) expect.insert({e.oid, e.start});
  EXPECT_EQ(streamed, expect);
}

TEST_F(StreamQueryTest, EarlyTerminationStopsPromptly) {
  auto idx = MakeFilled(3000);
  const TimeInterval win = idx->QueriablePeriod();
  const Rect area{{0, 0}, {1000, 1000}};

  int emitted = 0;
  QueryStats stats;
  ASSERT_OK(idx->IntervalQueryStream(area, win, {}, [&](const Entry&) {
    emitted++;
    return emitted < 5;
  }, &stats));
  EXPECT_EQ(emitted, 5);

  // The full query is much larger — early termination really cut work.
  auto full = idx->IntervalQuery(area, win);
  ASSERT_TRUE(full.ok());
  EXPECT_GT(full->size(), 100u);
  QueryStats full_stats;
  auto full2 = idx->IntervalQuery(area, win, {}, &full_stats);
  ASSERT_TRUE(full2.ok());
  EXPECT_LT(stats.node_accesses, full_stats.node_accesses);
}

TEST_F(StreamQueryTest, ExistenceProbeStopsAtFirstHit) {
  auto idx = MakeFilled(2000);
  const TimeInterval win = idx->QueriablePeriod();
  bool any = false;
  ASSERT_OK(idx->IntervalQueryStream(Rect{{0, 0}, {1000, 1000}}, win, {},
                                     [&](const Entry&) {
                                       any = true;
                                       return false;
                                     }));
  EXPECT_TRUE(any);
}

// A cell whose entries span two epochs has two live trees. Once `fn`
// returns false it is never called again: the search does not go on to
// the cell's second tree.
TEST_F(StreamQueryTest, StopIsFinalAcrossTreeSlots) {
  auto idx_or = SwstIndex::Create(pool(), SmallOptions());
  ASSERT_TRUE(idx_or.ok());
  auto& idx = *idx_or;
  for (int i = 0; i < 10; ++i) {
    ASSERT_OK(idx->Insert(MakeEntry(i, 10 + i, 10, 900 + i, 50)));
    ASSERT_OK(idx->Insert(MakeEntry(100 + i, 10 + i, 10, 1100 + i, 50)));
  }
  ASSERT_OK(idx->Advance(1300));
  const Rect cell{{0, 0}, {100, 100}};
  const TimeInterval win = idx->QueriablePeriod();
  auto all = idx->IntervalQuery(cell, win);
  ASSERT_TRUE(all.ok());
  ASSERT_EQ(all->size(), 20u);  // Both epochs are inside the window.

  int calls = 0;
  ASSERT_OK(idx->IntervalQueryStream(cell, win, {}, [&](const Entry&) {
    ++calls;
    return false;
  }));
  EXPECT_EQ(calls, 1);
}

TEST_F(StreamQueryTest, AggregationWithoutMaterialization) {
  auto idx = MakeFilled(2000);
  const TimeInterval win = idx->QueriablePeriod();
  // Count distinct objects without building a result vector.
  std::set<ObjectId> distinct;
  ASSERT_OK(idx->IntervalQueryStream(Rect{{0, 0}, {500, 500}}, win, {},
                                     [&](const Entry& e) {
                                       distinct.insert(e.oid);
                                       return true;
                                     }));
  auto materialized = idx->IntervalQuery(Rect{{0, 0}, {500, 500}}, win);
  ASSERT_TRUE(materialized.ok());
  std::set<ObjectId> expect;
  for (const Entry& e : *materialized) expect.insert(e.oid);
  EXPECT_EQ(distinct, expect);
}

TEST_F(StreamQueryTest, MalformedStreamQueryRejected) {
  auto idx = MakeFilled(10);
  EXPECT_FALSE(idx->IntervalQueryStream(Rect::Empty(), {0, 1}, {},
                                        [](const Entry&) { return true; })
                   .ok());
}

}  // namespace
}  // namespace swst
