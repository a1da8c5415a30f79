#include <gtest/gtest.h>

#include "hrtree/hr_tree.h"
#include "pist/pist_index.h"
#include "swst/swst_index.h"
#include "tests/test_util.h"

namespace swst {
namespace {

// Small odds-and-ends that round out coverage of the public surfaces.

TEST(MiscCoverage, PistRejectsHugeTimestamps) {
  auto pager = Pager::OpenMemory();
  BufferPool pool(pager.get(), 64);
  PistOptions o;
  o.space = Rect{{0, 0}, {100, 100}};
  o.x_partitions = 2;
  o.y_partitions = 2;
  o.lambda = 10;
  auto idx = PistIndex::Create(&pool, o);
  ASSERT_TRUE(idx.ok());
  // end() would not fit the 32-bit key field.
  Entry e{1, {10, 10}, (1ULL << 32) - 5, 100};
  EXPECT_TRUE((*idx)->Insert(e).IsInvalidArgument());
}

TEST(MiscCoverage, PistOptionsValidation) {
  PistOptions o;
  o.lambda = 0;
  EXPECT_FALSE(o.Validate().ok());
  o = PistOptions{};
  o.x_partitions = 0;
  EXPECT_FALSE(o.Validate().ok());
  o = PistOptions{};
  o.space = Rect::Empty();
  EXPECT_FALSE(o.Validate().ok());
  EXPECT_OK(PistOptions{}.Validate());
}

TEST(MiscCoverage, HrTreeQueriesOnEmptyTree) {
  auto pager = Pager::OpenMemory();
  BufferPool pool(pager.get(), 16);
  auto t = HrTree::Create(&pool);
  ASSERT_TRUE(t.ok());
  auto r = (*t)->TimesliceQuery(Rect{{0, 0}, {10, 10}}, 5);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->empty());
  auto r2 = (*t)->IntervalQuery(Rect{{0, 0}, {10, 10}}, {0, 100});
  ASSERT_TRUE(r2.ok());
  EXPECT_TRUE(r2->empty());
  ASSERT_OK((*t)->DropVersionsBefore(100));
  EXPECT_EQ((*t)->version_count(), 0u);
}

// SwstIndex is internally thread-safe, so the whole surface — including
// debug introspection — is available on the one type; this pins the API
// points the removed ConcurrentSwstIndex façade used to forward.
TEST(MiscCoverage, IndexExposesDebugSurfaceDirectly) {
  auto pager = Pager::OpenMemory();
  BufferPool pool(pager.get(), 64);
  SwstOptions o;
  o.space = Rect{{0, 0}, {100, 100}};
  o.x_partitions = 2;
  o.y_partitions = 2;
  o.window_size = 100;
  o.slide = 10;
  o.max_duration = 20;
  o.duration_interval = 10;
  auto idx = SwstIndex::Create(&pool, o);
  ASSERT_TRUE(idx.ok());
  ASSERT_OK((*idx)->Insert(Entry{1, {5, 5}, 0, 10}));
  auto stats = (*idx)->GetDebugStats();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->entries, 1u);
  EXPECT_EQ((*idx)->QueriablePeriod().hi, 0u);
  EXPECT_EQ((*idx)->now(), 0u);
}

TEST(MiscCoverage, SwstKnnWithLogicalWindow) {
  auto pager = Pager::OpenMemory();
  BufferPool pool(pager.get(), 256);
  SwstOptions o;
  o.space = Rect{{0, 0}, {1000, 1000}};
  o.x_partitions = 4;
  o.y_partitions = 4;
  o.window_size = 1000;
  o.slide = 50;
  o.max_duration = 200;
  o.duration_interval = 50;
  auto idx = SwstIndex::Create(&pool, o);
  ASSERT_TRUE(idx.ok());
  // Old entry near the center, newer entry farther away.
  ASSERT_OK((*idx)->Insert(Entry{1, {500, 500}, 100, 150}));
  ASSERT_OK((*idx)->Insert(Entry{2, {600, 600}, 700, 150}));
  ASSERT_OK((*idx)->Advance(800));
  // Physical window sees both; k=1 picks the nearer (old) one.
  auto r = (*idx)->Knn({500, 500}, 1, {0, 800});
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->size(), 1u);
  EXPECT_EQ((*r)[0].oid, 1u);
  // A logical window of 200 excludes the old entry.
  QueryOptions qo;
  qo.logical_window = 200;
  r = (*idx)->Knn({500, 500}, 1, {0, 800}, qo);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->size(), 1u);
  EXPECT_EQ((*r)[0].oid, 2u);
}

TEST(MiscCoverage, SwstOpenOnMissingMetaFailsCleanly) {
  auto pager = Pager::OpenMemory();
  BufferPool pool(pager.get(), 64);
  SwstOptions o;
  o.space = Rect{{0, 0}, {100, 100}};
  o.x_partitions = 2;
  o.y_partitions = 2;
  o.window_size = 100;
  o.slide = 10;
  o.max_duration = 20;
  o.duration_interval = 10;
  auto idx = SwstIndex::Open(&pool, o, /*meta_page=*/kInvalidPageId);
  EXPECT_FALSE(idx.ok());
}

}  // namespace
}  // namespace swst
