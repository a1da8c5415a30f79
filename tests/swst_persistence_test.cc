#include <gtest/gtest.h>

#include <filesystem>
#include <set>

#include "btree/btree_node.h"
#include "btree/leaf_codec.h"
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
  o.zcurve_bits = 6;
  return o;
}

using Key = std::pair<ObjectId, Timestamp>;

std::multiset<Key> Keys(const std::vector<Entry>& entries) {
  std::multiset<Key> out;
  for (const Entry& e : entries) out.insert({e.oid, e.start});
  return out;
}

class PersistenceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = std::filesystem::temp_directory_path() /
            ("swst_persist_" + std::to_string(::getpid()) + "_" +
             ::testing::UnitTest::GetInstance()->current_test_info()->name() +
             ".db");
  }
  void TearDown() override { std::filesystem::remove(path_); }

  std::filesystem::path path_;
};

TEST_F(PersistenceTest, SaveAndReopenPreservesData) {
  const SwstOptions o = SmallOptions();
  PageId meta = kInvalidPageId;
  std::vector<Entry> inserted;
  Random rng(21);

  {
    auto pager = Pager::OpenFile(path_.string(), /*truncate=*/true);
    ASSERT_TRUE(pager.ok());
    BufferPool pool(pager->get(), 512);
    auto idx = SwstIndex::Create(&pool, o);
    ASSERT_TRUE(idx.ok());
    for (int i = 0; i < 1500; ++i) {
      Entry e = MakeEntry(i, rng.UniformDouble(0, 1000),
                          rng.UniformDouble(0, 1000), i / 2,
                          1 + rng.Uniform(200));
      ASSERT_OK((*idx)->Insert(e));
      inserted.push_back(e);
    }
    ASSERT_OK((*idx)->Save(&meta));
    ASSERT_NE(meta, kInvalidPageId);
  }

  // Reopen from disk and compare query answers with the pre-shutdown
  // ground truth.
  auto pager = Pager::OpenFile(path_.string(), /*truncate=*/false);
  ASSERT_TRUE(pager.ok());
  BufferPool pool(pager->get(), 512);
  auto idx = SwstIndex::Open(&pool, o, meta);
  ASSERT_OK(idx.status());
  ASSERT_OK((*idx)->ValidateTrees());

  auto count = (*idx)->CountEntries();
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, inserted.size());

  const TimeInterval win = (*idx)->QueriablePeriod();
  for (int trial = 0; trial < 20; ++trial) {
    const double x = rng.UniformDouble(0, 700);
    const double y = rng.UniformDouble(0, 700);
    const Rect area{{x, y}, {x + 300, y + 300}};
    const TimeInterval q{win.lo + trial * 10, win.lo + trial * 10 + 100};
    auto r = (*idx)->IntervalQuery(area, q);
    ASSERT_TRUE(r.ok());
    std::vector<Entry> expect;
    for (const Entry& e : inserted) {
      if (e.start >= win.lo && e.start <= win.hi && area.Contains(e.pos) &&
          e.ValidTimeOverlaps(q)) {
        expect.push_back(e);
      }
    }
    ASSERT_EQ(Keys(*r), Keys(expect)) << "trial " << trial;
  }
}

TEST_F(PersistenceTest, ReopenedIndexAcceptsNewInsertsAndExpiry) {
  const SwstOptions o = SmallOptions();
  PageId meta = kInvalidPageId;
  {
    auto pager = Pager::OpenFile(path_.string(), true);
    ASSERT_TRUE(pager.ok());
    BufferPool pool(pager->get(), 512);
    auto idx = SwstIndex::Create(&pool, o);
    ASSERT_TRUE(idx.ok());
    ASSERT_OK((*idx)->Insert(MakeEntry(1, 100, 100, 10, 100)));
    ASSERT_OK((*idx)->Save(&meta));
  }
  {
    auto pager = Pager::OpenFile(path_.string(), false);
    ASSERT_TRUE(pager.ok());
    BufferPool pool(pager->get(), 512);
    auto idx = SwstIndex::Open(&pool, o, meta);
    ASSERT_OK(idx.status());
    EXPECT_EQ((*idx)->now(), 10u);
    ASSERT_OK((*idx)->Insert(MakeEntry(2, 200, 200, 50, 100)));
    // Advance past both epochs: everything expires and pages are freed.
    ASSERT_OK((*idx)->Advance(10 * o.epoch_length()));
    auto count = (*idx)->CountEntries();
    ASSERT_TRUE(count.ok());
    EXPECT_EQ(*count, 0u);
    PageId meta2 = kInvalidPageId;
    ASSERT_OK((*idx)->Save(&meta2));
    EXPECT_EQ(meta2, meta);  // The metadata chain head is stable.
  }
}

TEST_F(PersistenceTest, OpenRejectsMismatchedOptions) {
  const SwstOptions o = SmallOptions();
  PageId meta = kInvalidPageId;
  {
    auto pager = Pager::OpenFile(path_.string(), true);
    ASSERT_TRUE(pager.ok());
    BufferPool pool(pager->get(), 512);
    auto idx = SwstIndex::Create(&pool, o);
    ASSERT_TRUE(idx.ok());
    ASSERT_OK((*idx)->Save(&meta));
  }
  auto pager = Pager::OpenFile(path_.string(), false);
  ASSERT_TRUE(pager.ok());
  BufferPool pool(pager->get(), 512);
  SwstOptions other = o;
  other.slide = 25;  // Changes the key layout.
  auto idx = SwstIndex::Open(&pool, other, meta);
  EXPECT_FALSE(idx.ok());
  EXPECT_TRUE(idx.status().IsInvalidArgument());
}

TEST_F(PersistenceTest, OpenRejectsGarbagePage) {
  const SwstOptions o = SmallOptions();
  auto pager = Pager::OpenFile(path_.string(), true);
  ASSERT_TRUE(pager.ok());
  BufferPool pool(pager->get(), 512);
  // Allocate an uninitialized page and try to open it as metadata.
  auto page = pool.New();
  ASSERT_TRUE(page.ok());
  PageId junk = page->id();
  page->Release();
  auto idx = SwstIndex::Open(&pool, o, junk);
  EXPECT_FALSE(idx.ok());
  EXPECT_TRUE(idx.status().IsCorruption());
}

TEST_F(PersistenceTest, MemoRebuiltOnOpenPrunesLikeBefore) {
  const SwstOptions o = SmallOptions();
  PageId meta = kInvalidPageId;
  Random rng(22);
  {
    auto pager = Pager::OpenFile(path_.string(), true);
    ASSERT_TRUE(pager.ok());
    BufferPool pool(pager->get(), 512);
    auto idx = SwstIndex::Create(&pool, o);
    ASSERT_TRUE(idx.ok());
    // Cluster data in one corner so memo pruning is observable.
    for (int i = 0; i < 500; ++i) {
      ASSERT_OK((*idx)->Insert(MakeEntry(i, rng.UniformDouble(0, 200),
                                         rng.UniformDouble(0, 200), i / 2,
                                         1 + rng.Uniform(200))));
    }
    ASSERT_OK((*idx)->Save(&meta));
  }
  auto pager = Pager::OpenFile(path_.string(), false);
  ASSERT_TRUE(pager.ok());
  BufferPool pool(pager->get(), 512);
  auto idx = SwstIndex::Open(&pool, o, meta);
  ASSERT_OK(idx.status());
  // A query over the empty corner is answered without touching any tree.
  QueryStats stats;
  const TimeInterval win = (*idx)->QueriablePeriod();
  auto r = (*idx)->IntervalQuery(Rect{{800, 800}, {999, 999}},
                                 {win.lo, win.hi}, {}, &stats);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->empty());
  EXPECT_EQ(stats.candidates, 0u);
}

// Trees hold closed entries only, and the memo has no d-slot for a
// current one. A tree that yields a current entry on Open is corrupt: the
// memo rebuild must say so, naming the cell, slot and root page, instead
// of writing past the column.
TEST_F(PersistenceTest, OpenRejectsCurrentEntryInTree) {
  const SwstOptions o = SmallOptions();
  auto pager = Pager::OpenMemory();
  BufferPool pool(pager.get(), 512);
  PageId meta = kInvalidPageId;
  // v1 leaves keep records raw on the page, so one can be patched.
  btree_internal::SetDefaultLeafEncoding(btree_internal::LeafEncoding::kV1);
  {
    auto idx = SwstIndex::Create(&pool, o);
    ASSERT_OK(idx.status());
    for (int i = 0; i < 20; ++i) {
      ASSERT_OK((*idx)->Insert(MakeEntry(i, 10 + i, 10, 10 + i, 5)));
    }
    ASSERT_OK((*idx)->Save(&meta));
  }
  btree_internal::SetDefaultLeafEncoding(btree_internal::LeafEncoding::kV2);

  // Twenty entries of one cell and epoch: a single-leaf tree, so the leaf
  // is the root of cell 0's slot-0 tree.
  PageId leaf = kInvalidPageId;
  for (PageId id = kInvalidPageId + 1; id < pager->page_count(); ++id) {
    auto page = pool.Fetch(id);
    ASSERT_OK(page.status());
    auto* node = page->As<btree_internal::LeafNode>();
    if (node->header.type != btree_internal::kLeafType ||
        node->header.count != 20) {
      continue;
    }
    node->records[3].entry.duration = kUnknownDuration;
    page->MarkDirty();
    leaf = id;
    break;
  }
  ASSERT_NE(leaf, kInvalidPageId);

  auto idx = SwstIndex::Open(&pool, o, meta);
  ASSERT_FALSE(idx.ok());
  EXPECT_TRUE(idx.status().IsCorruption());
  const std::string msg = idx.status().ToString();
  EXPECT_NE(msg.find("cell 0 slot 0 (root page " + std::to_string(leaf) + ")"),
            std::string::npos)
      << msg;
}

}  // namespace
}  // namespace swst
