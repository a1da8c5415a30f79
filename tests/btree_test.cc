#include "btree/btree.h"

#include <gtest/gtest.h>

#include <vector>

#include "tests/test_util.h"

namespace swst {
namespace {

class BTreeTest : public PoolTest {
 protected:
  BTree Make() {
    auto t = BTree::Create(pool());
    EXPECT_TRUE(t.ok());
    return std::move(*t);
  }
};

TEST_F(BTreeTest, EmptyTreeScansNothing) {
  BTree t = Make();
  int n = 0;
  ASSERT_OK(t.Scan(0, UINT64_MAX, [&n](const BTreeRecord&) {
    n++;
    return true;
  }));
  EXPECT_EQ(n, 0);
  auto count = t.CountEntries();
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, 0u);
}

TEST_F(BTreeTest, InsertAndScanSingle) {
  BTree t = Make();
  ASSERT_OK(t.Insert(42, MakeEntry(1, 2, 3, 4, 5)));
  std::vector<BTreeRecord> got;
  ASSERT_OK(t.Scan(0, UINT64_MAX, [&](const BTreeRecord& r) {
    got.push_back(r);
    return true;
  }));
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].key, 42u);
  EXPECT_EQ(got[0].entry, MakeEntry(1, 2, 3, 4, 5));
}

TEST_F(BTreeTest, ScanRespectsBoundsInclusive) {
  BTree t = Make();
  for (uint64_t k = 0; k < 100; ++k) {
    ASSERT_OK(t.Insert(k, MakeEntry(k, 0, 0, k, 1)));
  }
  std::vector<uint64_t> keys;
  ASSERT_OK(t.Scan(10, 20, [&](const BTreeRecord& r) {
    keys.push_back(r.key);
    return true;
  }));
  ASSERT_EQ(keys.size(), 11u);
  EXPECT_EQ(keys.front(), 10u);
  EXPECT_EQ(keys.back(), 20u);
}

TEST_F(BTreeTest, SplitsKeepAllRecordsSorted) {
  BTree t = Make();
  const int n = BTree::LeafCapacity() * 10;  // Forces several splits.
  for (int i = n - 1; i >= 0; --i) {
    ASSERT_OK(t.Insert(static_cast<uint64_t>(i),
                       MakeEntry(static_cast<ObjectId>(i), 0, 0, 0, 1)));
  }
  ASSERT_OK(t.Validate());
  uint64_t prev = 0;
  uint64_t count = 0;
  ASSERT_OK(t.Scan(0, UINT64_MAX, [&](const BTreeRecord& r) {
    EXPECT_GE(r.key, prev);
    prev = r.key;
    count++;
    return true;
  }));
  EXPECT_EQ(count, static_cast<uint64_t>(n));
  auto height = t.Height();
  ASSERT_TRUE(height.ok());
  EXPECT_GE(*height, 2);
}

TEST_F(BTreeTest, DuplicateKeysAllStored) {
  BTree t = Make();
  const int dups = BTree::LeafCapacity() * 3;
  for (int i = 0; i < dups; ++i) {
    ASSERT_OK(t.Insert(7, MakeEntry(static_cast<ObjectId>(i), 0, 0,
                                    static_cast<Timestamp>(i), 1)));
  }
  ASSERT_OK(t.Insert(6, MakeEntry(9999, 0, 0, 0, 1)));
  ASSERT_OK(t.Insert(8, MakeEntry(9998, 0, 0, 0, 1)));
  ASSERT_OK(t.Validate());
  int n = 0;
  ASSERT_OK(t.Scan(7, 7, [&](const BTreeRecord& r) {
    EXPECT_EQ(r.key, 7u);
    n++;
    return true;
  }));
  EXPECT_EQ(n, dups);
}

TEST_F(BTreeTest, DeleteSpecificDuplicate) {
  BTree t = Make();
  for (int i = 0; i < 10; ++i) {
    ASSERT_OK(t.Insert(7, MakeEntry(static_cast<ObjectId>(i), 0, 0,
                                    static_cast<Timestamp>(i * 10), 1)));
  }
  ASSERT_OK(t.Delete(7, /*oid=*/4, /*start=*/40));
  int n = 0;
  ASSERT_OK(t.Scan(7, 7, [&](const BTreeRecord& r) {
    EXPECT_NE(r.entry.oid, 4u);
    n++;
    return true;
  }));
  EXPECT_EQ(n, 9);
}

TEST_F(BTreeTest, DeleteMissingReturnsNotFound) {
  BTree t = Make();
  ASSERT_OK(t.Insert(1, MakeEntry(1, 0, 0, 0, 1)));
  EXPECT_TRUE(t.Delete(1, 1, 999).IsNotFound());
  EXPECT_TRUE(t.Delete(2, 1, 0).IsNotFound());
}

TEST_F(BTreeTest, DeleteEverythingCollapsesTree) {
  BTree t = Make();
  const int n = BTree::LeafCapacity() * 6;
  for (int i = 0; i < n; ++i) {
    ASSERT_OK(t.Insert(static_cast<uint64_t>(i),
                       MakeEntry(static_cast<ObjectId>(i), 0, 0,
                                 static_cast<Timestamp>(i), 1)));
  }
  for (int i = 0; i < n; ++i) {
    ASSERT_OK(t.Delete(static_cast<uint64_t>(i), static_cast<ObjectId>(i),
                       static_cast<Timestamp>(i)));
    if (i % 97 == 0) {
      ASSERT_OK(t.Validate());
    }
  }
  auto count = t.CountEntries();
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, 0u);
  auto height = t.Height();
  ASSERT_TRUE(height.ok());
  EXPECT_EQ(*height, 1);
}

TEST_F(BTreeTest, DropReturnsAllPages) {
  const uint64_t live_before = pager_->live_page_count();
  BTree t = Make();
  const int n = BTree::LeafCapacity() * 8;
  for (int i = 0; i < n; ++i) {
    ASSERT_OK(t.Insert(static_cast<uint64_t>(i),
                       MakeEntry(static_cast<ObjectId>(i), 0, 0, 0, 1)));
  }
  EXPECT_GT(pager_->live_page_count(), live_before + 5);
  ASSERT_OK(t.Drop());
  EXPECT_EQ(pager_->live_page_count(), live_before);
}

TEST_F(BTreeTest, DropCostIsPagesNotEntries) {
  // The whole point of SWST's window maintenance: dropping a tree touches
  // each page once, regardless of entry count.
  BTree t = Make();
  const int n = BTree::LeafCapacity() * 8;
  for (int i = 0; i < n; ++i) {
    ASSERT_OK(t.Insert(static_cast<uint64_t>(i),
                       MakeEntry(static_cast<ObjectId>(i), 0, 0, 0, 1)));
  }
  const uint64_t pages = pager_->live_page_count();
  const uint64_t reads_before = pool()->stats().logical_reads;
  ASSERT_OK(t.Drop());
  const uint64_t reads = pool()->stats().logical_reads - reads_before;
  EXPECT_LE(reads, pages + 2);
}

TEST_F(BTreeTest, AttachSeesExistingData) {
  BTree t = Make();
  ASSERT_OK(t.Insert(5, MakeEntry(1, 0, 0, 0, 1)));
  BTree t2 = BTree::Attach(pool(), t.root());
  int n = 0;
  ASSERT_OK(t2.Scan(0, UINT64_MAX, [&](const BTreeRecord&) {
    n++;
    return true;
  }));
  EXPECT_EQ(n, 1);
}

TEST_F(BTreeTest, EarlyScanTermination) {
  BTree t = Make();
  for (uint64_t k = 0; k < 1000; ++k) {
    ASSERT_OK(t.Insert(k, MakeEntry(k, 0, 0, 0, 1)));
  }
  int n = 0;
  ASSERT_OK(t.Scan(0, UINT64_MAX, [&](const BTreeRecord&) {
    n++;
    return n < 5;
  }));
  EXPECT_EQ(n, 5);
}

}  // namespace
}  // namespace swst
