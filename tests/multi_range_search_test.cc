#include <gtest/gtest.h>

#include <set>
#include <utility>
#include <vector>

#include "btree/btree.h"
#include "btree/leaf_codec.h"
#include "common/random.h"
#include "tests/test_util.h"

namespace swst {
namespace {

class MultiRangeSearchTest : public PoolTest {
 protected:
  BTree MakeFilled(int n, uint64_t key_range, uint64_t seed = 11) {
    auto tree = BTree::Create(pool());
    EXPECT_TRUE(tree.ok());
    BTree t = std::move(*tree);
    Random rng(seed);
    for (int i = 0; i < n; ++i) {
      uint64_t key = rng.Uniform(key_range);
      EXPECT_OK(t.Insert(key, MakeEntry(static_cast<ObjectId>(i), 0, 0,
                                        static_cast<Timestamp>(i), 1)));
      inserted_.emplace_back(key, static_cast<ObjectId>(i));
    }
    return t;
  }

  std::multiset<ObjectId> OracleSearch(const std::vector<KeyRange>& ranges) {
    std::multiset<ObjectId> out;
    for (const auto& [key, oid] : inserted_) {
      for (const KeyRange& r : ranges) {
        if (key >= r.lo && key <= r.hi) out.insert(oid);
      }
    }
    return out;
  }

  std::vector<std::pair<uint64_t, ObjectId>> inserted_;
};

std::vector<KeyRange> RandomDisjointRanges(Random* rng, int count,
                                           uint64_t key_range) {
  std::vector<KeyRange> ranges;
  uint64_t cursor = 0;
  for (int i = 0; i < count; ++i) {
    uint64_t gap = 1 + rng->Uniform(key_range / (count * 2) + 1);
    uint64_t width = rng->Uniform(key_range / (count * 2) + 1);
    uint64_t lo = cursor + gap;
    uint64_t hi = lo + width;
    if (hi >= key_range) break;
    ranges.push_back(KeyRange{lo, hi});
    cursor = hi + 1;
  }
  return ranges;
}

TEST_F(MultiRangeSearchTest, MatchesOracleOnRandomRangeSets) {
  BTree t = MakeFilled(20000, 100000);
  Random rng(5);
  for (int trial = 0; trial < 50; ++trial) {
    auto ranges = RandomDisjointRanges(&rng, 1 + trial % 12, 100000);
    if (ranges.empty()) continue;
    std::multiset<ObjectId> got;
    ASSERT_OK(t.SearchRanges(ranges, [&](const BTreeRecord& r) {
      got.insert(r.entry.oid);
      return true;
    }));
    ASSERT_EQ(got, OracleSearch(ranges)) << "trial " << trial;
  }
}

TEST_F(MultiRangeSearchTest, AgreesWithNaiveSearch) {
  BTree t = MakeFilled(20000, 50000);
  Random rng(6);
  for (int trial = 0; trial < 30; ++trial) {
    auto ranges = RandomDisjointRanges(&rng, 8, 50000);
    if (ranges.empty()) continue;
    std::multiset<ObjectId> fast, naive;
    ASSERT_OK(t.SearchRanges(ranges, [&](const BTreeRecord& r) {
      fast.insert(r.entry.oid);
      return true;
    }));
    ASSERT_OK(t.SearchRangesNaive(ranges, [&](const BTreeRecord& r) {
      naive.insert(r.entry.oid);
      return true;
    }));
    ASSERT_EQ(fast, naive);
  }
}

TEST_F(MultiRangeSearchTest, NeverFetchesMoreNodesThanNaive) {
  BTree t = MakeFilled(50000, 200000);
  Random rng(7);
  for (int trial = 0; trial < 20; ++trial) {
    auto ranges = RandomDisjointRanges(&rng, 10, 200000);
    if (ranges.size() < 2) continue;
    uint64_t before = pool()->stats().logical_reads;
    ASSERT_OK(t.SearchRanges(ranges, [](const BTreeRecord&) { return true; }));
    const uint64_t fast_reads = pool()->stats().logical_reads - before;

    before = pool()->stats().logical_reads;
    ASSERT_OK(
        t.SearchRangesNaive(ranges, [](const BTreeRecord&) { return true; }));
    const uint64_t naive_reads = pool()->stats().logical_reads - before;
    EXPECT_LE(fast_reads, naive_reads) << "trial " << trial;
  }
}

TEST_F(MultiRangeSearchTest, NodeAccessesBoundedByDistinctNodes) {
  // The paper's guarantee: a node is never accessed more than once per
  // multi-range search. With R adjacent ranges the cost must not exceed
  // (tree height) + (all leaves) + (all internals), and in particular must
  // be far below R * height for adjacent ranges.
  BTree t = MakeFilled(50000, 50000);
  std::vector<KeyRange> ranges;
  for (uint64_t k = 0; k < 50000; k += 100) {
    ranges.push_back(KeyRange{k, k + 98});
  }
  const uint64_t before = pool()->stats().logical_reads;
  ASSERT_OK(t.SearchRanges(ranges, [](const BTreeRecord&) { return true; }));
  const uint64_t reads = pool()->stats().logical_reads - before;
  const uint64_t total_pages = pager_->live_page_count();
  EXPECT_LE(reads, total_pages);
}

TEST_F(MultiRangeSearchTest, EmptyRangeListIsNoop) {
  BTree t = MakeFilled(100, 1000);
  int n = 0;
  ASSERT_OK(t.SearchRanges({}, [&](const BTreeRecord&) {
    n++;
    return true;
  }));
  EXPECT_EQ(n, 0);
}

TEST_F(MultiRangeSearchTest, SingleRangeSpanningWholeTree) {
  BTree t = MakeFilled(5000, 1000);
  std::multiset<ObjectId> got;
  ASSERT_OK(t.SearchRanges({KeyRange{0, UINT64_MAX}},
                           [&](const BTreeRecord& r) {
                             got.insert(r.entry.oid);
                             return true;
                           }));
  EXPECT_EQ(got.size(), 5000u);
}

TEST_F(MultiRangeSearchTest, EarlyTermination) {
  BTree t = MakeFilled(5000, 1000);
  int n = 0;
  ASSERT_OK(t.SearchRanges({KeyRange{0, UINT64_MAX}},
                           [&](const BTreeRecord&) {
                             n++;
                             return n < 7;
                           }));
  EXPECT_EQ(n, 7);
}

// The leaf level scans each leaf once against its range slice. On v1 and
// v2 trees over the same records, SearchRanges yields the same sequence
// as one descent per range (SearchRangesNaive), in key order, and a
// callback stop after k records yields exactly the first k.
TEST_F(MultiRangeSearchTest, LeafScanMatchesNaiveOnBothEncodingsAndStops) {
  using btree_internal::LeafEncoding;
  using Seq = std::vector<std::pair<uint64_t, ObjectId>>;
  for (LeafEncoding enc : {LeafEncoding::kV1, LeafEncoding::kV2}) {
    btree_internal::SetDefaultLeafEncoding(enc);
    inserted_.clear();
    BTree t = MakeFilled(8000, 40000, /*seed=*/17);
    btree_internal::SetDefaultLeafEncoding(LeafEncoding::kV2);
    Random rng(18);
    for (int trial = 0; trial < 40; ++trial) {
      auto ranges = RandomDisjointRanges(&rng, 1 + trial % 10, 40000);
      if (ranges.empty()) continue;
      Seq fused, naive;
      ASSERT_OK(t.SearchRanges(ranges, [&](const BTreeRecord& r) {
        fused.emplace_back(r.key, r.entry.oid);
        return true;
      }));
      ASSERT_OK(t.SearchRangesNaive(ranges, [&](const BTreeRecord& r) {
        naive.emplace_back(r.key, r.entry.oid);
        return true;
      }));
      ASSERT_EQ(fused, naive) << "trial " << trial;
      if (fused.empty()) continue;

      const size_t k = 1 + rng.Uniform(fused.size());
      Seq stopped;
      ASSERT_OK(t.SearchRanges(ranges, [&](const BTreeRecord& r) {
        stopped.emplace_back(r.key, r.entry.oid);
        return stopped.size() < k;
      }));
      ASSERT_EQ(stopped, Seq(fused.begin(), fused.begin() + k));
    }
  }
}

}  // namespace
}  // namespace swst
