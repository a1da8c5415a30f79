#include "swst/overlap.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "common/random.h"
#include "tests/test_util.h"

namespace swst {
namespace {

SwstOptions SmallOptions() {
  SwstOptions o;
  o.window_size = 100;
  o.slide = 10;          // Sp = ceil(109/10) = 11, epoch = 110.
  o.max_duration = 40;
  o.duration_interval = 10;  // Dp = 4: closed d-partitions 0..3.
  return o;
}

/// Brute-force classification of closed temporal cell (m, dp) against
/// query q: enumerates every (s, d) the cell can hold and checks the
/// overlap predicate s <= q.hi && s + d > q.lo.
OverlapKind BruteClassify(const SwstOptions& o, uint64_t m, uint32_t dp,
                          const TimeInterval& q) {
  const Timestamp s1 = m * o.slide;
  const Timestamp s2 = (m + 1) * o.slide - 1;
  const Duration d_lo = dp * o.duration_interval + 1;
  const Duration d_hi = std::min<Duration>((dp + 1) * o.duration_interval,
                                           o.max_duration);
  bool any = false, all = true;
  for (Timestamp s = s1; s <= s2; ++s) {
    for (Duration d = d_lo; d <= d_hi; ++d) {
      const bool hit = (s <= q.hi) && (s + d > q.lo);
      any |= hit;
      all &= hit;
    }
  }
  if (!any) return OverlapKind::kNone;
  return all ? OverlapKind::kFull : OverlapKind::kPartial;
}

TEST(OverlapClassifyTest, MatchesBruteForceExhaustively) {
  SwstOptions o = SmallOptions();
  ASSERT_OK(o.Validate());
  TemporalOverlapComputer comp(o);
  // All cells in two epochs x all query intervals over a small horizon.
  for (uint64_t m = 0; m < 22; ++m) {
    for (uint32_t dp = 0; dp < o.d_partitions(); ++dp) {
      for (Timestamp lo = 0; lo < 240; lo += 7) {
        for (Timestamp hi = lo; hi < 260; hi += 13) {
          const TimeInterval q{lo, hi};
          ASSERT_EQ(comp.Classify(m, dp, q), BruteClassify(o, m, dp, q))
              << "m=" << m << " dp=" << dp << " q=[" << lo << "," << hi
              << "]";
        }
      }
    }
  }
}

TEST(OverlapClassifyTest, TimesliceMatchesBruteForce) {
  SwstOptions o = SmallOptions();
  TemporalOverlapComputer comp(o);
  for (uint64_t m = 0; m < 15; ++m) {
    for (uint32_t dp = 0; dp < o.d_partitions(); ++dp) {
      for (Timestamp t = 0; t < 220; ++t) {
        const TimeInterval q{t, t};
        ASSERT_EQ(comp.Classify(m, dp, q), BruteClassify(o, m, dp, q))
            << "m=" << m << " dp=" << dp << " t=" << t;
      }
    }
  }
}

TEST(OverlapComputeTest, ColumnsAscendingAndWithinWindow) {
  SwstOptions o = SmallOptions();
  TemporalOverlapComputer comp(o);
  const TimeInterval win{40, 180};
  const TimeInterval q{100, 150};
  auto cols = comp.Compute(q, win);
  ASSERT_FALSE(cols.empty());
  for (size_t i = 0; i < cols.size(); ++i) {
    if (i > 0) {
      EXPECT_GT(cols[i].raw_column, cols[i - 1].raw_column);
    }
    EXPECT_GE(cols[i].raw_column, win.lo / o.slide);
    EXPECT_LE(cols[i].raw_column, q.hi / o.slide);
    EXPECT_LE(cols[i].n_partial, cols[i].n_full);
  }
}

TEST(OverlapComputeTest, TripletsMatchPerCellClassification) {
  SwstOptions o = SmallOptions();
  TemporalOverlapComputer comp(o);
  Random rng(31);
  const uint32_t dp_n = o.d_partitions();
  for (int trial = 0; trial < 300; ++trial) {
    const Timestamp wlo = rng.Uniform(150);
    const Timestamp whi = wlo + rng.Uniform(120);
    Timestamp qlo = wlo + rng.Uniform(whi - wlo + 1);
    Timestamp qhi = qlo + rng.Uniform(whi - qlo + 1);
    const TimeInterval win{wlo, whi}, q{qlo, qhi};
    auto cols = comp.Compute(q, win);
    // Reconstruct the classification per column from the triplet and check
    // against Classify for every closed d-partition; verify every planned
    // column overlaps, none lies below the reach of a closed entry, and
    // omitted columns have no overlap.
    const uint64_t m_reach = qlo > o.max_duration
                                 ? (qlo - o.max_duration) / o.slide
                                 : 0;
    std::set<uint64_t> present;
    for (const auto& col : cols) {
      present.insert(col.raw_column);
      ASSERT_GE(col.raw_column, m_reach);
      ASSERT_LT(col.n_partial, dp_n) << "m=" << col.raw_column;
      ASSERT_NE(comp.Classify(col.raw_column, col.n_partial, q),
                OverlapKind::kNone)
          << "m=" << col.raw_column;
      for (uint32_t dp = 0; dp < dp_n; ++dp) {
        OverlapKind expected = comp.Classify(col.raw_column, dp, q);
        OverlapKind from_triplet =
            dp >= col.n_full ? OverlapKind::kFull
            : dp >= col.n_partial ? OverlapKind::kPartial
                                  : OverlapKind::kNone;
        ASSERT_EQ(from_triplet, expected)
            << "m=" << col.raw_column << " dp=" << dp << " q=[" << qlo << ","
            << qhi << "]";
      }
    }
    for (uint64_t m = wlo / o.slide; m <= whi / o.slide; ++m) {
      if (present.count(m)) continue;
      for (uint32_t dp = 0; dp < dp_n; ++dp) {
        ASSERT_EQ(comp.Classify(m, dp, q), OverlapKind::kNone)
            << "omitted column " << m << " dp=" << dp;
      }
    }
  }
}

TEST(OverlapComputeTest, InWindowFlagMarksBoundaryColumns) {
  SwstOptions o = SmallOptions();
  TemporalOverlapComputer comp(o);
  // Window starting mid-column: the first column straddles the boundary.
  const TimeInterval win{45, 170};
  const TimeInterval q{45, 170};
  auto cols = comp.Compute(q, win);
  ASSERT_FALSE(cols.empty());
  EXPECT_EQ(cols.front().raw_column, 4u);  // Covers [40, 50).
  EXPECT_FALSE(cols.front().in_window);
  // A fully interior column is in-window.
  bool found_interior = false;
  for (const auto& col : cols) {
    if (col.raw_column == 6) {
      EXPECT_TRUE(col.in_window);
      found_interior = true;
    }
  }
  EXPECT_TRUE(found_interior);
}

TEST(OverlapComputeTest, EmptyQueryYieldsNothing) {
  SwstOptions o = SmallOptions();
  TemporalOverlapComputer comp(o);
  EXPECT_TRUE(comp.Compute({50, 40}, {0, 100}).empty());
}

}  // namespace
}  // namespace swst
