#include "swst/is_present_memo.h"

#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "swst/spatial_grid.h"

namespace swst {
namespace {

/// `n` spatial cells, each spanning [0, 1000]^2 (the lattice anchor).
std::vector<Rect> Cells(uint32_t n) {
  return std::vector<Rect>(n, Rect{{0, 0}, {1000, 1000}});
}

/// Every cell rectangle of `grid`, in cell order (what SwstIndex passes).
std::vector<Rect> GridCells(const SpatialGrid& grid, uint32_t n) {
  std::vector<Rect> rects;
  for (uint32_t c = 0; c < n; ++c) rects.push_back(grid.CellRect(c));
  return rects;
}

TEST(IsPresentMemoTest, StartsEmpty) {
  IsPresentMemo memo(Cells(4), 10, 5);
  for (uint32_t c = 0; c < 4; ++c) {
    for (int slot = 0; slot < 2; ++slot) {
      for (uint32_t col = 0; col < 10; ++col) {
        for (uint32_t dp = 0; dp < 5; ++dp) {
          EXPECT_TRUE(memo.At(c, slot, col, dp).empty());
          EXPECT_FALSE(memo.MayContain(c, slot, col, dp,
                                       Rect{{-1e9, -1e9}, {1e9, 1e9}}));
        }
      }
    }
  }
}

TEST(IsPresentMemoTest, AddTracksCountAndMbr) {
  IsPresentMemo memo(Cells(1), 4, 4);
  memo.Add(0, 0, 1, 2, {10, 20});
  memo.Add(0, 0, 1, 2, {30, 5});
  const auto& s = memo.At(0, 0, 1, 2);
  EXPECT_EQ(s.count, 2u);
  EXPECT_TRUE(memo.MayContain(0, 0, 1, 2, Rect{{9, 4}, {31, 21}}));
  EXPECT_TRUE(memo.MayContain(0, 0, 1, 2, Rect{{29, 4}, {31, 6}}));
  EXPECT_FALSE(memo.MayContain(0, 0, 1, 2, Rect{{100, 100}, {200, 200}}));
  // Other cells untouched.
  EXPECT_TRUE(memo.At(0, 0, 1, 3).empty());
  EXPECT_TRUE(memo.At(0, 1, 1, 2).empty());
}

TEST(IsPresentMemoTest, MbrIntersectionIsInclusive) {
  IsPresentMemo memo(Cells(1), 2, 2);
  memo.Add(0, 0, 0, 0, {50, 50});
  EXPECT_TRUE(memo.MayContain(0, 0, 0, 0, Rect{{50, 50}, {60, 60}}));
  EXPECT_TRUE(memo.MayContain(0, 0, 0, 0, Rect{{40, 40}, {50, 50}}));
  EXPECT_FALSE(memo.MayContain(0, 0, 0, 0, Rect{{50.5, 50.5}, {60, 60}}));
}

TEST(IsPresentMemoTest, RemoveResetsWhenCellEmpties) {
  IsPresentMemo memo(Cells(1), 2, 2);
  memo.Add(0, 1, 1, 1, {10, 10});
  memo.Add(0, 1, 1, 1, {90, 90});
  memo.Remove(0, 1, 1, 1);
  // One entry left: the MBR stays conservative (still covers both points).
  EXPECT_EQ(memo.At(0, 1, 1, 1).count, 1u);
  EXPECT_TRUE(memo.MayContain(0, 1, 1, 1, Rect{{0, 0}, {20, 20}}));
  memo.Remove(0, 1, 1, 1);
  EXPECT_TRUE(memo.At(0, 1, 1, 1).empty());
  EXPECT_FALSE(memo.MayContain(0, 1, 1, 1, Rect{{0, 0}, {100, 100}}));
  // Fresh adds start a new, tight MBR.
  memo.Add(0, 1, 1, 1, {5, 5});
  EXPECT_FALSE(memo.MayContain(0, 1, 1, 1, Rect{{50, 50}, {100, 100}}));
}

TEST(IsPresentMemoTest, ResetSlotClearsOnlyThatSlot) {
  IsPresentMemo memo(Cells(2), 3, 3);
  memo.Add(0, 0, 1, 1, {1, 1});
  memo.Add(0, 1, 1, 1, {2, 2});
  memo.Add(1, 0, 2, 2, {3, 3});
  memo.ResetSlot(0, 0);
  EXPECT_TRUE(memo.At(0, 0, 1, 1).empty());
  EXPECT_EQ(memo.At(0, 1, 1, 1).count, 1u);
  EXPECT_EQ(memo.At(1, 0, 2, 2).count, 1u);
}

TEST(IsPresentMemoTest, FloatRoundingStaysConservative) {
  IsPresentMemo memo(std::vector<Rect>{Rect{{0, 0}, {20000, 20000}}}, 1, 1);
  // A coordinate that falls between lattice steps: the stored MBR must
  // still contain it, even for a zero-extent query at the point itself.
  const double x = 10000.0000001;
  memo.Add(0, 0, 0, 0, {x, x});
  EXPECT_TRUE(memo.MayContain(0, 0, 0, 0, Rect{{x, x}, {x, x}}));
}

TEST(IsPresentMemoTest, MemoryUsageMatchesGeometry) {
  // Paper defaults: Dp = 20 closed-entry d-partitions, no reserved slot.
  IsPresentMemo memo(Cells(400), 201, 20);
  // 400 cells * 2 slots * 201 columns * 20 d-slots * 10-byte stats.
  EXPECT_EQ(sizeof(IsPresentMemo::CellStat), 10u);
  EXPECT_EQ(memo.MemoryUsage(), 400ull * 2 * 201 * 20 * 10);
  EXPECT_EQ(memo.MemoryUsage(), 32160000u);
}

TEST(IsPresentMemoTest, ReadColumnCopiesAndGatesOnVersion) {
  IsPresentMemo memo(Cells(1), 4, 5);
  memo.Add(0, 0, 1, 2, {10, 20}, /*ver=*/3);
  memo.Add(0, 0, 1, 4, {30, 40}, /*ver=*/5);

  std::vector<IsPresentMemo::CellStat> out(5);
  // Snapshot at or past the last writer version: trusted, exact copy.
  ASSERT_TRUE(memo.ReadColumn(0, 0, 1, /*snapshot_version=*/5, out.data()));
  EXPECT_TRUE(out[0].empty());
  EXPECT_EQ(out[2].count, 1u);
  EXPECT_EQ(out[4].count, 1u);
  EXPECT_EQ(out[2], memo.At(0, 0, 1, 2));

  // A column touched by a mutation newer than the reader's snapshot must
  // not be trusted (it may have shrunk relative to the snapshot's trees).
  EXPECT_FALSE(memo.ReadColumn(0, 0, 1, /*snapshot_version=*/4, out.data()));
  // Other columns are independent: column 2 was never written (ver 0).
  EXPECT_TRUE(memo.ReadColumn(0, 0, 2, /*snapshot_version=*/0, out.data()));
}

TEST(IsPresentMemoTest, TrimColumnMatchesManualTrim) {
  IsPresentMemo memo(Cells(1), 4, 6);
  // Column 1: entries at dp 2 and dp 4; dp 4 lies outside the probe rect.
  memo.Add(0, 0, 1, 2, {10, 20}, /*ver=*/1);
  memo.Add(0, 0, 1, 4, {500, 500}, /*ver=*/2);

  const Rect probe{{0, 0}, {100, 100}};
  uint32_t lo = 0, hi = 5;
  ASSERT_TRUE(memo.TrimColumn(0, 0, 1, /*snapshot_version=*/2,
                              memo.Quantize(0, probe), &lo, &hi));
  // Both ends trim to the single intersecting temporal cell.
  EXPECT_EQ(lo, 2u);
  EXPECT_EQ(hi, 2u);

  // Nothing intersects: the bounds cross, signalling a fully pruned column.
  lo = 0;
  hi = 5;
  ASSERT_TRUE(memo.TrimColumn(0, 0, 1, /*snapshot_version=*/2,
                              memo.Quantize(0, Rect{{900, 900}, {950, 950}}),
                              &lo, &hi));
  EXPECT_GT(lo, hi);

  // An untrusted read (column newer than the snapshot) leaves the caller's
  // bounds untouched so it can fall back to the unpruned range.
  lo = 0;
  hi = 5;
  EXPECT_FALSE(memo.TrimColumn(0, 0, 1, /*snapshot_version=*/1,
                               memo.Quantize(0, probe), &lo, &hi));
  EXPECT_EQ(lo, 0u);
  EXPECT_EQ(hi, 5u);

  // Starting bounds inside the column are respected (n_partial > 0): a
  // trim never widens the caller's range back over dp 2.
  lo = 3;
  hi = 5;
  ASSERT_TRUE(memo.TrimColumn(0, 0, 1, /*snapshot_version=*/2,
                              memo.Quantize(0, probe), &lo, &hi));
  EXPECT_GT(lo, hi);
}

// Quantization property: whenever a recorded point lies inside a query
// rectangle, neither MayContain (the rectangle as given) nor TrimColumn
// (the rectangle clipped to the cell, as SearchCell passes it) may prune
// its temporal cell. Points are drawn uniformly, snapped onto cell edges,
// and pinned to the domain's high edge; grids have awkward extents so cell
// rectangles are not exactly representable.
TEST(IsPresentMemoTest, QuantizedPruningNeverDropsAContainedPoint) {
  Random rng(20240611);
  const struct {
    Rect space;
    uint32_t nx, ny;
  } grids[] = {
      {Rect{{0, 0}, {10000, 10000}}, 20, 20},
      {Rect{{-123.4, 987.65}, {4321.1, 1000.05}}, 7, 3},
      {Rect{{0.1, 0.1}, {0.7, 0.3}}, 3, 9},
  };
  constexpr uint32_t kDSlots = 4;
  for (const auto& g : grids) {
    const SpatialGrid grid(g.space, g.nx, g.ny);
    const uint32_t n_cells = g.nx * g.ny;
    for (int round = 0; round < 40; ++round) {
      IsPresentMemo memo(GridCells(grid, n_cells), 1, kDSlots);
      std::vector<std::vector<Point>> added(n_cells * kDSlots);
      auto pick = [&]() -> Point {
        Point p{rng.UniformDouble(g.space.lo.x, g.space.hi.x),
                rng.UniformDouble(g.space.lo.y, g.space.hi.y)};
        const Rect cr = grid.CellRect(grid.CellOf(p));
        switch (rng.Uniform(6)) {
          case 0: p.x = cr.lo.x; break;
          case 1: p.x = cr.hi.x; break;
          case 2: p.y = cr.lo.y; break;
          case 3: p.y = cr.hi.y; break;
          case 4: p = g.space.hi; break;
          default: break;
        }
        p.x = std::min(p.x, g.space.hi.x);
        p.y = std::min(p.y, g.space.hi.y);
        return p;
      };
      for (int i = 0; i < 60; ++i) {
        const Point p = pick();
        const uint32_t cell = grid.CellOf(p);
        const uint32_t dp = static_cast<uint32_t>(rng.Uniform(kDSlots));
        memo.Add(cell, 0, 0, dp, p, /*ver=*/1);
        added[cell * kDSlots + dp].push_back(p);
      }
      for (uint32_t cell = 0; cell < n_cells; ++cell) {
        for (uint32_t dp = 0; dp < kDSlots; ++dp) {
          for (const Point& p : added[cell * kDSlots + dp]) {
            // A query rectangle around p: degenerate (the point itself) or
            // stretched by up to two cells in each direction.
            const double w = grid.cell_width(), h = grid.cell_height();
            Rect q{p, p};
            if (rng.Uniform(3) != 0) {
              q.lo.x -= rng.UniformDouble(0, 2 * w);
              q.lo.y -= rng.UniformDouble(0, 2 * h);
              q.hi.x += rng.UniformDouble(0, 2 * w);
              q.hi.y += rng.UniformDouble(0, 2 * h);
            }
            ASSERT_TRUE(memo.MayContain(cell, 0, 0, dp, q))
                << "pruned (" << p.x << ", " << p.y << ") in cell " << cell;
            for (const auto& co : grid.Overlapping(q)) {
              if (co.cell != cell || !co.overlap.Contains(p)) continue;
              uint32_t lo = dp, hi = dp;
              ASSERT_TRUE(memo.TrimColumn(cell, 0, 0, /*snapshot_version=*/1,
                                          memo.Quantize(cell, co.overlap),
                                          &lo, &hi));
              ASSERT_EQ(lo, dp) << "trimmed away (" << p.x << ", " << p.y
                                << ") in cell " << cell;
            }
          }
        }
      }
    }
  }
}

// The trim loops of SearchCell over a ReadColumn copy: the reference
// TrimColumn must reproduce.
std::pair<uint32_t, uint32_t> ReferenceTrim(
    const std::vector<IsPresentMemo::CellStat>& col,
    const IsPresentMemo::QRect& q, uint32_t lo, uint32_t hi) {
  auto hit = [&](uint32_t dp) {
    if (col[dp].empty()) return false;
    return col[dp].min_x <= q.hi_x && q.lo_x <= col[dp].max_x &&
           col[dp].min_y <= q.hi_y && q.lo_y <= col[dp].max_y;
  };
  while (lo <= hi && !hit(lo)) lo++;
  while (hi > lo && !hit(hi)) hi--;
  return {lo, hi};
}

// Random Add/AddN/Remove/ResetSlot sequences: after every step each
// column's exact count equals the sum of its d-slot counts, its MBR
// contains every non-empty d-slot's MBR, and TrimColumn agrees with the
// reference trim for random quantized overlaps and bounds.
TEST(IsPresentMemoTest, RandomOpsKeepColumnCountAndTrimExact) {
  constexpr uint32_t kCells = 3, kCols = 4, kDSlots = 6;
  IsPresentMemo memo(Cells(kCells), kCols, kDSlots);
  Random rng(20261016);
  uint64_t ver = 0;
  auto point = [&]() -> Point {
    return {rng.UniformDouble(0, 1000), rng.UniformDouble(0, 1000)};
  };
  for (int step = 0; step < 3000; ++step) {
    const uint32_t cell = static_cast<uint32_t>(rng.Uniform(kCells));
    const int slot = static_cast<int>(rng.Uniform(2));
    const uint32_t col = static_cast<uint32_t>(rng.Uniform(kCols));
    const uint32_t dp = static_cast<uint32_t>(rng.Uniform(kDSlots));
    ++ver;
    switch (rng.Uniform(10)) {
      case 0:
        memo.ResetSlot(cell, slot, ver);
        break;
      case 1:
      case 2: {
        std::vector<Point> pts(1 + rng.Uniform(4));
        for (Point& p : pts) p = point();
        memo.AddN(cell, slot, col, dp, pts.data(), pts.size(), ver);
        break;
      }
      case 3:
      case 4:
      case 5:
        memo.Add(cell, slot, col, dp, point(), ver);
        break;
      default:
        if (!memo.At(cell, slot, col, dp).empty()) {
          memo.Remove(cell, slot, col, dp, ver);
        }
        break;
    }
    for (uint32_t c = 0; c < kCells; ++c) {
      for (int s = 0; s < 2; ++s) {
        for (uint32_t k = 0; k < kCols; ++k) {
          std::vector<IsPresentMemo::CellStat> copy(kDSlots);
          ASSERT_TRUE(memo.ReadColumn(c, s, k, ver, copy.data()));
          uint32_t sum = 0;
          for (const auto& st : copy) sum += st.count;
          ASSERT_EQ(memo.ColumnCount(c, s, k), sum) << "step " << step;
          const IsPresentMemo::QRect mbr = memo.ColumnMbr(c, s, k);
          for (const auto& st : copy) {
            if (st.empty()) continue;
            ASSERT_TRUE(mbr.lo_x <= st.min_x && mbr.lo_y <= st.min_y &&
                        st.max_x <= mbr.hi_x && st.max_y <= mbr.hi_y)
                << "column MBR misses a d-slot at step " << step;
          }

          const double x0 = rng.UniformDouble(0, 1000);
          const double y0 = rng.UniformDouble(0, 1000);
          const IsPresentMemo::QRect q = memo.Quantize(
              c, Rect{{x0, y0},
                      {x0 + rng.UniformDouble(0, 600),
                       y0 + rng.UniformDouble(0, 600)}});
          uint32_t hi = static_cast<uint32_t>(rng.Uniform(kDSlots));
          uint32_t lo = static_cast<uint32_t>(rng.Uniform(hi + 1));
          const auto want = ReferenceTrim(copy, q, lo, hi);
          ASSERT_TRUE(memo.TrimColumn(c, s, k, ver, q, &lo, &hi));
          ASSERT_EQ(lo, want.first) << "step " << step;
          ASSERT_EQ(hi, want.second) << "step " << step;
        }
      }
    }
  }
}

// A temporal cell's count saturates at 0xFFFF and sticks there through
// removes (pruning stays conservative), while the column's exact count
// still lets a truly emptied column be pruned whole. ResetSlot clears it.
TEST(IsPresentMemoTest, SaturatedCountSticksUntilResetSlot) {
  IsPresentMemo memo(Cells(1), 2, 3);
  const std::vector<Point> pts(70000, Point{100, 100});
  memo.AddN(0, 0, 1, 2, pts.data(), pts.size(), /*ver=*/1);
  EXPECT_EQ(memo.At(0, 0, 1, 2).count, IsPresentMemo::kSaturatedCount);
  EXPECT_EQ(memo.ColumnCount(0, 0, 1), 70000u);

  // Adds on top of a saturated (or nearly saturated) count stay there.
  memo.AddN(0, 0, 1, 1, pts.data(), 0xFFFE, /*ver=*/2);
  memo.AddN(0, 0, 1, 1, pts.data(), 5, /*ver=*/2);
  EXPECT_EQ(memo.At(0, 0, 1, 1).count, IsPresentMemo::kSaturatedCount);
  memo.Add(0, 0, 1, 1, {200, 200}, /*ver=*/2);
  EXPECT_EQ(memo.At(0, 0, 1, 1).count, IsPresentMemo::kSaturatedCount);
  EXPECT_EQ(memo.ColumnCount(0, 0, 1), 70000u + 0xFFFE + 5 + 1);
  memo.ResetSlot(0, 0, /*ver=*/3);
  memo.AddN(0, 0, 1, 2, pts.data(), pts.size(), /*ver=*/3);

  const IsPresentMemo::QRect probe = memo.Quantize(0, Rect{{0, 0}, {150, 150}});
  for (int i = 0; i < 69999; ++i) memo.Remove(0, 0, 1, 2, /*ver=*/4);
  EXPECT_EQ(memo.At(0, 0, 1, 2).count, IsPresentMemo::kSaturatedCount);
  EXPECT_EQ(memo.ColumnCount(0, 0, 1), 1u);
  EXPECT_TRUE(memo.MayContain(0, 0, 1, 2, Rect{{0, 0}, {150, 150}}));
  uint32_t lo = 0, hi = 2;
  ASSERT_TRUE(memo.TrimColumn(0, 0, 1, 4, probe, &lo, &hi));
  EXPECT_EQ(lo, 2u);
  EXPECT_EQ(hi, 2u);

  // The last remove empties the column: the slot still reads saturated,
  // but the column count prunes the whole column.
  memo.Remove(0, 0, 1, 2, /*ver=*/5);
  EXPECT_EQ(memo.At(0, 0, 1, 2).count, IsPresentMemo::kSaturatedCount);
  EXPECT_EQ(memo.ColumnCount(0, 0, 1), 0u);
  lo = 0;
  hi = 2;
  ASSERT_TRUE(memo.TrimColumn(0, 0, 1, 5, probe, &lo, &hi));
  EXPECT_EQ(lo, 3u);
  EXPECT_EQ(hi, 2u);

  memo.ResetSlot(0, 0, /*ver=*/6);
  EXPECT_TRUE(memo.At(0, 0, 1, 2).empty());
  EXPECT_EQ(memo.ColumnCount(0, 0, 1), 0u);
}

}  // namespace
}  // namespace swst
