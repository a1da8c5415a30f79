#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <queue>
#include <string>
#include <vector>

#include "swst/swst_index.h"

namespace swst {

namespace {

double DistanceSquared(const Point& a, const Point& b) {
  const double dx = a.x - b.x;
  const double dy = a.y - b.y;
  return dx * dx + dy * dy;
}

// Squared distance from `p` to rectangle `r` (0 when inside).
double RectDistanceSquared(const Point& p, const Rect& r) {
  const double dx = std::max({r.lo.x - p.x, 0.0, p.x - r.hi.x});
  const double dy = std::max({r.lo.y - p.y, 0.0, p.y - r.hi.y});
  return dx * dx + dy * dy;
}

struct Candidate {
  double dist2;
  Entry entry;
  bool operator<(const Candidate& o) const { return dist2 < o.dist2; }
};

}  // namespace

Result<std::vector<Entry>> SwstIndex::Knn(const Point& center, size_t k,
                                          const TimeInterval& interval,
                                          const QueryOptions& opts,
                                          QueryStats* stats) {
  Result<std::vector<Entry>> result = std::vector<Entry>{};
  SWST_RETURN_IF_ERROR(ObserveQuery(
      "knn", opts, stats,
      [&](const QueryOptions& o, QueryStats* s) {
        result = KnnImpl(center, k, interval, o, s);
        return result.status();
      },
      [k, &interval](const QueryStats& s) {
        char detail[96];
        std::snprintf(detail, sizeof(detail),
                      "k=%zu t=[%llu,%llu] results=%llu", k,
                      static_cast<unsigned long long>(interval.lo),
                      static_cast<unsigned long long>(interval.hi),
                      static_cast<unsigned long long>(s.results));
        return std::string(detail);
      }));
  return result;
}

Result<std::vector<Entry>> SwstIndex::KnnImpl(const Point& center, size_t k,
                                              const TimeInterval& interval,
                                              const QueryOptions& opts,
                                              QueryStats* stats) {
  std::vector<Entry> out;
  if (k == 0) return out;
  if (!grid_.Contains(center)) {
    return Status::InvalidArgument("Knn: center outside spatial domain");
  }
  const TimeInterval win = QueriablePeriod(opts.logical_window);
  TimeInterval q;
  q.lo = std::max(interval.lo, win.lo);
  q.hi = std::min(interval.hi, win.hi);
  if (q.lo > q.hi) return out;

  ColumnPlan plan;
  SWST_RETURN_IF_ERROR(BuildPlan(q, win, &plan));

  // Expanding ring search over the spatial grid: visit cells in Chebyshev
  // rings around the center's cell; stop once the nearest unvisited ring
  // cannot improve the current k-th best distance.
  const uint32_t nx = options_.x_partitions;
  const uint32_t ny = options_.y_partitions;
  const uint32_t home = grid_.CellOf(center);
  const int64_t hx = home % nx;
  const int64_t hy = home / nx;

  // Max-heap of the best k candidates found so far.
  std::priority_queue<Candidate> best;

  auto accept = [&](const Entry& e) {
    const double d2 = DistanceSquared(center, e.pos);
    if (best.size() < k) {
      best.push(Candidate{d2, e});
    } else if (d2 < best.top().dist2) {
      best.pop();
      best.push(Candidate{d2, e});
    }
    return true;
  };

  const int64_t max_ring =
      static_cast<int64_t>(std::max(nx, ny));
  for (int64_t ring = 0; ring <= max_ring; ++ring) {
    // Gather the ring's in-bounds cells in scan order; the whole cell is
    // the "query area" for KNN.
    std::vector<SpatialGrid::CellOverlap> ring_cells;
    double ring_min = std::numeric_limits<double>::max();
    for (int64_t dy = -ring; dy <= ring; ++dy) {
      for (int64_t dx = -ring; dx <= ring; ++dx) {
        if (std::max(std::abs(dx), std::abs(dy)) != ring) continue;
        const int64_t cx = hx + dx, cy = hy + dy;
        if (cx < 0 || cy < 0 || cx >= static_cast<int64_t>(nx) ||
            cy >= static_cast<int64_t>(ny)) {
          continue;
        }
        SpatialGrid::CellOverlap co;
        co.cell = static_cast<uint32_t>(cy * nx + cx);
        co.overlap = grid_.CellRect(co.cell);
        co.full = true;
        ring_cells.push_back(co);
        ring_min = std::min(ring_min, RectDistanceSquared(center, co.overlap));
      }
    }
    // Rings grow outward from an in-bounds home cell, so once a ring has
    // no in-bounds cell no later ring has one either. Otherwise stop once
    // we hold k results and even the closest point of this ring is
    // farther than the k-th best.
    if (ring_cells.empty() ||
        (best.size() == k && ring_min > best.top().dist2)) {
      break;
    }
    SWST_RETURN_IF_ERROR(SearchCells(
        ring_cells, plan, q, win, opts, stats, accept,
        (opts.trace != nullptr) ? opts.trace->root() : nullptr));
  }

  if (stats != nullptr) {
    stats->columns += plan.active_fields.size();
  }

  out.resize(best.size());
  for (size_t i = best.size(); i > 0; --i) {
    out[i - 1] = best.top().entry;
    best.pop();
  }
  return out;
}

}  // namespace swst
