#include "swst/overlap.h"

#include <algorithm>
#include <cassert>

namespace swst {

TemporalOverlapComputer::TemporalOverlapComputer(const SwstOptions& options)
    : slide_(options.slide),
      delta_(options.duration_interval),
      dmax_(options.max_duration),
      d_partitions_(options.d_partitions()) {}

OverlapKind TemporalOverlapComputer::Classify(uint64_t m, uint32_t dp,
                                              const TimeInterval& q) const {
  assert(dp < d_partitions_);
  // Start timestamps in this cell: s in [s1, s2] (integers).
  const Timestamp s1 = m * slide_;
  const Timestamp s2 = (m + 1) * slide_ - 1;

  // Closed durations in this cell: d in [d_lo, d_hi].
  const Duration d_lo = static_cast<Duration>(dp) * delta_ + 1;
  const Duration d_hi = std::min((static_cast<Duration>(dp) + 1) * delta_,
                                 dmax_);
  // An entry <s, d> overlaps [q.lo, q.hi] iff s <= q.hi and s + d > q.lo.
  const Timestamp min_end = s1 + d_lo;       // Smallest s + d in the cell.
  const Timestamp max_end = s2 + d_hi;       // Largest s + d in the cell.

  const bool some = (s1 <= q.hi) && (max_end > q.lo);
  if (!some) return OverlapKind::kNone;
  const bool full = (s2 <= q.hi) && (min_end > q.lo);
  return full ? OverlapKind::kFull : OverlapKind::kPartial;
}

std::vector<ColumnOverlap> TemporalOverlapComputer::Compute(
    const TimeInterval& q, const TimeInterval& win) const {
  std::vector<ColumnOverlap> out;
  if (q.lo > q.hi) return out;

  // A closed entry of column m ends at most at (m+1)*L - 1 + Dmax, so a
  // column below (q.lo - Dmax) / L holds nothing that ends after q.lo.
  // Columns whose smallest start exceeds q.hi cannot overlap either; the
  // window's bounds cap the range as well.
  const Timestamp reach = q.lo > dmax_ ? q.lo - dmax_ : 0;
  const uint64_t m_lo = std::max(win.lo, reach) / slide_;
  const uint64_t m_hi = std::min(win.hi, q.hi) / slide_;

  for (uint64_t m = m_lo; m <= m_hi; ++m) {
    ColumnOverlap col;
    col.raw_column = m;
    // Overlap kind is monotone in dp (longer durations reach further), so
    // the first partial and first full indexes fully describe the column.
    col.n_partial = d_partitions_;
    col.n_full = d_partitions_;
    for (uint32_t n = 0; n < d_partitions_; ++n) {
      OverlapKind kind = Classify(m, n, q);
      if (kind != OverlapKind::kNone && col.n_partial == d_partitions_) {
        col.n_partial = n;
      }
      if (kind == OverlapKind::kFull) {
        col.n_full = n;
        break;  // Monotone: everything above is full too.
      }
    }
    if (col.n_partial == d_partitions_) continue;  // Nothing in this column.
    const Timestamp s1 = m * slide_;
    const Timestamp s2 = (m + 1) * slide_ - 1;
    col.in_window = (s1 >= win.lo) && (s2 <= win.hi);
    out.push_back(col);
  }
  return out;
}

}  // namespace swst
