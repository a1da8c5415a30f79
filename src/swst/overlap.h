#ifndef SWST_SWST_OVERLAP_H_
#define SWST_SWST_OVERLAP_H_

#include <cstdint>
#include <vector>

#include "common/types.h"
#include "swst/options.h"

namespace swst {

/// How a temporal cell's contents relate to a query interval.
enum class OverlapKind {
  kNone,     ///< No entry of the cell can satisfy the query.
  kPartial,  ///< Entries may satisfy it; refinement required.
  kFull,     ///< Every entry of the cell satisfies it; no refinement.
};

/// Per-s-partition-column classification of the closed d-partitions
/// against a query (the paper's triplet (so_i, do_ip, do_if)): d-partitions
/// below `n_partial` have no overlap, those in [n_partial, n_full) a
/// partial overlap, and those in [n_full, Dp) a full overlap. The reserved
/// current-entry partition `Dp` is never classified: the B+ trees hold
/// closed entries only, and current ones live in the memory tier.
struct ColumnOverlap {
  uint64_t raw_column = 0;  ///< m: the column covers starts [m*L, (m+1)*L).
  uint32_t n_partial = 0;   ///< < Dp: every returned column overlaps.
  uint32_t n_full = 0;  ///< == Dp when no d-partition is fully covered.
  /// True iff every start timestamp of the column lies inside the
  /// queriable period — when false, "full" cells are demoted to partial so
  /// the refinement step can reject expired entries (window boundary
  /// columns, logical windows).
  bool in_window = false;
};

/// \brief Computes overlapping temporal regions (paper §IV-B.a).
///
/// The paper derives per-cell classifications via Theorems 1 and 2 for
/// timeslice endpoints, merges the two endpoint lists for interval queries,
/// and then upgrades partial cells using the exact condition of Theorem 3.
/// We implement the Theorem 3 condition directly (in the exact integer
/// arithmetic of this codebase's conventions): it is the tightest
/// classification obtainable from the cell bounds alone, and the property
/// tests verify it against brute force over all entry shapes a cell can
/// hold. A timeslice query t is the degenerate interval [t, t].
class TemporalOverlapComputer {
 public:
  explicit TemporalOverlapComputer(const SwstOptions& options);

  /// Exact classification of the temporal cell (raw column `m`,
  /// d-partition `dp`) against query interval `q`.
  ///
  /// Cell bounds: starts s in [m*L, (m+1)*L); closed durations d in
  /// [dp*delta + 1, min((dp+1)*delta, Dmax)]. Requires `dp < Dp`.
  OverlapKind Classify(uint64_t m, uint32_t dp, const TimeInterval& q) const;

  /// Classification for all columns intersecting the queriable period
  /// [win.lo, win.hi], restricted to those whose closed entries can overlap
  /// `q` (which must already be clamped into the window): the scan starts
  /// at column max(win.lo, q.lo - Dmax) / L, below which no closed entry
  /// ends after q.lo. Columns are returned in ascending raw order; columns
  /// with no overlapping closed d-partition are omitted.
  std::vector<ColumnOverlap> Compute(const TimeInterval& q,
                                     const TimeInterval& win) const;

 private:
  Timestamp slide_;
  Duration delta_;
  Duration dmax_;
  uint32_t d_partitions_;  ///< Dp: closed d-partitions are [0, Dp).
};

}  // namespace swst

#endif  // SWST_SWST_OVERLAP_H_
