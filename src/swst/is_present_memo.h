#ifndef SWST_SWST_IS_PRESENT_MEMO_H_
#define SWST_SWST_IS_PRESENT_MEMO_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/types.h"

namespace swst {

/// \brief The paper's *isPresent* memo (§III-B.3).
///
/// An in-memory statistics grid: for every spatial cell, tree slot, and
/// temporal cell (s-partition column x d-partition) it keeps the number of
/// entries assigned there and the minimum bounding rectangle of their
/// locations. During search it answers "can this temporal cell contain a
/// match for this spatial overlap?", pruning (a) temporal cells that hold
/// no entries at all and (b) cells whose entries all lie outside the
/// query's overlap rectangle. The memo exists because both temporal
/// dimensions (folded start timestamp, bounded duration) are bounded — the
/// (t_start, t_end) representation of classic historical indexes cannot be
/// gridded this way.
///
/// Entry counts are exact under insertion and deletion (up to saturation,
/// see "Saturating counts"); MBRs only grow on insert (a conservative
/// over-approximation) and reset when a temporal cell empties or when a
/// whole tree slot is dropped with the expired window.
///
/// ## Quantized MBRs
///
/// Each temporal cell costs 10 bytes: a 16-bit count plus four 16-bit MBR
/// coordinates on a 65536-step lattice spanning its spatial cell's
/// rectangle (given at construction). Stored minimums are floored and
/// maximums ceiled onto the lattice; query rectangles are quantized
/// outward the same way (`Quantize`) and compared as integers. Both
/// mappings are monotone and `floor <= ceil` pointwise, so a point inside
/// a query rectangle can never be pruned — pruning stays conservative by
/// construction, whatever the floating-point rounding. Coordinates outside
/// the cell clamp to the lattice edges, which keeps that property.
///
/// ## Saturating counts
///
/// A temporal cell's count saturates at `kSaturatedCount` (0xFFFF) and
/// then sticks: `Remove` leaves a saturated count (and its MBR) in place
/// until `ResetSlot` drops the whole slot. A saturated cell therefore
/// always reads as non-empty, which is conservative — it can only keep a
/// cell that a search then finds empty, never prune a live entry. The
/// exact number of entries of each *column* is kept separately (see
/// below), so a column that truly empties is still pruned whole.
///
/// ## Columns
///
/// The stats of one (cell, slot, column) — its d-partitions — are stored
/// contiguously. Alongside them each column keeps, next to its seqlock
/// word, its exact entry count and the union of its d-slots' MBRs;
/// `TrimColumn` rejects a column whose count is 0 or whose MBR misses the
/// query's overlap from those 24 bytes, without touching its stats (most
/// columns a query overlaps are rejected this way). Closed entries
/// alone reach the memo — current entries live in the in-memory live tier
/// — so a column has `Dp` d-slots, and queries never plan the reserved
/// current-entry d-partition.
///
/// ## Concurrency
///
/// The memo is shared between one writer (serialized by the owning
/// shard's mutex) and lock-free snapshot readers. All statistics are
/// stored in atomics, and each (cell, slot, column) *column* of d-slots
/// carries a seqlock word plus the *version* of the shard mutation that
/// last touched it. `ReadColumn` is the wait-free read path: it copies a
/// column under a bounded number of seqlock retries and reports whether
/// the copy is consistent with the reader's shard-snapshot version — a
/// column touched by a *newer* mutation than the reader's snapshot must
/// not be used to prune, because it may have shrunk (a delete zeroing a
/// count, a slot reset) relative to the tree the reader actually scans.
/// Failure is always safe: the caller simply skips memo pruning for that
/// column. Writers pass the version of the mutation in progress to
/// `Add`/`AddN`/`Remove`/`ResetSlot` (tests may omit it; version 0 reads
/// as "never modified").
class IsPresentMemo {
 public:
  /// Where a temporal cell's count sticks (see "Saturating counts").
  static constexpr uint16_t kSaturatedCount = 0xFFFF;

  /// Per-temporal-cell statistics (10 bytes; the paper budgets 16 for the
  /// MBR alone). Coordinates are lattice steps within the spatial cell's
  /// rectangle, not domain coordinates (see "Quantized MBRs").
  struct CellStat {
    uint16_t count = 0;
    uint16_t min_x = 0, min_y = 0, max_x = 0, max_y = 0;

    friend bool operator==(const CellStat&, const CellStat&) = default;

    bool empty() const { return count == 0; }
  };

  /// A rectangle on one cell's lattice: `lo` floored, `hi` ceiled.
  struct QRect {
    uint16_t lo_x, lo_y, hi_x, hi_y;
  };

  /// One memo cell per entry of `cell_rects` (the spatial cells' domain
  /// rectangles, which anchor the MBR lattices), each with 2 slots of
  /// `s_partitions * d_slots` temporal cells. `d_slots` is the number of
  /// closed-entry d-partitions (`Dp`).
  IsPresentMemo(const std::vector<Rect>& cell_rects, uint32_t s_partitions,
                uint32_t d_slots);

  IsPresentMemo(const IsPresentMemo&) = delete;
  IsPresentMemo& operator=(const IsPresentMemo&) = delete;

  /// Records an entry at absolute (domain) position `p`, quantized against
  /// the cell's rectangle. `ver` is the shard mutation version this write
  /// belongs to (see class comment).
  void Add(uint32_t cell, int slot, uint32_t column, uint32_t dp,
           const Point& p, uint64_t ver = 0);

  /// Records `n` entries of one temporal cell in a single update (the batch
  /// insert path groups points by temporal cell first). The resulting
  /// statistics are bit-identical to `n` individual `Add` calls.
  void AddN(uint32_t cell, int slot, uint32_t column, uint32_t dp,
            const Point* pts, size_t n, uint64_t ver = 0);

  /// Removes one entry. The MBR resets when the count reaches zero,
  /// otherwise it stays (conservatively) unchanged; a saturated count
  /// stays saturated.
  void Remove(uint32_t cell, int slot, uint32_t column, uint32_t dp,
              uint64_t ver = 0);

  /// Clears a whole slot; called when the expired B+ tree is dropped.
  void ResetSlot(uint32_t cell, int slot, uint64_t ver = 0);

  /// Composite read of one temporal cell. *Not* seqlock-validated: exact
  /// only when no writer runs concurrently (tests, writer-side code under
  /// the shard lock). Lock-free readers use `ReadColumn`.
  CellStat At(uint32_t cell, int slot, uint32_t column, uint32_t dp) const;

  /// True iff the temporal cell has entries whose MBR intersects `area`
  /// (domain coordinates, quantized outward). Same caveat as `At`.
  bool MayContain(uint32_t cell, int slot, uint32_t column, uint32_t dp,
                  const Rect& area) const;

  /// Wait-free reader path: copies the `d_slots()` stats of one column
  /// into `out` and returns true iff the copy is internally consistent
  /// (bounded seqlock retries) *and* the column was last modified at or
  /// before `snapshot_version`. On false the caller must not prune with
  /// the column (treat every temporal cell as "may contain").
  bool ReadColumn(uint32_t cell, int slot, uint32_t column,
                  uint64_t snapshot_version, CellStat* out) const;

  /// Quantizes `r` (domain coordinates; a point when lo == hi) outward
  /// onto `cell`'s lattice.
  QRect Quantize(uint32_t cell, const Rect& r) const;

  /// Wait-free trimming read, the query hot path: advances `*n_start` up /
  /// `*n_end` down past the temporal cells of one column whose stats
  /// cannot intersect `overlap` (quantized by `Quantize` for this cell),
  /// exactly as the caller's own trim loops over a `ReadColumn` copy would
  /// — but touching only the stats those loops actually inspect: a column
  /// that is empty or whose MBR misses `overlap` is decided from its
  /// `ColMeta` alone, an empty temporal cell costs one more load.
  /// Requires `*n_start <= *n_end < d_slots()`. Post-condition on success:
  /// either `*n_start == *n_end + 1` (the whole column is pruned) or the
  /// cells at `*n_start` and `*n_end` intersect. Returns true iff the trim
  /// was computed from a consistent view (bounded seqlock retries) last
  /// modified at or before `snapshot_version`; on false the bounds are
  /// untouched and the caller must not prune.
  bool TrimColumn(uint32_t cell, int slot, uint32_t column,
                  uint64_t snapshot_version, const QRect& overlap,
                  uint32_t* n_start, uint32_t* n_end) const;

  /// The column's MBR, on `cell`'s lattice (`lo` above `hi` while it has
  /// none). Same caveat as `At`.
  QRect ColumnMbr(uint32_t cell, int slot, uint32_t column) const {
    const ColMeta& m = meta_[ColIndex(cell, slot, column)];
    return QRect{m.min_x.load(std::memory_order_relaxed),
                 m.min_y.load(std::memory_order_relaxed),
                 m.max_x.load(std::memory_order_relaxed),
                 m.max_y.load(std::memory_order_relaxed)};
  }

  /// Exact number of entries in one column. Same caveat as `At`.
  uint32_t ColumnCount(uint32_t cell, int slot, uint32_t column) const {
    return meta_[ColIndex(cell, slot, column)].count.load(
        std::memory_order_relaxed);
  }

  /// Bytes of per-temporal-cell statistics (paper §V-E reports 25 MB at
  /// defaults). Excludes the 24-byte per-column `ColMeta` (seqlock, count,
  /// version and column MBR).
  size_t MemoryUsage() const { return n_stats_ * sizeof(CellStat); }

  /// Number of temporal cells currently holding at least one entry.
  uint64_t NonEmptyCells() const {
    uint64_t n = 0;
    for (size_t i = 0; i < n_stats_; ++i) {
      if (stats_[i].count.load(std::memory_order_relaxed) > 0) n++;
    }
    return n;
  }

  uint32_t s_partitions() const { return sp_; }
  uint32_t d_slots() const { return d_slots_; }

  /// Materialized statistics, ordered by (cell, slot, column, dp); for
  /// snapshots in differential tests. Same caveat as `At`.
  std::vector<CellStat> stats() const;

 private:
  /// One temporal cell's statistics, field-for-field the atomic mirror of
  /// `CellStat` (same 10-byte layout, so `MemoryUsage` stays honest).
  struct AtomicCellStat {
    std::atomic<uint16_t> count{0};
    std::atomic<uint16_t> min_x{0}, min_y{0}, max_x{0}, max_y{0};
  };
  static_assert(sizeof(AtomicCellStat) == sizeof(CellStat));
  static_assert(sizeof(CellStat) == 10);

  /// Maps one spatial cell's domain coordinates onto its MBR lattice.
  struct Lattice {
    double x0, y0;  ///< Cell rectangle's low corner.
    double sx, sy;  ///< Lattice steps per domain unit.
  };

  /// Lower MBR bound of a column with no MBR yet: above every upper bound.
  static constexpr uint16_t kEmptyMin = 0xFFFF;

  /// Seqlock, exact entry count, last-writer version and MBR of one
  /// (cell, slot, column) column, 24 bytes. The count fills what would
  /// otherwise be padding before `ver`. The MBR is the union of the
  /// column's d-slot MBRs (same lattice): `AddN` widens it, `Remove`
  /// leaves it (a superset stays safe to prune with), and `ResetSlot`
  /// empties it (min above max), so it covers every non-empty d-slot.
  struct ColMeta {
    std::atomic<uint32_t> seq{0};    ///< Odd while a write is in progress.
    std::atomic<uint32_t> count{0};  ///< Entries in the column's d-slots.
    std::atomic<uint64_t> ver{0};    ///< Shard version of the last write.
    std::atomic<uint16_t> min_x{kEmptyMin}, min_y{kEmptyMin};
    std::atomic<uint16_t> max_x{0}, max_y{0};
  };
  static_assert(sizeof(ColMeta) == 24);

  size_t Index(uint32_t cell, int slot, uint32_t column, uint32_t dp) const {
    return ((static_cast<size_t>(cell) * 2 + slot) * sp_ + column) * d_slots_ +
           dp;
  }
  size_t ColIndex(uint32_t cell, int slot, uint32_t column) const {
    return (static_cast<size_t>(cell) * 2 + slot) * sp_ + column;
  }

  /// Seqlock write section around one column mutation.
  void BeginWrite(ColMeta& m);
  void EndWrite(ColMeta& m, uint64_t ver);

  std::vector<Lattice> lattices_;  ///< One per spatial cell.
  uint32_t sp_;
  uint32_t d_slots_;
  size_t n_stats_;
  std::unique_ptr<AtomicCellStat[]> stats_;
  std::unique_ptr<ColMeta[]> meta_;
};

}  // namespace swst

#endif  // SWST_SWST_IS_PRESENT_MEMO_H_
