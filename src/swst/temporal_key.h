#ifndef SWST_SWST_TEMPORAL_KEY_H_
#define SWST_SWST_TEMPORAL_KEY_H_

#include <cstdint>

#include "common/types.h"
#include "swst/options.h"

namespace swst {

/// \brief Linearized B+ tree key codec (paper §III-B.2).
///
/// KEY(s, d, x, y) = [s-partition(s)]_2 ++ [d-partition(d)]_2 ++ [zc(x,y)]_2,
/// a fixed-width bit concatenation packed into a uint64_t, most significant
/// field first. Consequences the index relies on:
///  - all entries of one s-partition column are adjacent in the tree,
///  - within a column, keys increase with d-partition,
///  - within a temporal cell, entries are ordered by spatial proximity
///    (Z-order of the position quantized inside its spatial grid cell).
///
/// The s-partition field carries the *folded* epoch-local column index:
/// `m_local + (epoch % 2) * Sp`, so the two trees of a cell occupy the two
/// halves [0, Sp) and [Sp, 2Sp) of the field's domain. Because start
/// timestamps after the fold are bounded by 2*E and durations by Dmax+1,
/// key width never grows with time (paper §I).
class KeyCodec {
 public:
  explicit KeyCodec(const SwstOptions& options);

  /// Epoch index of a raw start timestamp: k = s / E.
  uint64_t Epoch(Timestamp s) const { return s / epoch_; }

  /// Tree slot (0 or 1) for a raw start timestamp.
  int Slot(Timestamp s) const { return static_cast<int>(Epoch(s) % 2); }

  /// Epoch-local s-partition: (s mod E) / L, in [0, Sp).
  uint32_t LocalColumn(Timestamp s) const {
    return static_cast<uint32_t>((s % epoch_) / slide_);
  }

  /// Value of the key's s-partition field for a raw start timestamp.
  uint32_t SPartitionField(Timestamp s) const {
    return LocalColumn(s) + static_cast<uint32_t>(Slot(s)) * sp_;
  }

  /// d-partition of a duration: (d-1)/delta for closed durations in
  /// [1, Dmax]; the reserved index Dp for current entries.
  uint32_t DPartition(Duration d) const {
    if (d == kUnknownDuration) return dp_;
    return static_cast<uint32_t>((d - 1) / delta_);
  }

  /// In-cell quantization of a coordinate offset to [0, 2^zcurve_bits).
  /// `offset` is the position relative to the spatial cell's lower corner;
  /// `extent` the cell's width/height.
  uint32_t Quantize(double offset, double extent) const;

  /// Full key for an entry: raw start timestamp, duration (or
  /// kUnknownDuration), and position quantized within its spatial cell.
  uint64_t MakeKey(Timestamp s, Duration d, uint32_t qx, uint32_t qy) const;

  /// Lowest key of the search rectangle for (s-partition field `sp_field`,
  /// d-partition `dp`), with quantized overlap corner (qx, qy) — the
  /// paper's k_il. With `use_zcurve` off, the z field is zeroed.
  uint64_t MinKey(uint32_t sp_field, uint32_t dp, uint32_t qx,
                  uint32_t qy) const;

  /// Highest key — the paper's k_ih (z field saturated when zcurve is off).
  uint64_t MaxKey(uint32_t sp_field, uint32_t dp, uint32_t qx,
                  uint32_t qy) const;

  /// The z fields of `MinKey`/`MaxKey` alone, so a search encodes its
  /// overlap corners once and composes one key pair per column.
  uint64_t MinZ(uint32_t qx, uint32_t qy) const;
  uint64_t MaxZ(uint32_t qx, uint32_t qy) const;

  /// Packs the three key fields, most significant first.
  uint64_t Compose(uint32_t sp_field, uint32_t dp, uint64_t z) const {
    return (static_cast<uint64_t>(sp_field) << (d_bits_ + z_bits_)) |
           (static_cast<uint64_t>(dp) << z_bits_) | z;
  }

  int s_bits() const { return s_bits_; }
  int d_bits() const { return d_bits_; }
  int z_bits() const { return z_bits_; }
  uint32_t s_partitions() const { return sp_; }
  uint32_t d_partition_current() const { return dp_; }

  /// Decodes the s-partition field of a key (for tests).
  uint32_t DecodeSPartition(uint64_t key) const {
    return static_cast<uint32_t>(key >> (d_bits_ + z_bits_));
  }
  /// Decodes the d-partition field of a key (for tests).
  uint32_t DecodeDPartition(uint64_t key) const {
    return static_cast<uint32_t>((key >> z_bits_) & ((1ULL << d_bits_) - 1));
  }

  /// Number of bits needed to represent values in [0, n].
  static int BitsFor(uint64_t n);

 private:
  Timestamp epoch_;
  Timestamp slide_;
  Duration delta_;
  uint32_t sp_;  ///< s-partitions per epoch.
  uint32_t dp_;  ///< d-partition index reserved for current entries.
  int zcurve_bits_;
  bool use_zcurve_;
  int s_bits_;
  int d_bits_;
  int z_bits_;
};

}  // namespace swst

#endif  // SWST_SWST_TEMPORAL_KEY_H_
