#include "swst/temporal_key.h"

#include <cassert>
#include <cmath>

#include "zorder/zorder.h"

namespace swst {

int KeyCodec::BitsFor(uint64_t n) {
  int bits = 1;
  while ((1ULL << bits) <= n && bits < 63) bits++;
  return bits;
}

KeyCodec::KeyCodec(const SwstOptions& options)
    : epoch_(options.epoch_length()),
      slide_(options.slide),
      delta_(options.duration_interval),
      sp_(options.s_partitions()),
      dp_(options.d_partitions()),
      zcurve_bits_(options.zcurve_bits),
      use_zcurve_(options.use_zcurve) {
  // The s field must hold 2*Sp - 1 (both halves of the fold); the d field
  // must hold Dp (the current-entry partition); the z field interleaves two
  // zcurve_bits-wide coordinates.
  s_bits_ = BitsFor(2ULL * sp_ - 1);
  d_bits_ = BitsFor(dp_);
  z_bits_ = 2 * zcurve_bits_;
  assert(s_bits_ + d_bits_ + z_bits_ <= 64);
}

uint32_t KeyCodec::Quantize(double offset, double extent) const {
  const uint32_t cells = 1u << zcurve_bits_;
  if (extent <= 0.0) return 0;
  double q = std::floor(offset / extent * cells);
  if (q < 0.0) return 0;
  if (q >= cells) return cells - 1;
  return static_cast<uint32_t>(q);
}

uint64_t KeyCodec::MakeKey(Timestamp s, Duration d, uint32_t qx,
                           uint32_t qy) const {
  return MinKey(SPartitionField(s), DPartition(d), qx, qy);
}

uint64_t KeyCodec::MinKey(uint32_t sp_field, uint32_t dp, uint32_t qx,
                          uint32_t qy) const {
  return Compose(sp_field, dp, MinZ(qx, qy));
}

uint64_t KeyCodec::MaxKey(uint32_t sp_field, uint32_t dp, uint32_t qx,
                          uint32_t qy) const {
  return Compose(sp_field, dp, MaxZ(qx, qy));
}

uint64_t KeyCodec::MinZ(uint32_t qx, uint32_t qy) const {
  return use_zcurve_ ? ZEncodeBits(qx, qy, zcurve_bits_) : 0;
}

uint64_t KeyCodec::MaxZ(uint32_t qx, uint32_t qy) const {
  if (use_zcurve_) return ZEncodeBits(qx, qy, zcurve_bits_);
  return (z_bits_ >= 64) ? ~0ULL : ((1ULL << z_bits_) - 1);
}

Status SwstOptions::Validate() const {
  if (space.IsEmpty()) {
    return Status::InvalidArgument("space must be non-empty");
  }
  if (x_partitions == 0 || y_partitions == 0) {
    return Status::InvalidArgument("grid partitions must be positive");
  }
  if (window_size == 0) {
    return Status::InvalidArgument("window_size must be positive");
  }
  if (slide == 0 || slide > window_size) {
    return Status::InvalidArgument("slide must be in [1, window_size]");
  }
  if (max_duration == 0 || duration_interval == 0 ||
      duration_interval > max_duration) {
    return Status::InvalidArgument(
        "duration_interval must be in [1, max_duration]");
  }
  if (max_duration >= kUnknownDuration - 1) {
    return Status::InvalidArgument("max_duration too large");
  }
  if (zcurve_bits < 1 || zcurve_bits > 16) {
    return Status::InvalidArgument("zcurve_bits must be in [1, 16]");
  }
  if (query_threads == 0) {
    return Status::InvalidArgument("query_threads must be >= 1");
  }
  const int s_bits = KeyCodec::BitsFor(2ULL * s_partitions() - 1);
  const int d_bits = KeyCodec::BitsFor(d_partitions());
  if (s_bits + d_bits + 2 * zcurve_bits > 64) {
    return Status::InvalidArgument("composite key exceeds 64 bits");
  }
  return Status::OK();
}

}  // namespace swst
