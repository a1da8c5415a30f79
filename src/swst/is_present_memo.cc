#include "swst/is_present_memo.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace swst {

namespace {

/// Highest lattice step; a cell's rectangle spans [0, kMaxStep].
constexpr double kMaxStep = 65535.0;

// Lattice step of domain coordinate `v` on an axis starting at `origin`
// with `scale` steps per unit, clamped to the lattice. Subtraction,
// multiplication by a positive constant, floor/ceil, and clamping are all
// monotone, so FloorStep(a) <= CeilStep(b) whenever a <= b.
uint16_t FloorStep(double v, double origin, double scale) {
  return static_cast<uint16_t>(
      std::clamp(std::floor((v - origin) * scale), 0.0, kMaxStep));
}

uint16_t CeilStep(double v, double origin, double scale) {
  return static_cast<uint16_t>(
      std::clamp(std::ceil((v - origin) * scale), 0.0, kMaxStep));
}

/// Bounded seqlock retries before a reader gives up and skips pruning.
/// Writers hold the odd state only for a handful of relaxed stores, so a
/// retry nearly always succeeds; the bound keeps the read path wait-free.
constexpr int kSeqlockRetries = 3;

}  // namespace

IsPresentMemo::IsPresentMemo(const std::vector<Rect>& cell_rects,
                             uint32_t s_partitions, uint32_t d_slots)
    : sp_(s_partitions), d_slots_(d_slots) {
  lattices_.reserve(cell_rects.size());
  for (const Rect& r : cell_rects) {
    const double w = r.hi.x - r.lo.x, h = r.hi.y - r.lo.y;
    lattices_.push_back(Lattice{r.lo.x, r.lo.y, w > 0 ? kMaxStep / w : 0.0,
                                h > 0 ? kMaxStep / h : 0.0});
  }
  n_stats_ = cell_rects.size() * 2 * sp_ * d_slots_;
  stats_ = std::make_unique<AtomicCellStat[]>(n_stats_);
  meta_ = std::make_unique<ColMeta[]>(cell_rects.size() * 2 * sp_);
}

IsPresentMemo::QRect IsPresentMemo::Quantize(uint32_t cell,
                                             const Rect& r) const {
  const Lattice& l = lattices_[cell];
  return QRect{FloorStep(r.lo.x, l.x0, l.sx), FloorStep(r.lo.y, l.y0, l.sy),
               CeilStep(r.hi.x, l.x0, l.sx), CeilStep(r.hi.y, l.y0, l.sy)};
}

// Standard seqlock write protocol: flip the sequence odd, fence, mutate,
// publish even with release. Readers that overlap the write see an odd or
// changed sequence and retry. The writer itself is serialized by the
// owning shard's mutex, so plain load/store (no RMW) suffices.
void IsPresentMemo::BeginWrite(ColMeta& m) {
  const uint32_t s = m.seq.load(std::memory_order_relaxed);
  m.seq.store(s + 1, std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_release);
}

void IsPresentMemo::EndWrite(ColMeta& m, uint64_t ver) {
  m.ver.store(ver, std::memory_order_relaxed);
  const uint32_t s = m.seq.load(std::memory_order_relaxed);
  m.seq.store(s + 1, std::memory_order_release);
}

void IsPresentMemo::Add(uint32_t cell, int slot, uint32_t column, uint32_t dp,
                        const Point& p, uint64_t ver) {
  AddN(cell, slot, column, dp, &p, 1, ver);
}

void IsPresentMemo::AddN(uint32_t cell, int slot, uint32_t column, uint32_t dp,
                         const Point* pts, size_t n, uint64_t ver) {
  if (n == 0) return;
  AtomicCellStat& s = stats_[Index(cell, slot, column, dp)];
  ColMeta& m = meta_[ColIndex(cell, slot, column)];
  QRect mbr = Quantize(cell, Rect{pts[0], pts[0]});
  for (size_t i = 1; i < n; ++i) {
    const QRect q = Quantize(cell, Rect{pts[i], pts[i]});
    mbr.lo_x = std::min(mbr.lo_x, q.lo_x);
    mbr.lo_y = std::min(mbr.lo_y, q.lo_y);
    mbr.hi_x = std::max(mbr.hi_x, q.hi_x);
    mbr.hi_y = std::max(mbr.hi_y, q.hi_y);
  }
  assert(dp < d_slots_);
  BeginWrite(m);
  const uint16_t count = s.count.load(std::memory_order_relaxed);
  if (count != 0) {
    mbr.lo_x = std::min(mbr.lo_x, s.min_x.load(std::memory_order_relaxed));
    mbr.lo_y = std::min(mbr.lo_y, s.min_y.load(std::memory_order_relaxed));
    mbr.hi_x = std::max(mbr.hi_x, s.max_x.load(std::memory_order_relaxed));
    mbr.hi_y = std::max(mbr.hi_y, s.max_y.load(std::memory_order_relaxed));
  }
  s.min_x.store(mbr.lo_x, std::memory_order_relaxed);
  s.min_y.store(mbr.lo_y, std::memory_order_relaxed);
  s.max_x.store(mbr.hi_x, std::memory_order_relaxed);
  s.max_y.store(mbr.hi_y, std::memory_order_relaxed);
  s.count.store(static_cast<uint16_t>(std::min<size_t>(count + n,
                                                       kSaturatedCount)),
                std::memory_order_relaxed);
  m.min_x.store(std::min(mbr.lo_x, m.min_x.load(std::memory_order_relaxed)),
                std::memory_order_relaxed);
  m.min_y.store(std::min(mbr.lo_y, m.min_y.load(std::memory_order_relaxed)),
                std::memory_order_relaxed);
  m.max_x.store(std::max(mbr.hi_x, m.max_x.load(std::memory_order_relaxed)),
                std::memory_order_relaxed);
  m.max_y.store(std::max(mbr.hi_y, m.max_y.load(std::memory_order_relaxed)),
                std::memory_order_relaxed);
  m.count.store(m.count.load(std::memory_order_relaxed) +
                    static_cast<uint32_t>(n),
                std::memory_order_relaxed);
  EndWrite(m, ver);
}

void IsPresentMemo::Remove(uint32_t cell, int slot, uint32_t column,
                           uint32_t dp, uint64_t ver) {
  assert(dp < d_slots_);
  AtomicCellStat& s = stats_[Index(cell, slot, column, dp)];
  ColMeta& m = meta_[ColIndex(cell, slot, column)];
  const uint16_t count = s.count.load(std::memory_order_relaxed);
  assert(count > 0);
  BeginWrite(m);
  m.count.store(m.count.load(std::memory_order_relaxed) - 1,
                std::memory_order_relaxed);
  if (count == kSaturatedCount) {
    // Sticky: the true count is unknown, so the cell stays non-empty.
  } else if (count == 1) {
    s.count.store(0, std::memory_order_relaxed);
    s.min_x.store(0, std::memory_order_relaxed);
    s.max_x.store(0, std::memory_order_relaxed);
    s.min_y.store(0, std::memory_order_relaxed);
    s.max_y.store(0, std::memory_order_relaxed);
  } else {
    s.count.store(count - 1, std::memory_order_relaxed);
  }
  EndWrite(m, ver);
}

void IsPresentMemo::ResetSlot(uint32_t cell, int slot, uint64_t ver) {
  for (uint32_t column = 0; column < sp_; ++column) {
    ColMeta& m = meta_[ColIndex(cell, slot, column)];
    AtomicCellStat* col = &stats_[Index(cell, slot, column, 0)];
    BeginWrite(m);
    m.count.store(0, std::memory_order_relaxed);
    m.min_x.store(kEmptyMin, std::memory_order_relaxed);
    m.min_y.store(kEmptyMin, std::memory_order_relaxed);
    m.max_x.store(0, std::memory_order_relaxed);
    m.max_y.store(0, std::memory_order_relaxed);
    for (uint32_t dp = 0; dp < d_slots_; ++dp) {
      col[dp].count.store(0, std::memory_order_relaxed);
      col[dp].min_x.store(0, std::memory_order_relaxed);
      col[dp].max_x.store(0, std::memory_order_relaxed);
      col[dp].min_y.store(0, std::memory_order_relaxed);
      col[dp].max_y.store(0, std::memory_order_relaxed);
    }
    EndWrite(m, ver);
  }
}

IsPresentMemo::CellStat IsPresentMemo::At(uint32_t cell, int slot,
                                          uint32_t column, uint32_t dp) const {
  const AtomicCellStat& s = stats_[Index(cell, slot, column, dp)];
  CellStat out;
  out.count = s.count.load(std::memory_order_relaxed);
  out.min_x = s.min_x.load(std::memory_order_relaxed);
  out.max_x = s.max_x.load(std::memory_order_relaxed);
  out.min_y = s.min_y.load(std::memory_order_relaxed);
  out.max_y = s.max_y.load(std::memory_order_relaxed);
  return out;
}

bool IsPresentMemo::MayContain(uint32_t cell, int slot, uint32_t column,
                               uint32_t dp, const Rect& area) const {
  const CellStat s = At(cell, slot, column, dp);
  const QRect q = Quantize(cell, area);
  return s.count > 0 && s.min_x <= q.hi_x && q.lo_x <= s.max_x &&
         s.min_y <= q.hi_y && q.lo_y <= s.max_y;
}

bool IsPresentMemo::ReadColumn(uint32_t cell, int slot, uint32_t column,
                               uint64_t snapshot_version,
                               CellStat* out) const {
  const ColMeta& m = meta_[ColIndex(cell, slot, column)];
  const AtomicCellStat* col = &stats_[Index(cell, slot, column, 0)];
  for (int retry = 0; retry < kSeqlockRetries; ++retry) {
    const uint32_t s1 = m.seq.load(std::memory_order_acquire);
    if (s1 & 1) continue;
    for (uint32_t dp = 0; dp < d_slots_; ++dp) {
      out[dp].count = col[dp].count.load(std::memory_order_relaxed);
      out[dp].min_x = col[dp].min_x.load(std::memory_order_relaxed);
      out[dp].max_x = col[dp].max_x.load(std::memory_order_relaxed);
      out[dp].min_y = col[dp].min_y.load(std::memory_order_relaxed);
      out[dp].max_y = col[dp].max_y.load(std::memory_order_relaxed);
    }
    const uint64_t ver = m.ver.load(std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_acquire);
    if (m.seq.load(std::memory_order_relaxed) != s1) continue;
    // Consistent copy; usable only if no mutation newer than the reader's
    // snapshot has touched this column (it may have shrunk since).
    return ver <= snapshot_version;
  }
  return false;
}

bool IsPresentMemo::TrimColumn(uint32_t cell, int slot, uint32_t column,
                               uint64_t snapshot_version, const QRect& q,
                               uint32_t* n_start, uint32_t* n_end) const {
  const ColMeta& m = meta_[ColIndex(cell, slot, column)];
  const AtomicCellStat* col = &stats_[Index(cell, slot, column, 0)];
  // Individual loads are relaxed; the seqlock validation below makes the
  // whole trim consistent, exactly as it does for a ReadColumn copy.
  auto intersects = [&](uint32_t dp) {
    if (col[dp].count.load(std::memory_order_relaxed) == 0) return false;
    return col[dp].min_x.load(std::memory_order_relaxed) <= q.hi_x &&
           q.lo_x <= col[dp].max_x.load(std::memory_order_relaxed) &&
           col[dp].min_y.load(std::memory_order_relaxed) <= q.hi_y &&
           q.lo_y <= col[dp].max_y.load(std::memory_order_relaxed);
  };
  assert(*n_start <= *n_end && *n_end < d_slots_);
  for (int retry = 0; retry < kSeqlockRetries; ++retry) {
    const uint32_t s1 = m.seq.load(std::memory_order_acquire);
    if (s1 & 1) continue;
    uint32_t lo = *n_start;
    uint32_t hi = *n_end;
    // An empty column, or one whose MBR (a superset of every non-empty
    // d-slot's) misses the overlap, is pruned from its ColMeta alone,
    // without reading its stats.
    if (m.count.load(std::memory_order_relaxed) == 0 ||
        m.min_x.load(std::memory_order_relaxed) > q.hi_x ||
        q.lo_x > m.max_x.load(std::memory_order_relaxed) ||
        m.min_y.load(std::memory_order_relaxed) > q.hi_y ||
        q.lo_y > m.max_y.load(std::memory_order_relaxed)) {
      lo = hi + 1;
    } else {
      while (lo <= hi && !intersects(lo)) lo++;
      while (hi > lo && !intersects(hi)) hi--;
    }
    const uint64_t ver = m.ver.load(std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_acquire);
    if (m.seq.load(std::memory_order_relaxed) != s1) continue;
    if (ver > snapshot_version) return false;
    if (lo > hi) {
      *n_start = *n_end + 1;
    } else {
      *n_start = lo;
      *n_end = hi;
    }
    return true;
  }
  return false;
}

std::vector<IsPresentMemo::CellStat> IsPresentMemo::stats() const {
  std::vector<CellStat> out(n_stats_);
  for (size_t i = 0; i < n_stats_; ++i) {
    out[i].count = stats_[i].count.load(std::memory_order_relaxed);
    out[i].min_x = stats_[i].min_x.load(std::memory_order_relaxed);
    out[i].max_x = stats_[i].max_x.load(std::memory_order_relaxed);
    out[i].min_y = stats_[i].min_y.load(std::memory_order_relaxed);
    out[i].max_y = stats_[i].max_y.load(std::memory_order_relaxed);
  }
  return out;
}

}  // namespace swst
