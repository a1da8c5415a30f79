#include "btree/leaf_codec.h"

#include <atomic>
#include <cstring>
#include <string>

#include "obs/flight_recorder.h"

namespace swst {
namespace btree_internal {

namespace {

std::atomic<LeafEncoding> g_default_encoding{LeafEncoding::kV2};

size_t VarintLen(uint64_t v) {
  size_t n = 1;
  while (v >= 0x80) {
    v >>= 7;
    n++;
  }
  return n;
}

char* PutVarint(char* p, uint64_t v) {
  while (v >= 0x80) {
    *p++ = static_cast<char>(v | 0x80);
    v >>= 7;
  }
  *p++ = static_cast<char>(v);
  return p;
}

// Bounds-checked LEB128 read; nullptr on a truncated or over-long varint.
const char* GetVarint(const char* p, const char* end, uint64_t* out) {
  uint64_t v = 0;
  for (int shift = 0; p < end && shift < 64; shift += 7) {
    const uint8_t b = static_cast<uint8_t>(*p++);
    v |= static_cast<uint64_t>(b & 0x7f) << shift;
    if ((b & 0x80) == 0) {
      *out = v;
      return p;
    }
  }
  return nullptr;
}

// GetVarint when `keep`; otherwise skips the varint under exactly the
// same acceptance rule without assembling its value.
const char* ReadVarint(const char* p, const char* end, bool keep,
                       uint64_t* out) {
  if (keep) return GetVarint(p, end, out);
  for (int shift = 0; p < end && shift < 64; shift += 7) {
    if ((static_cast<uint8_t>(*p++) & 0x80) == 0) return p;
  }
  return nullptr;
}

// Encoded size of one record given its key delta against the previous
// record (0 for a chunk's first record, whose delta is against base_key ==
// its own key). Deltas use wrapping arithmetic, so the codec round-trips
// even if a caller violates the sortedness precondition — it just encodes
// badly.
size_t EncodedRecordSize(const BTreeRecord& r, uint64_t key_delta) {
  return VarintLen(key_delta) + VarintLen(r.entry.oid) + sizeof(Point) +
         VarintLen(r.entry.start) + VarintLen(r.entry.duration + 1);
}

// Total v2 stream bytes for recs[0, n).
size_t V2StreamBytes(const BTreeRecord* recs, size_t n) {
  size_t bytes = 0;
  for (size_t i = 0; i < n; ++i) {
    bytes += EncodedRecordSize(recs[i], i == 0 ? 0 : recs[i].key -
                                                     recs[i - 1].key);
  }
  return bytes;
}

bool FitsV1(size_t n) { return n <= static_cast<size_t>(kLeafCapacity); }

bool FitsV2(const BTreeRecord* recs, size_t n) {
  if (n > static_cast<size_t>(kLeafV2MaxRecords)) return false;
  return V2StreamBytes(recs, n) <= kLeafV2StreamCapacity;
}

void EncodeV1(void* page, const BTreeRecord* recs, size_t n) {
  auto* leaf = static_cast<LeafNode*>(page);
  leaf->header.type = kLeafType;
  leaf->header.count = static_cast<uint16_t>(n);
  leaf->header.next = kInvalidPageId;
  // An empty leaf may come with a null `recs`, which memcpy forbids.
  if (n != 0) std::memcpy(leaf->records, recs, sizeof(BTreeRecord) * n);
}

size_t EncodeV2(void* page, const BTreeRecord* recs, size_t n) {
  char* base = static_cast<char*>(page);
  auto* h = reinterpret_cast<NodeHeader*>(base);
  h->type = kLeafV2Type;
  h->count = static_cast<uint16_t>(n);
  h->next = kInvalidPageId;
  auto* vh = reinterpret_cast<LeafV2Header*>(base + sizeof(NodeHeader));
  vh->flags = 0;
  vh->reserved = 0;
  vh->base_key = n > 0 ? recs[0].key : 0;
  char* p = base + sizeof(NodeHeader) + sizeof(LeafV2Header);
  uint64_t prev = vh->base_key;
  for (size_t i = 0; i < n; ++i) {
    const BTreeRecord& r = recs[i];
    p = PutVarint(p, r.key - prev);
    prev = r.key;
    p = PutVarint(p, r.entry.oid);
    std::memcpy(p, &r.entry.pos, sizeof(Point));
    p += sizeof(Point);
    p = PutVarint(p, r.entry.start);
    p = PutVarint(p, r.entry.duration + 1);
  }
  const size_t payload =
      static_cast<size_t>(p - (base + sizeof(NodeHeader) + sizeof(LeafV2Header)));
  vh->payload_bytes = static_cast<uint16_t>(payload);
  return payload;
}

Status CorruptLeaf(PageId id, const char* what) {
  return Status::Corruption("malformed v2 leaf on page " + std::to_string(id) +
                            ": " + what);
}

// The one validating walk over a v2 leaf's record stream. Every record's
// key is decoded and offered to `want(key)`; only when it returns true is
// the rest of the record decoded into a `BTreeRecord` for `emit`,
// otherwise its varints and point are skipped — still bounds-checked.
// The whole stream is always walked: the exact `count` records must
// consume exactly `payload_bytes`, whatever `want` says.
template <typename Want, typename Emit>
Status WalkV2(const void* page, PageId id, Want&& want, Emit&& emit) {
  const char* base = static_cast<const char*>(page);
  const auto* h = reinterpret_cast<const NodeHeader*>(base);
  if (h->count > kLeafV2MaxRecords) {
    return CorruptLeaf(id, "record count exceeds capacity");
  }
  const auto* vh =
      reinterpret_cast<const LeafV2Header*>(base + sizeof(NodeHeader));
  if (vh->payload_bytes > kLeafV2StreamCapacity) {
    return CorruptLeaf(id, "payload length exceeds page");
  }
  const char* p = base + sizeof(NodeHeader) + sizeof(LeafV2Header);
  const char* end = p + vh->payload_bytes;
  uint64_t key = vh->base_key;
  for (uint16_t i = 0; i < h->count; ++i) {
    uint64_t delta;
    if ((p = GetVarint(p, end, &delta)) == nullptr) {
      return CorruptLeaf(id, "truncated key delta");
    }
    key += delta;
    const bool keep = want(key);
    BTreeRecord r;
    uint64_t dur1 = 0;
    if ((p = ReadVarint(p, end, keep, &r.entry.oid)) == nullptr) {
      return CorruptLeaf(id, "truncated oid");
    }
    if (static_cast<size_t>(end - p) < sizeof(Point)) {
      return CorruptLeaf(id, "truncated position");
    }
    if (keep) std::memcpy(&r.entry.pos, p, sizeof(Point));
    p += sizeof(Point);
    if ((p = ReadVarint(p, end, keep, &r.entry.start)) == nullptr) {
      return CorruptLeaf(id, "truncated start");
    }
    if ((p = ReadVarint(p, end, keep, &dur1)) == nullptr) {
      return CorruptLeaf(id, "truncated duration");
    }
    if (!keep) continue;
    r.key = key;
    r.entry.duration = dur1 - 1;  // 0 wraps back to kUnknownDuration.
    emit(r);
  }
  if (p != end) {
    return CorruptLeaf(id, "payload length mismatch");
  }
  return Status::OK();
}

Status CorruptV1(PageId id) {
  return Status::Corruption("malformed B+ tree node on page " +
                            std::to_string(id));
}

Status NotALeaf(PageId id) {
  return Status::Corruption("page " + std::to_string(id) +
                            " is not a leaf node");
}

}  // namespace

LeafEncoding DefaultLeafEncoding() {
  return g_default_encoding.load(std::memory_order_relaxed);
}

void SetDefaultLeafEncoding(LeafEncoding e) {
  g_default_encoding.store(e, std::memory_order_relaxed);
}

Status DecodeLeaf(const void* page, PageId id, std::vector<BTreeRecord>* out) {
  out->clear();
  const auto* h = static_cast<const NodeHeader*>(page);
  if (h->type == kLeafType) {
    if (h->count > kLeafCapacity) return CorruptV1(id);
    const auto* leaf = static_cast<const LeafNode*>(page);
    out->assign(leaf->records, leaf->records + leaf->header.count);
    return Status::OK();
  }
  if (h->type != kLeafV2Type) return NotALeaf(id);
  out->reserve(h->count);
  return WalkV2(
      page, id, [](uint64_t) { return true; },
      [out](const BTreeRecord& r) { out->push_back(r); });
}

Status ScanLeafRanges(const void* page, PageId id, const KeyRange* ranges,
                      size_t n_ranges, std::vector<BTreeRecord>* out) {
  out->clear();
  const auto* h = static_cast<const NodeHeader*>(page);
  if (h->type == kLeafType) {
    if (h->count > kLeafCapacity) return CorruptV1(id);
    const auto* leaf = static_cast<const LeafNode*>(page);
    for (size_t r = 0; r < n_ranges; ++r) {
      for (int pos = LowerBoundRecord(leaf, ranges[r].lo);
           pos < leaf->header.count && leaf->records[pos].key <= ranges[r].hi;
           ++pos) {
        out->push_back(leaf->records[pos]);
      }
    }
    return Status::OK();
  }
  if (h->type != kLeafV2Type) return NotALeaf(id);
  // Keys arrive in ascending order, so one cursor over the sorted ranges
  // decides membership: skip the ranges that end below the key.
  size_t r = 0;
  return WalkV2(
      page, id,
      [&](uint64_t key) {
        while (r < n_ranges && ranges[r].hi < key) ++r;
        return r < n_ranges && ranges[r].lo <= key;
      },
      [out](const BTreeRecord& rec) { out->push_back(rec); });
}

Result<LeafEncodeInfo> EncodeLeaf(void* page, const BTreeRecord* recs,
                                  size_t n) {
  const LeafEncoding preferred = DefaultLeafEncoding();
  const bool v2_first = preferred == LeafEncoding::kV2;
  if (v2_first && FitsV2(recs, n)) {
    const size_t payload = EncodeV2(page, recs, n);
    const size_t raw = sizeof(BTreeRecord) * n;
    const size_t packed = sizeof(LeafV2Header) + payload;
    return LeafEncodeInfo{LeafEncoding::kV2,
                          raw > packed ? raw - packed : 0};
  }
  if (FitsV1(n)) {
    EncodeV1(page, recs, n);
    return LeafEncodeInfo{LeafEncoding::kV1, 0};
  }
  if (!v2_first && FitsV2(recs, n)) {
    // Preference is v1 but the run only fits compressed; should not happen
    // when callers plan with the same policy, but encode it rather than
    // lose data.
    const size_t payload = EncodeV2(page, recs, n);
    const size_t raw = sizeof(BTreeRecord) * n;
    const size_t packed = sizeof(LeafV2Header) + payload;
    return LeafEncodeInfo{LeafEncoding::kV2,
                          raw > packed ? raw - packed : 0};
  }
  return Status::Corruption("leaf records fit no page encoding");
}

Status WriteLeaf(BufferPool* pool, PageHandle& page, const BTreeRecord* recs,
                 size_t n) {
  const uint16_t prior_type =
      reinterpret_cast<const NodeHeader*>(page.data())->type;
  auto enc = EncodeLeaf(page.data(), recs, n);
  if (!enc.ok()) return enc.status();
  if (enc->used == LeafEncoding::kV2) {
    pool->NoteCompressedLeaf(enc->saved_bytes);
    if (prior_type == kLeafType) {
      // A v1 leaf from an older on-disk image just got rewritten packed —
      // the format migration the flight recorder tracks.
      obs::RecordEvent(obs::EventType::kLeafMigrateV2, page.id(), n,
                       enc->saved_bytes);
    }
  }
  page.MarkDirty();
  return Status::OK();
}

bool LeafFits(const BTreeRecord* recs, size_t n) {
  if (DefaultLeafEncoding() == LeafEncoding::kV1) return FitsV1(n);
  return FitsV1(n) || FitsV2(recs, n);
}

std::vector<size_t> PlanLeafChunks(const BTreeRecord* recs, size_t n) {
  if (LeafFits(recs, n)) return {n};
  const bool v1_only = DefaultLeafEncoding() == LeafEncoding::kV1;

  // One greedy left-to-right pass, filling each chunk up to `cap_records`
  // (and, under v2, the byte capacity). The fit predicate is monotone in
  // the chunk length — bytes only grow, and once both the v1 count bound
  // and the v2 byte bound are exceeded they stay exceeded — so stopping at
  // the first non-fitting extension is exact.
  const auto greedy = [&](size_t cap_records) {
    std::vector<size_t> plan;
    size_t a = 0;
    while (a < n) {
      size_t cnt = 0, bytes = 0;
      while (a + cnt < n && cnt < cap_records) {
        const size_t i = a + cnt;
        const size_t next_bytes =
            bytes + EncodedRecordSize(recs[i], i == a ? 0 : recs[i].key -
                                                            recs[i - 1].key);
        const size_t next_cnt = cnt + 1;
        const bool fits =
            FitsV1(next_cnt) ||
            (!v1_only && next_cnt <= static_cast<size_t>(kLeafV2MaxRecords) &&
             next_bytes <= kLeafV2StreamCapacity);
        if (!fits) break;
        cnt = next_cnt;
        bytes = next_bytes;
      }
      plan.push_back(cnt);
      a += cnt;
    }
    return plan;
  };

  // Minimal chunk count from a max-fill pass, then one evening pass that
  // caps every chunk at ceil(n / m) records so fill is balanced instead of
  // front-loaded. The evening pass may byte-cap a chunk below the target
  // and end up with extra chunks on adversarial key sets; that plan is
  // still valid, just less even.
  const size_t m = greedy(n + 1).size();
  return greedy((n + m - 1) / m);
}

}  // namespace btree_internal
}  // namespace swst
