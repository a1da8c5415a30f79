#ifndef SWST_BTREE_LEAF_CODEC_H_
#define SWST_BTREE_LEAF_CODEC_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "btree/btree.h"
#include "btree/btree_node.h"
#include "common/status.h"
#include "storage/page.h"

namespace swst {
namespace btree_internal {

/// \brief Leaf page codec: raw v1 records vs. prefix-compressed v2.
///
/// Every leaf mutation in the B+ tree is decode → modify → encode: the
/// records of a leaf are materialized into a sorted vector, changed there,
/// and written back through `EncodeLeaf`. That single funnel is what makes
/// two on-page formats coexist. Range reads do not materialize leaves:
/// `ScanLeafRanges` answers a leaf's whole range slice in one pass,
/// binary-searching a v1 page in place and decoding only the v2 records
/// whose keys match:
///
///  - **v1** (`kLeafType`): header + raw `BTreeRecord[]`, the original
///    fixed-stride layout. Capacity `kLeafCapacity` (170) records.
///  - **v2** (`kLeafV2Type`): header + `LeafV2Header` + a byte stream, one
///    record after another:
///
///        varint(key - prev_key)   chained delta; first record is against
///                                 LeafV2Header::base_key (== its own key,
///                                 so the first delta encodes as one byte)
///        varint(oid)
///        raw 16-byte Point        IEEE doubles don't delta-compress
///        varint(start)
///        varint(duration + 1)     kUnknownDuration (~0) wraps to 0, so the
///                                 "still current" sentinel costs one byte
///
///    Z-order keys of neighbouring records share long prefixes, so the
///    chained deltas are short and a typical page holds 2x or more the v1
///    record count — halving the leaf pages a range scan must read.
///
/// `EncodeLeaf` prefers `DefaultLeafEncoding()` (v2 unless a test or the
/// compression A/B flips it) and falls back to the other format when the
/// preferred one cannot hold the records: adversarial keys can push a v2
/// record to `kMaxEncodedRecordSize` (56) bytes, *above* the raw 48, so v2
/// is not universally denser. Because rewriting a leaf re-chooses the
/// encoding, a v1 file attached with the default at v2 migrates to
/// compressed pages one leaf at a time, exactly as leaves are touched —
/// untouched leaves stay byte-identical (and on a copy-on-write attach the
/// original pages are never modified at all).
///
/// All decode paths are corrupt-hardened: varints are bounds-checked
/// against `payload_bytes`, which itself is checked against the stream
/// capacity, and the stream must consume exactly `payload_bytes` for
/// exactly `count` records — anything else is `Status::Corruption`.
/// `DecodeLeaf` and `ScanLeafRanges` share one validating v2 walker, so a
/// page is rejected by both or by neither, and a scan always validates
/// the whole stream, not just the records up to its last range. (The page
/// CRC catches torn writes first; these checks catch logically
/// inconsistent encodings that still checksum correctly.)

enum class LeafEncoding { kV1, kV2 };

/// Process-global encoding preference for newly (re)written leaves.
/// Defaults to v2; tests and the compression A/B in bench_async_read set
/// v1 to produce/keep uncompressed trees. Reads are unaffected — both
/// formats are always readable.
LeafEncoding DefaultLeafEncoding();
void SetDefaultLeafEncoding(LeafEncoding e);

struct LeafEncodeInfo {
  LeafEncoding used;
  /// Bytes saved versus the v1 layout of the same records (0 when v1 was
  /// used or v2 came out larger); feeds the pool's compression gauge.
  size_t saved_bytes;
};

/// Decodes the leaf page at `page` (either format) into `*out`, replacing
/// its contents. `id` is only used in error messages.
Status DecodeLeaf(const void* page, PageId id, std::vector<BTreeRecord>* out);

/// Replaces `*out` with the records of the leaf at `page` (either format)
/// whose keys lie in one of `ranges[0, n_ranges)` — sorted and disjoint —
/// in key order: the records `DecodeLeaf` yields that fall in a range,
/// without materializing the rest. Fails exactly when `DecodeLeaf` does,
/// after the same checks. `id` is only used in error messages.
Status ScanLeafRanges(const void* page, PageId id, const KeyRange* ranges,
                      size_t n_ranges, std::vector<BTreeRecord>* out);

/// Encodes `recs[0, n)` (sorted by key) into `page`, writing the full node
/// header. Prefers `DefaultLeafEncoding()`, falls back to the other format,
/// and fails with `Corruption` only if the records fit neither — callers
/// prevent that by planning with `LeafFits` / `PlanLeafChunks`, which use
/// the same fit rule.
Result<LeafEncodeInfo> EncodeLeaf(void* page, const BTreeRecord* recs,
                                  size_t n);

/// `EncodeLeaf` into a pool page: marks it dirty and feeds the pool's
/// compression gauge when the page comes out prefix-compressed. The one
/// write funnel for every leaf mutation (decode-modify-encode).
Status WriteLeaf(BufferPool* pool, PageHandle& page, const BTreeRecord* recs,
                 size_t n);

/// Whether `recs[0, n)` fits a single leaf page under the current encoding
/// policy. With the default at v1 this is the strict v1 capacity (so pure
/// v1 trees keep their original structure); with v2 it admits whichever
/// format holds the records.
bool LeafFits(const BTreeRecord* recs, size_t n);

/// Splits `recs[0, n)` into consecutive chunks that each satisfy
/// `LeafFits`, using the minimal chunk count and evening record counts
/// across chunks. Returns the chunk lengths (summing to n); `{n}` if the
/// whole run fits one page. A run that previously fit one page and grew by
/// one record always plans exactly 2 chunks (the serial-insert split).
std::vector<size_t> PlanLeafChunks(const BTreeRecord* recs, size_t n);

/// First index i in the sorted vector with recs[i].key >= key.
inline int LowerBoundRecord(const std::vector<BTreeRecord>& recs,
                            uint64_t key) {
  int lo = 0, hi = static_cast<int>(recs.size());
  while (lo < hi) {
    int mid = (lo + hi) / 2;
    if (recs[mid].key < key) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

/// First index i in the sorted vector with recs[i].key > key.
inline int UpperBoundRecord(const std::vector<BTreeRecord>& recs,
                            uint64_t key) {
  int lo = 0, hi = static_cast<int>(recs.size());
  while (lo < hi) {
    int mid = (lo + hi) / 2;
    if (recs[mid].key <= key) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

}  // namespace btree_internal
}  // namespace swst

#endif  // SWST_BTREE_LEAF_CODEC_H_
