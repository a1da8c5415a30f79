#ifndef SWST_BTREE_BTREE_NODE_H_
#define SWST_BTREE_BTREE_NODE_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <utility>

#include "btree/btree.h"
#include "storage/page.h"

namespace swst {
namespace btree_internal {

/// On-page node header, common to leaves and internal nodes.
struct NodeHeader {
  uint16_t type;   ///< kLeafType or kInternalType.
  uint16_t count;  ///< Records (leaf) or separator keys (internal).
  PageId next;     ///< Reserved (always kInvalidPageId). Leaves used to be
                   ///< chained through here, but sibling links cannot be
                   ///< kept consistent under copy-on-write — cloning a
                   ///< leaf would leave its left sibling's link pointing
                   ///< at the superseded page — so all scans now walk the
                   ///< tree through ancestors instead.
};
static_assert(sizeof(NodeHeader) == 8);

inline constexpr uint16_t kLeafType = 1;
inline constexpr uint16_t kInternalType = 2;
/// Prefix-compressed leaf (format v2, see leaf_codec.h). The header `type`
/// doubles as the page-format version: v1 leaves keep `kLeafType`, so a
/// file written before compression existed stays readable page by page and
/// migrates one leaf at a time as leaves are rewritten.
inline constexpr uint16_t kLeafV2Type = 3;

/// Both on-page leaf formats; internal nodes have a single format.
inline bool IsLeafType(uint16_t type) {
  return type == kLeafType || type == kLeafV2Type;
}

/// Depth bound for descents and recursive walks: a healthy tree over
/// 32-bit page ids can never be this deep, so exceeding it means a cycle
/// through corrupt child/sibling pointers.
inline constexpr int kMaxDepth = 64;

/// How many upcoming sibling nodes a scan (Scan, BTreeIterator) hints to
/// `BufferPool::Prefetch` ahead of reading them. Bounded so a short
/// bounded scan does not drag a whole subtree into the pool.
inline constexpr int kScanReadahead = 16;

/// Leaf page: header followed by `count` sorted records.
inline constexpr int kLeafCapacity =
    static_cast<int>((kPageSize - sizeof(NodeHeader)) / sizeof(BTreeRecord));
inline constexpr int kLeafMin = kLeafCapacity / 2;

struct LeafNode {
  NodeHeader header;
  BTreeRecord records[kLeafCapacity];
};
static_assert(sizeof(LeafNode) <= kPageSize);

/// v2 leaf sub-header, directly after `NodeHeader`. The record stream that
/// follows is a delta/varint encoding of the sorted records (layout in
/// leaf_codec.h); `payload_bytes` is its exact length, checked against the
/// header `count` on every decode.
struct LeafV2Header {
  uint16_t payload_bytes;  ///< Encoded stream length in bytes.
  uint16_t flags;          ///< Reserved, always 0.
  uint32_t reserved;       ///< Reserved, always 0.
  uint64_t base_key;       ///< Key the first record's delta is against.
};
static_assert(sizeof(LeafV2Header) == 16);

/// Bytes available for the v2 record stream.
inline constexpr size_t kLeafV2StreamCapacity =
    kPageSize - sizeof(NodeHeader) - sizeof(LeafV2Header);

/// Encoded record size bounds: varint key delta + varint oid + raw 16-byte
/// position + varint start + varint duration. Best case five 1-byte varints
/// (20 bytes), worst case four 10-byte varints (56 bytes — *larger* than
/// the 48-byte raw record, which is why EncodeLeaf can fall back to v1).
inline constexpr size_t kMinEncodedRecordSize = 1 + 1 + 16 + 1 + 1;
inline constexpr size_t kMaxEncodedRecordSize = 10 + 10 + 16 + 10 + 10;

/// Hard ceiling on records in a v2 leaf (all-minimal encoding). The real
/// per-page count is whatever `payload_bytes` admits.
inline constexpr int kLeafV2MaxRecords =
    static_cast<int>(kLeafV2StreamCapacity / kMinEncodedRecordSize);

/// Internal page: header, `count+1` children, `count` separator keys.
/// Invariant: every key in subtree `children[i]` is <= keys[i] and
/// >= keys[i-1]; equality is allowed on both sides, which is what makes
/// duplicate keys straddling a separator work.
inline constexpr int kInternalCapacity =
    static_cast<int>((kPageSize - sizeof(NodeHeader) - sizeof(PageId)) /
                     (sizeof(PageId) + sizeof(uint64_t)));
inline constexpr int kInternalMin = kInternalCapacity / 2;

struct InternalNode {
  NodeHeader header;
  PageId children[kInternalCapacity + 1];
  uint64_t keys[kInternalCapacity];
};
static_assert(sizeof(InternalNode) <= kPageSize);

/// Sanity-checks a node header freshly fetched from disk. A page whose
/// type or count is out of bounds (a garbage page behind a stale root, or
/// a torn write that slipped past lower integrity layers) must not be
/// interpreted: indexing `count` records would read past the page. Every
/// read path calls this right after `Fetch` and propagates `Corruption`.
inline Status CheckNodeHeader(const NodeHeader* h, PageId id) {
  if (h->type == kLeafType && h->count <= kLeafCapacity) return Status::OK();
  if (h->type == kLeafV2Type && h->count <= kLeafV2MaxRecords) {
    return Status::OK();  // Stream-level bounds are enforced by DecodeLeaf.
  }
  if (h->type == kInternalType && h->count <= kInternalCapacity) {
    return Status::OK();
  }
  return Status::Corruption("malformed B+ tree node on page " +
                            std::to_string(id));
}

/// Fetch + header sanity check; the only way read paths pull in a node.
inline Result<PageHandle> FetchNode(BufferPool* pool, PageId id) {
  auto page = pool->Fetch(id);
  if (!page.ok()) return page.status();
  SWST_RETURN_IF_ERROR(CheckNodeHeader(page->As<NodeHeader>(), id));
  return page;
}

/// First index i with keys[i] >= key (descend here for leftmost search).
inline int LowerBoundChild(const InternalNode* n, uint64_t key) {
  int lo = 0, hi = n->header.count;
  while (lo < hi) {
    int mid = (lo + hi) / 2;
    if (n->keys[mid] < key) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

/// First index i with keys[i] > key (descend here for rightmost/insert).
inline int UpperBoundChild(const InternalNode* n, uint64_t key) {
  int lo = 0, hi = n->header.count;
  while (lo < hi) {
    int mid = (lo + hi) / 2;
    if (n->keys[mid] <= key) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

/// First record index with record key >= key.
inline int LowerBoundRecord(const LeafNode* n, uint64_t key) {
  int lo = 0, hi = n->header.count;
  while (lo < hi) {
    int mid = (lo + hi) / 2;
    if (n->records[mid].key < key) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

/// First record index with record key > key.
inline int UpperBoundRecord(const LeafNode* n, uint64_t key) {
  int lo = 0, hi = n->header.count;
  while (lo < hi) {
    int mid = (lo + hi) / 2;
    if (n->records[mid].key <= key) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

}  // namespace btree_internal
}  // namespace swst

#endif  // SWST_BTREE_BTREE_NODE_H_
