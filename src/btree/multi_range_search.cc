#include <cassert>
#include <vector>

#include "btree/btree.h"
#include "btree/btree_node.h"
#include "btree/leaf_codec.h"

namespace swst {

using btree_internal::FetchNode;
using btree_internal::InternalNode;
using btree_internal::IsLeafType;
using btree_internal::kInternalType;
using btree_internal::kMaxDepth;
using btree_internal::LowerBoundChild;
using btree_internal::ScanLeafRanges;
using btree_internal::UpperBoundChild;

namespace {

/// Work item of the level-wise traversal: a node plus the contiguous slice
/// of the (sorted, disjoint) range list that overlaps it.
struct WorkItem {
  PageId node = kInvalidPageId;
  size_t range_begin = 0;  ///< Index into `ranges`.
  size_t range_end = 0;    ///< One past the last overlapping range.
};

}  // namespace

Status BTree::SearchRanges(
    const std::vector<KeyRange>& ranges,
    const std::function<bool(const BTreeRecord&)>& fn,
    uint64_t* node_accesses, std::vector<uint32_t>* level_nodes) const {
  if (ranges.empty()) return Status::OK();
#ifndef NDEBUG
  for (size_t i = 1; i < ranges.size(); ++i) {
    assert(ranges[i - 1].lo <= ranges[i - 1].hi);
    assert(ranges[i - 1].hi < ranges[i].lo && "ranges must be disjoint+sorted");
  }
#endif

  // Level-wise traversal (paper §IV-B.c): each level holds the nodes to
  // visit, in key order, with their assigned ranges. Because the ranges are
  // sorted and disjoint and children partition the key space, every node
  // appears exactly once per search and nodes without overlap never appear.
  std::vector<WorkItem> level;
  level.push_back(WorkItem{root_, 0, ranges.size()});

  int depth = 0;
  std::vector<PageId> prefetch_ids;
  while (!level.empty()) {
    if (++depth > kMaxDepth) {
      return Status::Corruption("B+ tree descent exceeds max depth");
    }
    // The whole level is known up front, in key order — at the leaf level
    // this is exactly the run of sibling leaves the query will read. All
    // misses of the level go to the backend as one asynchronous batch (a
    // single io_uring submission when available, vectored reads
    // otherwise); the batch is awaited before the first fetch below, so
    // the level's pages arrive with one syscall-bounded wait instead of
    // one blocking read per miss. Prefetching does not count as a node
    // access, keeping per-query `node_accesses` exact.
    AsyncPrefetch prefetch;
    if (level.size() > 1) {
      prefetch_ids.clear();
      for (const WorkItem& item : level) prefetch_ids.push_back(item.node);
      prefetch = pool_->PrefetchAsync(prefetch_ids);
    }
    std::vector<WorkItem> next_level;
    bool is_leaf_level = false;
    if (level_nodes != nullptr) {
      level_nodes->push_back(static_cast<uint32_t>(level.size()));
    }
    prefetch.Finish();  // Reap completions; the level is now pool-resident.

    std::vector<BTreeRecord> matches;
    for (const WorkItem& item : level) {
      auto page = FetchNode(pool_, item.node);
      if (!page.ok()) return page.status();
      if (node_accesses != nullptr) (*node_accesses)++;

      if (IsLeafType(page->As<btree_internal::NodeHeader>()->type)) {
        is_leaf_level = true;
        // One pass answers every range of this leaf. The whole page is
        // validated before any of its records reaches `fn`.
        SWST_RETURN_IF_ERROR(ScanLeafRanges(
            page->data(), item.node, ranges.data() + item.range_begin,
            item.range_end - item.range_begin, &matches));
        page->Release();
        for (const BTreeRecord& rec : matches) {
          if (!fn(rec)) return Status::OK();
        }
        continue;
      }

      const auto* in = page->As<InternalNode>();
      // Assign each of this node's ranges to the children it overlaps.
      // Children are visited left to right, so appending keeps next_level
      // sorted; consecutive ranges hitting the same child are coalesced.
      for (size_t r = item.range_begin; r < item.range_end; ++r) {
        int child_lo = LowerBoundChild(in, ranges[r].lo);
        int child_hi = UpperBoundChild(in, ranges[r].hi);
        for (int c = child_lo; c <= child_hi; ++c) {
          PageId child = in->children[c];
          if (!next_level.empty() && next_level.back().node == child) {
            next_level.back().range_end = r + 1;
          } else {
            next_level.push_back(WorkItem{child, r, r + 1});
          }
        }
      }
    }
    if (is_leaf_level) break;
    level = std::move(next_level);
  }
  return Status::OK();
}

Status BTree::SearchRangesNaive(
    const std::vector<KeyRange>& ranges,
    const std::function<bool(const BTreeRecord&)>& fn) const {
  for (const KeyRange& r : ranges) {
    bool stop = false;
    SWST_RETURN_IF_ERROR(Scan(r.lo, r.hi, [&](const BTreeRecord& rec) {
      if (!fn(rec)) {
        stop = true;
        return false;
      }
      return true;
    }));
    if (stop) break;
  }
  return Status::OK();
}

}  // namespace swst
