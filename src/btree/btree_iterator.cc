#include "btree/btree_iterator.h"

#include <algorithm>
#include <vector>

#include "btree/btree_node.h"
#include "btree/leaf_codec.h"

namespace swst {

using btree_internal::DecodeLeaf;
using btree_internal::FetchNode;
using btree_internal::InternalNode;
using btree_internal::IsLeafType;
using btree_internal::kInternalType;
using btree_internal::kMaxDepth;
using btree_internal::LowerBoundChild;
using btree_internal::LowerBoundRecord;

void BTreeIterator::SeekToFirst() { Seek(0); }

void BTreeIterator::Seek(uint64_t key) {
  valid_ = false;
  status_ = Status::OK();
  stack_.clear();
  leaf_loaded_ = kInvalidPageId;
  DescendToLeaf(root_, key, /*leftmost=*/false);
  if (!status_.ok()) return;
  LoadCurrent();
}

void BTreeIterator::DescendToLeaf(PageId node_id, uint64_t key,
                                  bool leftmost) {
  PageId cur = node_id;
  std::vector<PageId> readahead;
  for (;;) {
    if (static_cast<int>(stack_.size()) > kMaxDepth) {
      status_ = Status::Corruption("B+ tree descent exceeds max depth");
      return;
    }
    auto page = FetchNode(pool_, cur);
    if (!page.ok()) {
      status_ = page.status();
      return;
    }
    if (IsLeafType(page->As<btree_internal::NodeHeader>()->type)) {
      leaf_ = cur;
      status_ = DecodeLeaf(page->data(), cur, &leaf_recs_);
      page->Release();
      if (!status_.ok()) return;
      leaf_loaded_ = cur;
      pos_ = leftmost ? 0 : LowerBoundRecord(leaf_recs_, key);
      // Read the sibling leaves the cursor steps through next as one
      // batch, so stepping to them hits the pool.
      if (!readahead.empty()) pool_->Prefetch(readahead);
      return;
    }
    const auto* in = page->As<InternalNode>();
    const int idx = leftmost ? 0 : LowerBoundChild(in, key);
    // After the loop's last iteration these are the sibling leaves the
    // iterator will step through next.
    const int last = std::min<int>(in->header.count,
                                   idx + btree_internal::kScanReadahead);
    readahead.assign(in->children + idx + 1, in->children + last + 1);
    stack_.push_back(Level{cur, idx, in->header.count + 1});
    cur = in->children[idx];
    page->Release();
  }
}

void BTreeIterator::Next() {
  pos_++;
  LoadCurrent();
}

void BTreeIterator::LoadCurrent() {
  for (;;) {
    if (leaf_loaded_ != leaf_) {
      // Entering a leaf that is not decoded yet (only reachable if a Seek
      // failed mid-way); fetch and decode.
      auto page = FetchNode(pool_, leaf_);
      if (!page.ok()) {
        status_ = page.status();
        valid_ = false;
        return;
      }
      if (!IsLeafType(page->As<btree_internal::NodeHeader>()->type)) {
        status_ = Status::Corruption("B+ tree descent reaches non-leaf page");
        valid_ = false;
        return;
      }
      status_ = DecodeLeaf(page->data(), leaf_, &leaf_recs_);
      if (!status_.ok()) {
        valid_ = false;
        return;
      }
      leaf_loaded_ = leaf_;
    }
    if (pos_ < static_cast<int>(leaf_recs_.size())) {
      record_ = leaf_recs_[pos_];
      valid_ = true;
      return;
    }

    // Leaf exhausted: climb to the nearest ancestor with an unvisited
    // right child, then descend to the leftmost leaf under it. Ancestors
    // are re-read through the recorded page ids, never via sibling links.
    while (!stack_.empty() &&
           stack_.back().child_idx + 1 >= stack_.back().child_count) {
      stack_.pop_back();
    }
    if (stack_.empty()) {
      valid_ = false;
      return;
    }
    Level& level = stack_.back();
    level.child_idx++;
    auto parent = FetchNode(pool_, level.id);
    if (!parent.ok()) {
      status_ = parent.status();
      valid_ = false;
      return;
    }
    if (parent->As<btree_internal::NodeHeader>()->type != kInternalType ||
        level.child_idx > parent->As<InternalNode>()->header.count) {
      status_ = Status::Corruption("B+ tree iterator stack is stale");
      valid_ = false;
      return;
    }
    const PageId next = parent->As<InternalNode>()->children[level.child_idx];
    parent->Release();
    DescendToLeaf(next, 0, /*leftmost=*/true);
    if (!status_.ok()) {
      valid_ = false;
      return;
    }
  }
}

}  // namespace swst
