#ifndef SWST_BTREE_BTREE_ITERATOR_H_
#define SWST_BTREE_BTREE_ITERATOR_H_

#include <vector>

#include "btree/btree.h"
#include "storage/buffer_pool.h"

namespace swst {

/// \brief Forward cursor over a B+ tree's records, RocksDB-iterator style.
///
/// The cursor keeps an explicit descent stack (page id + child index per
/// internal level) and steps to the next leaf through the ancestors
/// instead of following leaf sibling links — copy-on-write mutations do
/// not maintain those, and a tree reached through an immutable snapshot
/// root must be traversable without them.
///
/// The current leaf is decoded once into a record cache (prefix-compressed
/// v2 leaves make per-record page access unaffordable), and the upcoming
/// sibling leaves are read ahead *asynchronously*: the batch is submitted
/// when a leaf is entered, overlaps the caller consuming that leaf's
/// records, and is reaped when the cursor steps to the next leaf. Like any
/// iterator over a mutable structure, interleaving writes to the same tree
/// with iteration is unsupported (use a copy-on-write snapshot root).
///
/// Usage:
/// \code
///   BTreeIterator it(&pool, tree.root());
///   for (it.SeekToFirst(); it.Valid(); it.Next()) { use(it.record()); }
///   if (!it.status().ok()) { ... }
/// \endcode
class BTreeIterator {
 public:
  BTreeIterator(BufferPool* pool, PageId root) : pool_(pool), root_(root) {}

  /// Positions at the first record of the tree.
  void SeekToFirst();

  /// Positions at the first record with key >= `key`.
  void Seek(uint64_t key);

  /// True while positioned on a record and no error has occurred.
  bool Valid() const { return valid_; }

  /// Advances to the next record. Precondition: `Valid()`.
  void Next();

  /// Current record. Precondition: `Valid()`.
  const BTreeRecord& record() const { return record_; }

  /// First error encountered, if any.
  const Status& status() const { return status_; }

 private:
  /// One internal level of the descent: the node and the child index the
  /// current position descends through.
  struct Level {
    PageId id;
    int child_idx;
    int child_count;  ///< Number of children (header.count + 1).
  };

  void LoadCurrent();
  /// Descends to the leftmost leaf under `node_id`, pushing levels.
  void DescendToLeaf(PageId node_id, uint64_t key, bool leftmost);

  BufferPool* pool_;
  PageId root_;
  std::vector<Level> stack_;
  PageId leaf_ = kInvalidPageId;
  int pos_ = 0;
  bool valid_ = false;
  BTreeRecord record_;
  Status status_;
  /// Decoded records of `leaf_` (valid while `leaf_loaded_ == leaf_`).
  std::vector<BTreeRecord> leaf_recs_;
  PageId leaf_loaded_ = kInvalidPageId;
};

}  // namespace swst

#endif  // SWST_BTREE_BTREE_ITERATOR_H_
