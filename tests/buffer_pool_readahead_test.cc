// BufferPool readahead (`Prefetch`) and write coalescing: the new counters
// must reflect real behavior — prefetched frames serve later fetches
// without physical reads, prefetch never bumps logical_reads (node-access
// counts stay exact), adjacent dirty pages flush as coalesced runs, and
// prefetch must never evict dirty data or disturb correctness.

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "storage/buffer_pool.h"
#include "storage/pager.h"
#include "tests/test_util.h"

namespace swst {
namespace {

class BufferPoolReadaheadTest : public ::testing::Test {
 protected:
  BufferPoolReadaheadTest() : pager_(Pager::OpenMemory()) {}

  /// Allocates `n` pages stamped with their own id and flushes them out.
  std::vector<PageId> MakePages(BufferPool* pool, int n) {
    std::vector<PageId> ids;
    for (int i = 0; i < n; ++i) {
      auto p = pool->New();
      EXPECT_TRUE(p.ok());
      std::memcpy(p->data(), &ids.emplace_back(p->id()), sizeof(PageId));
      p->MarkDirty();
    }
    EXPECT_OK(pool->FlushAll());
    return ids;
  }

  std::unique_ptr<Pager> pager_;
};

TEST_F(BufferPoolReadaheadTest, PrefetchedPagesServeFetchesWithoutRereads) {
  BufferPool pool(pager_.get(), 64, /*partitions=*/1);
  const auto ids = MakePages(&pool, 16);

  // A second, cold pool over the same pager: nothing cached yet.
  BufferPool cold(pager_.get(), 64, 1);

  const IoStats before = cold.stats();
  cold.Prefetch(ids);
  const IoStats after_prefetch = cold.stats();
  EXPECT_EQ(after_prefetch.readahead_pages.load(), ids.size());
  EXPECT_EQ(after_prefetch.physical_reads.load(),
            before.physical_reads.load() + ids.size());
  // Readahead is invisible to node-access accounting.
  EXPECT_EQ(after_prefetch.logical_reads.load(), before.logical_reads.load());

  for (PageId id : ids) {
    auto p = cold.Fetch(id);
    ASSERT_TRUE(p.ok());
    PageId stamped;
    std::memcpy(&stamped, p->data(), sizeof(PageId));
    EXPECT_EQ(stamped, id);
  }
  const IoStats after_fetch = cold.stats();
  // Every fetch hit a prefetched frame: no further physical reads.
  EXPECT_EQ(after_fetch.physical_reads.load(),
            after_prefetch.physical_reads.load());
  EXPECT_EQ(after_fetch.readahead_hits.load(), ids.size());
  EXPECT_EQ(after_fetch.logical_reads.load(),
            before.logical_reads.load() + ids.size());
}

TEST_F(BufferPoolReadaheadTest, PrefetchSkipsCachedAndRespectsBudget) {
  BufferPool pool(pager_.get(), 8, /*partitions=*/1);
  const auto ids = MakePages(&pool, 20);

  BufferPool cold(pager_.get(), 8, 1);
  // Budget is half the partition's frames: of 20 requested, at most 4 load.
  cold.Prefetch(ids);
  EXPECT_LE(cold.stats().readahead_pages.load(), 4u);

  // Already-cached pages are not re-read.
  auto p = cold.Fetch(ids[0]);
  ASSERT_TRUE(p.ok());
  const uint64_t reads = cold.stats().physical_reads.load();
  cold.Prefetch({ids[0]});
  EXPECT_EQ(cold.stats().physical_reads.load(), reads);
}

TEST_F(BufferPoolReadaheadTest, PrefetchNeverEvictsDirtyFrames) {
  BufferPool pool(pager_.get(), 4, /*partitions=*/1);
  const auto ids = MakePages(&pool, 8);

  BufferPool small(pager_.get(), 4, 1);
  // Dirty every frame of the pool.
  for (int i = 0; i < 4; ++i) {
    auto p = small.Fetch(ids[static_cast<size_t>(i)]);
    ASSERT_TRUE(p.ok());
    p->data()[100] = static_cast<char>(0x5A);
    p->MarkDirty();
  }
  const uint64_t writes = small.stats().physical_writes.load();
  small.Prefetch({ids[4], ids[5], ids[6], ids[7]});
  // No clean victims and no spare frames: prefetch must do nothing rather
  // than write back or evict dirty frames.
  EXPECT_EQ(small.stats().readahead_pages.load(), 0u);
  EXPECT_EQ(small.stats().physical_writes.load(), writes);
  for (int i = 0; i < 4; ++i) {
    auto p = small.Fetch(ids[static_cast<size_t>(i)]);
    ASSERT_TRUE(p.ok());
    EXPECT_EQ(p->data()[100], static_cast<char>(0x5A));
  }
}

TEST_F(BufferPoolReadaheadTest, FlushAllCoalescesAdjacentDirtyPages) {
  BufferPool pool(pager_.get(), 64, /*partitions=*/1);
  // New pages get consecutive ids, so dirtying them all then flushing
  // must produce one multi-page run covering every page.
  std::vector<PageId> ids;
  for (int i = 0; i < 12; ++i) {
    auto p = pool.New();
    ASSERT_TRUE(p.ok());
    ids.push_back(p->id());
    p->MarkDirty();
  }
  ASSERT_OK(pool.FlushAll());
  EXPECT_EQ(pool.stats().coalesced_writes.load(), ids.size());
  EXPECT_EQ(pool.stats().physical_writes.load(), ids.size());

  // Isolated dirty pages (no adjacent neighbor) are not counted as
  // coalesced.
  auto p = pool.Fetch(ids[0]);
  ASSERT_TRUE(p.ok());
  p->MarkDirty();
  p->Release();
  auto q = pool.Fetch(ids[5]);
  ASSERT_TRUE(q.ok());
  q->MarkDirty();
  q->Release();
  const uint64_t coalesced = pool.stats().coalesced_writes.load();
  ASSERT_OK(pool.FlushAll());
  EXPECT_EQ(pool.stats().coalesced_writes.load(), coalesced);
}

TEST_F(BufferPoolReadaheadTest, StripedPoolPrefetchAndFlushStayCorrect) {
  BufferPool pool(pager_.get(), 256, /*partitions=*/4);
  const auto ids = MakePages(&pool, 64);

  BufferPool cold(pager_.get(), 256, 4);
  cold.Prefetch(ids);
  for (PageId id : ids) {
    auto p = cold.Fetch(id);
    ASSERT_TRUE(p.ok());
    PageId stamped;
    std::memcpy(&stamped, p->data(), sizeof(PageId));
    EXPECT_EQ(stamped, id);
    p->data()[8] = static_cast<char>(id & 0xFF);
    p->MarkDirty();
  }
  ASSERT_OK(cold.FlushAll());

  BufferPool verify(pager_.get(), 256, 4);
  for (PageId id : ids) {
    auto p = verify.Fetch(id);
    ASSERT_TRUE(p.ok());
    EXPECT_EQ(p->data()[8], static_cast<char>(id & 0xFF));
  }
}

}  // namespace
}  // namespace swst
