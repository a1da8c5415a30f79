#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <memory>
#include <vector>

#include "storage/fault_injection_pager.h"
#include "storage/pager.h"

namespace swst {
namespace {

// SubmitReads must behave identically — contents and per-request statuses —
// on the memory backend and on the file backend's run-coalesced preadv
// path. The tests therefore run against both backends.
class PagerAsyncTest : public ::testing::TestWithParam<bool> {
 protected:
  // Parameter: true = file backend, false = memory backend.
  std::unique_ptr<Pager> Open() {
    if (GetParam()) {
      path_ = std::filesystem::temp_directory_path() /
              ("swst_pager_async_test_" + std::to_string(::getpid()) + ".db");
      auto p = Pager::OpenFile(path_.string(), /*truncate=*/true);
      EXPECT_TRUE(p.ok()) << p.status().ToString();
      return std::move(*p);
    }
    return Pager::OpenMemory();
  }

  void TearDown() override {
    if (!path_.empty()) std::filesystem::remove(path_);
  }

  std::filesystem::path path_;
};

void FillPattern(char* buf, PageId id) {
  for (uint32_t i = 0; i < kPageSize; ++i) {
    buf[i] = static_cast<char>((id * 131 + i) & 0xff);
  }
}

std::vector<PageId> AllocateAndWrite(Pager* pager, size_t n) {
  std::vector<PageId> ids;
  std::vector<char> buf(kPageSize);
  for (size_t i = 0; i < n; ++i) {
    auto id = pager->AllocatePage();
    EXPECT_TRUE(id.ok());
    FillPattern(buf.data(), *id);
    EXPECT_TRUE(pager->WritePage(*id, buf.data()).ok());
    ids.push_back(*id);
  }
  return ids;
}

TEST_P(PagerAsyncTest, ScatteredBatchReturnsExactContents) {
  auto pager = Open();
  const auto ids = AllocateAndWrite(pager.get(), 40);

  // Scattered order with embedded adjacent runs — the file backend sorts
  // and coalesces them, the memory backend reads page by page.
  std::vector<PageId> order;
  for (size_t i = 0; i < ids.size(); i += 4) {
    order.push_back(ids[i]);
    if (i + 1 < ids.size()) order.push_back(ids[i + 1]);
  }
  for (size_t i = 3; i < ids.size(); i += 4) order.push_back(ids[i]);

  std::vector<std::vector<char>> bufs(order.size(),
                                      std::vector<char>(kPageSize));
  std::vector<AsyncPageRead> reqs(order.size());
  for (size_t i = 0; i < order.size(); ++i) {
    reqs[i].id = order[i];
    reqs[i].buf = bufs[i].data();
  }
  auto batch = pager->SubmitReads(reqs.data(), reqs.size());
  ASSERT_NE(batch, nullptr);
  EXPECT_TRUE(batch->Await().ok());

  std::vector<char> want(kPageSize);
  for (size_t i = 0; i < order.size(); ++i) {
    EXPECT_TRUE(reqs[i].status.ok()) << reqs[i].status.ToString();
    FillPattern(want.data(), order[i]);
    EXPECT_EQ(std::memcmp(bufs[i].data(), want.data(), kPageSize), 0)
        << "page " << order[i];
  }
}

TEST_P(PagerAsyncTest, EmptyBatchCompletesImmediately) {
  auto pager = Open();
  auto batch = pager->SubmitReads(nullptr, 0);
  ASSERT_NE(batch, nullptr);
  EXPECT_TRUE(batch->Await().ok());
  EXPECT_TRUE(batch->Await().ok());  // Await is idempotent.
}

// Exact read-syscall cost of each read shape: a single page is one preadv
// over {payload, trailer}; a batch costs one preadv per run of adjacent
// page ids, whatever order the requests arrive in, and a run longer than
// kIovPages (32) pages costs one per 32-page chunk. The memory backend
// issues none.
TEST_P(PagerAsyncTest, ReadSyscallsArePinnedPerRun) {
  auto pager = Open();
  const auto ids = AllocateAndWrite(pager.get(), 100);
  const uint64_t unit = GetParam() ? 1 : 0;

  std::vector<char> buf(kPageSize);
  uint64_t before = pager->read_syscalls();
  ASSERT_TRUE(pager->ReadPage(ids[7], buf.data()).ok());
  EXPECT_EQ(pager->read_syscalls() - before, unit);

  // Each case lists its page indices in submission order and its cost.
  struct Case {
    std::vector<size_t> pages;
    uint64_t syscalls;
  };
  std::vector<Case> cases;
  Case scattered{{}, 12};  // Every other page: 12 runs of one.
  for (size_t i = 0; i < 24; i += 2) scattered.pages.push_back(i);
  cases.push_back(scattered);
  // Runs of 3, 1 and 5 pages, submitted out of order: 3 runs.
  cases.push_back({{44, 30, 41, 31, 40, 36, 32, 42, 43}, 3});
  Case long_run{{}, 3};  // 70 adjacent pages: chunks of 32, 32 and 6.
  for (size_t i = 0; i < 70; ++i) long_run.pages.push_back(69 - i);
  cases.push_back(long_run);
  Case mixed{{}, 3};  // A 33-page run (2 chunks), a hole, a 2-page run.
  for (size_t i = 50; i < 83; ++i) mixed.pages.push_back(i);
  mixed.pages.push_back(84);
  mixed.pages.push_back(85);
  cases.push_back(mixed);

  std::vector<char> want(kPageSize);
  for (const Case& c : cases) {
    std::vector<std::vector<char>> bufs(c.pages.size(),
                                        std::vector<char>(kPageSize));
    std::vector<AsyncPageRead> reqs(c.pages.size());
    for (size_t i = 0; i < c.pages.size(); ++i) {
      reqs[i].id = ids[c.pages[i]];
      reqs[i].buf = bufs[i].data();
    }
    before = pager->read_syscalls();
    ASSERT_TRUE(pager->SubmitReads(reqs.data(), reqs.size())->Await().ok());
    EXPECT_EQ(pager->read_syscalls() - before, unit * c.syscalls)
        << c.pages.size() << "-page batch";
    for (size_t i = 0; i < c.pages.size(); ++i) {
      FillPattern(want.data(), reqs[i].id);
      EXPECT_EQ(std::memcmp(bufs[i].data(), want.data(), kPageSize), 0);
    }
  }
}

TEST_P(PagerAsyncTest, PerRequestStatusIsolatesBadPage) {
  auto pager = Open();
  const auto ids = AllocateAndWrite(pager.get(), 8);

  std::vector<std::vector<char>> bufs(ids.size() + 1,
                                      std::vector<char>(kPageSize));
  std::vector<AsyncPageRead> reqs(ids.size() + 1);
  for (size_t i = 0; i < ids.size(); ++i) {
    reqs[i].id = ids[i];
    reqs[i].buf = bufs[i].data();
  }
  // A page id far past the end of the backing store.
  reqs[ids.size()].id = ids.back() + 1000;
  reqs[ids.size()].buf = bufs[ids.size()].data();

  auto batch = pager->SubmitReads(reqs.data(), reqs.size());
  EXPECT_FALSE(batch->Await().ok());  // First error is surfaced...
  std::vector<char> want(kPageSize);
  for (size_t i = 0; i < ids.size(); ++i) {
    // ...but every other request still completed with its own payload.
    EXPECT_TRUE(reqs[i].status.ok()) << reqs[i].status.ToString();
    FillPattern(want.data(), ids[i]);
    EXPECT_EQ(std::memcmp(bufs[i].data(), want.data(), kPageSize), 0);
  }
  EXPECT_FALSE(reqs[ids.size()].status.ok());
}

INSTANTIATE_TEST_SUITE_P(Backends, PagerAsyncTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "File" : "Memory";
                         });

TEST(PagerAsyncFileTest, CorruptPageFailsItsRequestOnly) {
  const auto path =
      std::filesystem::temp_directory_path() /
      ("swst_pager_async_corrupt_" + std::to_string(::getpid()) + ".db");
  auto opened = Pager::OpenFile(path.string(), /*truncate=*/true);
  ASSERT_TRUE(opened.ok());
  auto pager = std::move(*opened);
  const auto ids = AllocateAndWrite(pager.get(), 6);
  ASSERT_TRUE(pager->CorruptPageForTesting(ids[3], 100, 16).ok());

  for (const bool async : {true, false}) {
    pager->SetAsyncReads(async);
    std::vector<std::vector<char>> bufs(ids.size(),
                                        std::vector<char>(kPageSize));
    std::vector<AsyncPageRead> reqs(ids.size());
    for (size_t i = 0; i < ids.size(); ++i) {
      reqs[i].id = ids[i];
      reqs[i].buf = bufs[i].data();
    }
    auto batch = pager->SubmitReads(reqs.data(), reqs.size());
    Status overall = batch->Await();
    EXPECT_TRUE(overall.IsCorruption()) << overall.ToString();
    for (size_t i = 0; i < ids.size(); ++i) {
      if (i == 3) {
        EXPECT_TRUE(reqs[i].status.IsCorruption());
      } else {
        EXPECT_TRUE(reqs[i].status.ok()) << reqs[i].status.ToString();
      }
    }
  }
  std::filesystem::remove(path);
}

// The fault decorator must observe batched reads page by page: deterministic
// Nth-read faults, unsynced buffered images, and torn-page corruption all
// fire through SubmitReads exactly as they do through single ReadPage calls.
TEST(FaultInjectionAsyncTest, NthReadFaultFiresInsideBatch) {
  auto base = Pager::OpenMemory();
  FaultInjectionPager faults(base.get());
  const auto ids = AllocateAndWrite(&faults, 10);

  FaultInjectionPager::FaultPolicy policy;
  policy.fail_read_at = faults.reads() + 4;  // The 4th page of the batch.
  faults.set_policy(policy);

  std::vector<std::vector<char>> bufs(ids.size(),
                                      std::vector<char>(kPageSize));
  std::vector<AsyncPageRead> reqs(ids.size());
  for (size_t i = 0; i < ids.size(); ++i) {
    reqs[i].id = ids[i];
    reqs[i].buf = bufs[i].data();
  }
  const uint64_t submits_before = faults.batch_submits();
  auto batch = faults.SubmitReads(reqs.data(), reqs.size());
  EXPECT_FALSE(batch->Await().ok());
  EXPECT_EQ(faults.batch_submits(), submits_before + 1);

  std::vector<char> want(kPageSize);
  for (size_t i = 0; i < ids.size(); ++i) {
    if (i == 3) {
      EXPECT_FALSE(reqs[i].status.ok());
      continue;
    }
    EXPECT_TRUE(reqs[i].status.ok()) << i << ": " << reqs[i].status.ToString();
    FillPattern(want.data(), ids[i]);
    EXPECT_EQ(std::memcmp(bufs[i].data(), want.data(), kPageSize), 0);
  }
}

TEST(FaultInjectionAsyncTest, BatchServesUnsyncedImagesAndSurvivesCrash) {
  auto base = Pager::OpenMemory();
  FaultInjectionPager faults(base.get());
  const auto ids = AllocateAndWrite(&faults, 4);
  ASSERT_TRUE(faults.Sync().ok());

  // Overwrite page 1 without syncing: the batch must see the new image
  // (write-back cache semantics), and after a crash the old one.
  std::vector<char> newimg(kPageSize, 0x5A);
  ASSERT_TRUE(faults.WritePage(ids[1], newimg.data()).ok());

  auto read_all = [&](std::vector<std::vector<char>>* out) {
    out->assign(ids.size(), std::vector<char>(kPageSize));
    std::vector<AsyncPageRead> reqs(ids.size());
    for (size_t i = 0; i < ids.size(); ++i) {
      reqs[i].id = ids[i];
      reqs[i].buf = (*out)[i].data();
    }
    auto batch = faults.SubmitReads(reqs.data(), reqs.size());
    ASSERT_TRUE(batch->Await().ok());
    for (const auto& r : reqs) ASSERT_TRUE(r.status.ok());
  };

  std::vector<std::vector<char>> got;
  read_all(&got);
  EXPECT_EQ(std::memcmp(got[1].data(), newimg.data(), kPageSize), 0);

  ASSERT_TRUE(faults.CrashAndRecover().ok());
  std::vector<char> want(kPageSize);
  FillPattern(want.data(), ids[1]);
  read_all(&got);
  EXPECT_EQ(std::memcmp(got[1].data(), want.data(), kPageSize), 0);
}

TEST(FaultInjectionAsyncTest, TornWriteSurfacesThroughBatchAfterCrash) {
  const auto path =
      std::filesystem::temp_directory_path() /
      ("swst_fault_async_torn_" + std::to_string(::getpid()) + ".db");
  auto opened = Pager::OpenFile(path.string(), /*truncate=*/true);
  ASSERT_TRUE(opened.ok());
  auto base = std::move(*opened);
  FaultInjectionPager faults(base.get());
  const auto ids = AllocateAndWrite(&faults, 3);
  ASSERT_TRUE(faults.Sync().ok());

  FaultInjectionPager::FaultPolicy policy;
  policy.torn_write_at = faults.writes() + 1;
  faults.set_policy(policy);
  std::vector<char> img(kPageSize, 0x33);
  ASSERT_TRUE(faults.WritePage(ids[2], img.data()).ok());
  faults.ClearFaults();
  ASSERT_TRUE(faults.CrashAndRecover().ok());

  std::vector<std::vector<char>> bufs(ids.size(),
                                      std::vector<char>(kPageSize));
  std::vector<AsyncPageRead> reqs(ids.size());
  for (size_t i = 0; i < ids.size(); ++i) {
    reqs[i].id = ids[i];
    reqs[i].buf = bufs[i].data();
  }
  auto batch = faults.SubmitReads(reqs.data(), reqs.size());
  EXPECT_TRUE(batch->Await().IsCorruption());
  EXPECT_TRUE(reqs[0].status.ok());
  EXPECT_TRUE(reqs[1].status.ok());
  EXPECT_TRUE(reqs[2].status.IsCorruption()) << reqs[2].status.ToString();
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace swst
