// Unit tests for the write-ahead log: record framing round-trips, CRC
// rejection of corrupt and torn frames, segment rotation, LSN monotonicity
// across reopen, durable-LSN semantics, and checkpoint truncation — over
// both the in-memory and the directory-of-files store, plus the
// fault-injection decorator's crash model, the directory store's
// preallocated segment tails, and a killed writer process.

#include <gtest/gtest.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "storage/fault_injection_wal.h"
#include "storage/wal.h"
#include "tests/test_util.h"

namespace swst {
namespace {

struct Rec {
  Lsn lsn;
  WalRecordType type;
  std::string payload;

  friend bool operator==(const Rec&, const Rec&) = default;
};

/// Replays `wal` from `from` and collects everything delivered.
Result<WalReplayResult> Collect(Wal* wal, Lsn from, std::vector<Rec>* out) {
  out->clear();
  return wal->Replay(from, [out](Lsn lsn, WalRecordType type,
                                 const char* payload, uint32_t len) {
    out->push_back(Rec{lsn, type, std::string(payload, len)});
    return Status::OK();
  });
}

Result<Lsn> AppendStr(Wal* wal, const std::string& s,
                      WalRecordType type = WalRecordType::kNote) {
  return wal->Append(type, s.data(), static_cast<uint32_t>(s.size()));
}

TEST(WalTest, AppendAssignsDenseMonotonicLsns) {
  auto store = WalStore::OpenMemory();
  auto wal = Wal::Open(store.get());
  ASSERT_TRUE(wal.ok());
  EXPECT_EQ((*wal)->last_lsn(), kInvalidLsn);
  for (Lsn want = 1; want <= 100; ++want) {
    auto lsn = AppendStr(wal->get(), "r" + std::to_string(want));
    ASSERT_TRUE(lsn.ok());
    EXPECT_EQ(*lsn, want);
  }
  EXPECT_EQ((*wal)->last_lsn(), 100u);
}

TEST(WalTest, ReplayRoundTripsFramesAndPayloads) {
  auto store = WalStore::OpenMemory();
  auto wal = Wal::Open(store.get());
  ASSERT_TRUE(wal.ok());
  std::vector<Rec> want;
  const WalRecordType types[] = {WalRecordType::kInsert, WalRecordType::kDelete,
                                 WalRecordType::kClose, WalRecordType::kAdvance,
                                 WalRecordType::kNote};
  for (int i = 0; i < 40; ++i) {
    const std::string payload(i * 3, static_cast<char>('a' + i % 26));
    const WalRecordType t = types[i % 5];
    auto lsn = AppendStr(wal->get(), payload, t);
    ASSERT_TRUE(lsn.ok());
    want.push_back(Rec{*lsn, t, payload});
  }
  std::vector<Rec> got;
  auto rr = Collect(wal->get(), 1, &got);
  ASSERT_TRUE(rr.ok());
  EXPECT_EQ(got, want);
  EXPECT_FALSE(rr->torn_tail);
  EXPECT_EQ(rr->records_delivered, 40u);
  EXPECT_EQ(rr->records_skipped, 0u);
  EXPECT_EQ(rr->first_lsn, 1u);
  EXPECT_EQ(rr->last_lsn, 40u);
}

TEST(WalTest, ReplayFromSkipsThePrefix) {
  auto store = WalStore::OpenMemory();
  auto wal = Wal::Open(store.get());
  ASSERT_TRUE(wal.ok());
  for (int i = 1; i <= 10; ++i) {
    ASSERT_TRUE(AppendStr(wal->get(), std::to_string(i)).ok());
  }
  std::vector<Rec> got;
  auto rr = Collect(wal->get(), 7, &got);
  ASSERT_TRUE(rr.ok());
  EXPECT_EQ(rr->records_skipped, 6u);
  EXPECT_EQ(rr->records_delivered, 4u);
  ASSERT_EQ(got.size(), 4u);
  EXPECT_EQ(got.front().lsn, 7u);
  EXPECT_EQ(got.back().lsn, 10u);
  // `from` past the end delivers nothing but still reports last_lsn.
  rr = Collect(wal->get(), 11, &got);
  ASSERT_TRUE(rr.ok());
  EXPECT_TRUE(got.empty());
  EXPECT_EQ(rr->last_lsn, 10u);
}

TEST(WalTest, DurableLsnAdvancesOnlyOnSync) {
  auto store = WalStore::OpenMemory();
  auto wal = Wal::Open(store.get());
  ASSERT_TRUE(wal.ok());
  ASSERT_TRUE(AppendStr(wal->get(), "a").ok());
  ASSERT_TRUE(AppendStr(wal->get(), "b").ok());
  EXPECT_EQ((*wal)->last_lsn(), 2u);
  EXPECT_EQ((*wal)->durable_lsn(), 0u);
  ASSERT_OK((*wal)->Sync());
  EXPECT_EQ((*wal)->durable_lsn(), 2u);
  // Idempotent: nothing new appended, sync is a no-op.
  ASSERT_OK((*wal)->Sync());
  EXPECT_EQ((*wal)->durable_lsn(), 2u);
}

TEST(WalTest, GroupCommitIsOneBackendSyncForManyAppends) {
  auto base = WalStore::OpenMemory();
  FaultInjectionWalStore store(base.get());
  auto wal = Wal::Open(&store);
  ASSERT_TRUE(wal.ok());
  const uint64_t syncs_after_open = store.syncs();
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(AppendStr(wal->get(), "payload").ok());
  }
  ASSERT_OK((*wal)->Sync());
  EXPECT_EQ(store.syncs() - syncs_after_open, 1u);
  EXPECT_EQ((*wal)->durable_lsn(), 1000u);
}

TEST(WalTest, CrcRejectsABitFlippedRecord) {
  auto store = WalStore::OpenMemory();
  auto wal = Wal::Open(store.get());
  ASSERT_TRUE(wal.ok());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(AppendStr(wal->get(), "record-payload").ok());
  }
  ASSERT_OK((*wal)->Sync());
  // Flip one payload byte of the 6th record: header (32) + 5 full frames,
  // then past the 6th frame's header.
  const uint64_t frame = sizeof(WalRecordHeader) + 14;
  const uint64_t off =
      sizeof(WalSegmentHeader) + 5 * frame + sizeof(WalRecordHeader) + 3;
  ASSERT_OK(store->CorruptForTesting((*wal)->current_segment(), off, 1));
  std::vector<Rec> got;
  auto rr = Collect(wal->get(), 1, &got);
  ASSERT_TRUE(rr.ok());
  EXPECT_TRUE(rr->torn_tail);
  EXPECT_EQ(rr->records_delivered, 5u);  // Verified prefix only.
  EXPECT_EQ(got.back().lsn, 5u);
}

TEST(WalTest, TornTailSurvivesOnlyAsAVerifiedPrefix) {
  auto base = WalStore::OpenMemory();
  FaultInjectionWalStore store(base.get());
  auto wal = Wal::Open(&store);
  ASSERT_TRUE(wal.ok());
  // 3 synced records, then 3 un-synced ones; the crash persists a prefix of
  // the un-synced tail that cuts the 5th record's frame mid-way.
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(AppendStr(wal->get(), "AAAA").ok());
  ASSERT_OK((*wal)->Sync());
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(AppendStr(wal->get(), "BBBB").ok());
  FaultInjectionWalStore::FaultPolicy policy;
  policy.torn_tail_bytes = sizeof(WalRecordHeader) + 4 + 7;  // rec4 + part.
  store.set_policy(policy);
  ASSERT_OK(store.CrashAndRecover());
  store.ClearFaults();

  auto wal2 = Wal::Open(&store);
  ASSERT_TRUE(wal2.ok());
  // Records 1-4 survive whole (3 synced + 1 torn-prefix-complete); record 5
  // is cut mid-frame and must be rejected, 6 is gone entirely.
  std::vector<Rec> got;
  auto rr = Collect(wal2->get(), 1, &got);
  ASSERT_TRUE(rr.ok());
  EXPECT_TRUE(rr->torn_tail);
  ASSERT_EQ(got.size(), 4u);
  EXPECT_EQ(got.back().lsn, 4u);
  EXPECT_EQ(got.back().payload, "BBBB");
  // The reopened log continues LSNs after the verified prefix.
  EXPECT_EQ((*wal2)->last_lsn(), 4u);
  auto lsn = AppendStr(wal2->get(), "next");
  ASSERT_TRUE(lsn.ok());
  EXPECT_EQ(*lsn, 5u);
}

TEST(WalTest, CrashDropsUnsyncedRecordsEntirely) {
  auto base = WalStore::OpenMemory();
  FaultInjectionWalStore store(base.get());
  auto wal = Wal::Open(&store);
  ASSERT_TRUE(wal.ok());
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(AppendStr(wal->get(), "dur").ok());
  ASSERT_OK((*wal)->Sync());
  for (int i = 0; i < 7; ++i) ASSERT_TRUE(AppendStr(wal->get(), "vol").ok());
  EXPECT_GT(store.unsynced_bytes(), 0u);
  ASSERT_OK(store.CrashAndRecover());  // No torn bytes configured.

  auto wal2 = Wal::Open(&store);
  ASSERT_TRUE(wal2.ok());
  std::vector<Rec> got;
  auto rr = Collect(wal2->get(), 1, &got);
  ASSERT_TRUE(rr.ok());
  EXPECT_EQ(rr->records_delivered, 5u);
  EXPECT_EQ((*wal2)->last_lsn(), 5u);
}

TEST(WalTest, SegmentsRotateOnQuotaAndReplaySpansThem) {
  auto store = WalStore::OpenMemory();
  WalOptions opts;
  opts.segment_bytes = 256;  // A handful of records per segment.
  auto wal = Wal::Open(store.get(), opts);
  ASSERT_TRUE(wal.ok());
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(AppendStr(wal->get(), std::string(20, 'x')).ok());
  }
  EXPECT_GT((*wal)->segment_count(), 3u);
  std::vector<Rec> got;
  auto rr = Collect(wal->get(), 1, &got);
  ASSERT_TRUE(rr.ok());
  EXPECT_EQ(rr->records_delivered, 50u);
  EXPECT_FALSE(rr->torn_tail);
  EXPECT_EQ(rr->segments_scanned, (*wal)->segment_count());
  for (size_t i = 0; i < got.size(); ++i) EXPECT_EQ(got[i].lsn, i + 1);
}

TEST(WalTest, OversizedRecordNeverSplitsASegment) {
  // A record larger than segment_bytes still lands whole: the quota only
  // rotates *between* records.
  auto store = WalStore::OpenMemory();
  WalOptions opts;
  opts.segment_bytes = 128;
  auto wal = Wal::Open(store.get(), opts);
  ASSERT_TRUE(wal.ok());
  const std::string big(1000, 'B');
  ASSERT_TRUE(AppendStr(wal->get(), big).ok());
  ASSERT_TRUE(AppendStr(wal->get(), "after").ok());
  std::vector<Rec> got;
  auto rr = Collect(wal->get(), 1, &got);
  ASSERT_TRUE(rr.ok());
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0].payload, big);
  EXPECT_EQ(got[1].payload, "after");
}

TEST(WalTest, PayloadAboveHardCapIsRejected) {
  auto store = WalStore::OpenMemory();
  auto wal = Wal::Open(store.get());
  ASSERT_TRUE(wal.ok());
  std::vector<char> big(Wal::kMaxPayload + 1);
  auto lsn = (*wal)->Append(WalRecordType::kNote, big.data(),
                            static_cast<uint32_t>(big.size()));
  EXPECT_TRUE(lsn.status().IsInvalidArgument());
  EXPECT_EQ((*wal)->last_lsn(), kInvalidLsn);  // No LSN burned.
}

TEST(WalTest, TruncateBeforeDeletesOnlyWhollyCoveredSegments) {
  auto store = WalStore::OpenMemory();
  WalOptions opts;
  opts.segment_bytes = 256;
  auto wal = Wal::Open(store.get(), opts);
  ASSERT_TRUE(wal.ok());
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(AppendStr(wal->get(), std::string(20, 'x')).ok());
  }
  const uint64_t before = (*wal)->segment_count();
  ASSERT_GT(before, 3u);

  // Truncating before LSN 1 deletes nothing.
  ASSERT_OK((*wal)->TruncateBefore(1));
  EXPECT_EQ((*wal)->segment_count(), before);

  // Truncating past the end keeps the current segment but drops the rest.
  ASSERT_OK((*wal)->TruncateBefore((*wal)->last_lsn() + 1));
  EXPECT_EQ((*wal)->segment_count(), 1u);

  // Records in the surviving segment still replay; the prefix is gone.
  std::vector<Rec> got;
  auto rr = Collect(wal->get(), 1, &got);
  ASSERT_TRUE(rr.ok());
  EXPECT_FALSE(got.empty());
  EXPECT_EQ(got.back().lsn, 50u);
  for (const Rec& r : got) {
    EXPECT_EQ(r.payload, std::string(20, 'x'));
  }
}

TEST(WalTest, TruncateAtMidLsnKeepsTheSegmentHoldingIt) {
  auto store = WalStore::OpenMemory();
  WalOptions opts;
  opts.segment_bytes = 256;
  auto wal = Wal::Open(store.get(), opts);
  ASSERT_TRUE(wal.ok());
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(AppendStr(wal->get(), std::string(20, 'x')).ok());
  }
  const Lsn cut = 25;
  ASSERT_OK((*wal)->TruncateBefore(cut));
  // Every record >= cut must still be replayable.
  std::vector<Rec> got;
  auto rr = Collect(wal->get(), cut, &got);
  ASSERT_TRUE(rr.ok());
  ASSERT_FALSE(got.empty());
  EXPECT_EQ(got.front().lsn, cut);
  EXPECT_EQ(got.back().lsn, 50u);
}

TEST(WalTest, ReopenContinuesLsnsInAFreshSegment) {
  auto store = WalStore::OpenMemory();
  Lsn last = 0;
  uint64_t old_segment = 0;
  {
    auto wal = Wal::Open(store.get());
    ASSERT_TRUE(wal.ok());
    for (int i = 0; i < 20; ++i) {
      ASSERT_TRUE(AppendStr(wal->get(), "first-life").ok());
    }
    ASSERT_OK((*wal)->Sync());
    last = (*wal)->last_lsn();
    old_segment = (*wal)->current_segment();
  }
  auto wal = Wal::Open(store.get());
  ASSERT_TRUE(wal.ok());
  EXPECT_EQ((*wal)->last_lsn(), last);
  EXPECT_EQ((*wal)->durable_lsn(), last);
  // Rotate-on-open: appends never extend a possibly-torn tail.
  EXPECT_GT((*wal)->current_segment(), old_segment);
  auto lsn = AppendStr(wal->get(), "second-life");
  ASSERT_TRUE(lsn.ok());
  EXPECT_EQ(*lsn, last + 1);
  std::vector<Rec> got;
  auto rr = Collect(wal->get(), 1, &got);
  ASSERT_TRUE(rr.ok());
  EXPECT_EQ(rr->records_delivered, 21u);
  EXPECT_FALSE(rr->torn_tail);
}

// Regression: checkpoint truncation can leave a log holding only empty
// rotated segments (every record-bearing one wholly below the watermark
// was deleted). A reopen used to derive last_lsn from surviving records
// alone and restart numbering at 1 — below the checkpoint watermark in
// the index metadata, so recovery skipped freshly acked records as
// "already applied". The segment header's first_lsn is the floor.
TEST(WalTest, ReopenAfterFullTruncationNeverReusesLsns) {
  auto store = WalStore::OpenMemory();
  Lsn last = 0;
  {
    auto wal = Wal::Open(store.get());
    ASSERT_TRUE(wal.ok());
    for (int i = 0; i < 5; ++i) {
      ASSERT_TRUE(AppendStr(wal->get(), "checkpointed").ok());
    }
    ASSERT_OK((*wal)->Sync());
    last = (*wal)->last_lsn();
  }
  {
    // Second life appends nothing; truncating at last+1 deletes the
    // first life's segment, leaving only the fresh empty one.
    auto wal = Wal::Open(store.get());
    ASSERT_TRUE(wal.ok());
    ASSERT_OK((*wal)->TruncateBefore(last + 1));
    auto rescan = (*wal)->Replay(1, nullptr);
    ASSERT_TRUE(rescan.ok());
    ASSERT_EQ(rescan->records_delivered, 0u) << "records survived truncation";
  }
  auto wal = Wal::Open(store.get());
  ASSERT_TRUE(wal.ok());
  EXPECT_EQ((*wal)->last_lsn(), last) << "LSNs restarted after truncation";
  auto lsn = AppendStr(wal->get(), "after-truncation");
  ASSERT_TRUE(lsn.ok());
  EXPECT_EQ(*lsn, last + 1);
}

TEST(WalTest, FailedAppendSealsTheSegmentAndRecovers) {
  auto base = WalStore::OpenMemory();
  FaultInjectionWalStore store(base.get());
  auto wal = Wal::Open(&store);
  ASSERT_TRUE(wal.ok());
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(AppendStr(wal->get(), "ok").ok());

  FaultInjectionWalStore::FaultPolicy policy;
  policy.fail_append_at = store.appends() + 1;
  store.set_policy(policy);
  auto failed = AppendStr(wal->get(), "doomed");
  EXPECT_FALSE(failed.ok());
  EXPECT_EQ((*wal)->last_lsn(), 3u);  // The LSN was not burned.
  store.ClearFaults();

  // The next append rotates to a fresh segment and the log stays whole.
  auto lsn = AppendStr(wal->get(), "alive");
  ASSERT_TRUE(lsn.ok());
  EXPECT_EQ(*lsn, 4u);
  std::vector<Rec> got;
  auto rr = Collect(wal->get(), 1, &got);
  ASSERT_TRUE(rr.ok());
  EXPECT_EQ(rr->records_delivered, 4u);
  EXPECT_EQ(got.back().payload, "alive");
}

TEST(WalTest, DirStoreRoundTripsAcrossProcessReopen) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("swst_wal_test_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  auto store = WalStore::OpenDir(dir.string());
  ASSERT_TRUE(store.ok());
  {
    WalOptions opts;
    opts.segment_bytes = 512;
    auto wal = Wal::Open(store->get(), opts);
    ASSERT_TRUE(wal.ok());
    for (int i = 0; i < 30; ++i) {
      ASSERT_TRUE(
          AppendStr(wal->get(), "disk-" + std::to_string(i)).ok());
    }
    ASSERT_OK((*wal)->Sync());
  }
  // A brand-new store over the same directory (fresh fds, real files).
  auto store2 = WalStore::OpenDir(dir.string());
  ASSERT_TRUE(store2.ok());
  auto wal = Wal::Open(store2->get());
  ASSERT_TRUE(wal.ok());
  std::vector<Rec> got;
  auto rr = Collect(wal->get(), 1, &got);
  ASSERT_TRUE(rr.ok());
  ASSERT_EQ(rr->records_delivered, 30u);
  EXPECT_EQ(got[7].payload, "disk-7");
  EXPECT_FALSE(rr->torn_tail);
  std::filesystem::remove_all(dir);
}

TEST(WalTest, DirStoreCorruptionIsDetectedAfterReopen) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("swst_wal_corrupt_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  auto store = WalStore::OpenDir(dir.string());
  ASSERT_TRUE(store.ok());
  uint64_t seg = 0;
  {
    auto wal = Wal::Open(store->get());
    ASSERT_TRUE(wal.ok());
    for (int i = 0; i < 8; ++i) {
      ASSERT_TRUE(AppendStr(wal->get(), "12345678").ok());
    }
    ASSERT_OK((*wal)->Sync());
    seg = (*wal)->current_segment();
  }
  // Rot a byte in record 4's payload on disk.
  const uint64_t frame = sizeof(WalRecordHeader) + 8;
  ASSERT_OK(store->get()->CorruptForTesting(
      seg, sizeof(WalSegmentHeader) + 3 * frame + sizeof(WalRecordHeader), 1));
  auto wal = Wal::Open(store->get());
  ASSERT_TRUE(wal.ok());
  EXPECT_EQ((*wal)->last_lsn(), 3u);  // Only the prefix before the rot.
  std::filesystem::remove_all(dir);
}

/// A fresh directory for one directory-store test, removed on scope exit.
struct ScratchDir {
  explicit ScratchDir(const std::string& tag)
      : path(std::filesystem::temp_directory_path() /
             (tag + "_" + std::to_string(::getpid()))) {
    std::filesystem::remove_all(path);
  }
  ~ScratchDir() { std::filesystem::remove_all(path); }
  std::filesystem::path path;
};

uint64_t SegmentFileSize(const ScratchDir& dir, uint64_t seq) {
  char name[32];
  std::snprintf(name, sizeof(name), "wal-%012llu.log",
                static_cast<unsigned long long>(seq));
  struct stat st;
  if (::stat((dir.path / name).c_str(), &st) != 0) return 0;
  return static_cast<uint64_t>(st.st_size);
}

uint64_t RoundUpToExtent(uint64_t bytes) {
  return (bytes + kWalExtentBytes - 1) / kWalExtentBytes * kWalExtentBytes;
}

TEST(WalTest, DirStorePreallocatedTailReplaysCleanlyAfterReopen) {
  ScratchDir dir("swst_wal_tail");
  uint64_t seg = 0;
  {
    auto store = WalStore::OpenDir(dir.path.string());
    ASSERT_TRUE(store.ok());
    auto wal = Wal::Open(store->get());
    ASSERT_TRUE(wal.ok());
    for (int i = 0; i < 20; ++i) {
      ASSERT_TRUE(AppendStr(wal->get(), "tail-" + std::to_string(i)).ok());
    }
    ASSERT_OK((*wal)->Sync());
    seg = (*wal)->current_segment();
  }
  // 20 small records fill a sliver of the first extent; the rest of the
  // file is the zero tail.
  EXPECT_EQ(SegmentFileSize(dir, seg), kWalExtentBytes);

  auto store = WalStore::OpenDir(dir.path.string());
  ASSERT_TRUE(store.ok());
  auto wal = Wal::Open(store->get());
  ASSERT_TRUE(wal.ok());
  EXPECT_EQ((*wal)->last_lsn(), 20u);
  std::vector<Rec> got;
  auto rr = Collect(wal->get(), 1, &got);
  ASSERT_TRUE(rr.ok());
  EXPECT_EQ(rr->records_delivered, 20u);
  EXPECT_FALSE(rr->torn_tail);
  EXPECT_EQ(got.back().payload, "tail-19");
}

TEST(WalTest, DirStoreByteAfterTheZeroHeaderIsATornTail) {
  ScratchDir dir("swst_wal_forged");
  auto store = WalStore::OpenDir(dir.path.string());
  ASSERT_TRUE(store.ok());
  uint64_t seg = 0;
  {
    auto wal = Wal::Open(store->get());
    ASSERT_TRUE(wal.ok());
    for (int i = 0; i < 5; ++i) {
      ASSERT_TRUE(AppendStr(wal->get(), "12345678").ok());
    }
    ASSERT_OK((*wal)->Sync());
    seg = (*wal)->current_segment();
  }
  // Forge a non-zero byte past the all-zero frame header that ends the
  // records: a later frame whose predecessor never reached the file.
  const uint64_t end =
      sizeof(WalSegmentHeader) + 5 * (sizeof(WalRecordHeader) + 8);
  ASSERT_OK(store->get()->CorruptForTesting(
      seg, end + sizeof(WalRecordHeader) + 100, 1));
  auto wal = Wal::Open(store->get());
  ASSERT_TRUE(wal.ok());
  EXPECT_EQ((*wal)->last_lsn(), 5u);
  std::vector<Rec> got;
  auto rr = Collect(wal->get(), 1, &got);
  ASSERT_TRUE(rr.ok());
  EXPECT_EQ(rr->records_delivered, 5u);
  EXPECT_TRUE(rr->torn_tail);
}

TEST(WalTest, DirStoreSegmentGrowsInWholeExtents) {
  ScratchDir dir("swst_wal_extents");
  auto store = WalStore::OpenDir(dir.path.string());
  ASSERT_TRUE(store.ok());
  auto wal = Wal::Open(store->get());
  ASSERT_TRUE(wal.ok());
  const uint64_t seg = (*wal)->current_segment();
  uint64_t written = sizeof(WalSegmentHeader);
  EXPECT_EQ(SegmentFileSize(dir, seg), kWalExtentBytes);
  const std::string payload(1000, 'x');
  for (int i = 0; i < 300; ++i) {
    ASSERT_TRUE(AppendStr(wal->get(), payload).ok());
    written += sizeof(WalRecordHeader) + payload.size();
    // Exactly the whole extents covering the bytes written: the size
    // steps by one extent at a time and never falls behind the records.
    ASSERT_EQ(SegmentFileSize(dir, seg), RoundUpToExtent(written))
        << "after record " << i;
  }
  ASSERT_EQ((*wal)->current_segment(), seg);  // No rotation on the way.
  EXPECT_GT(written, 4 * kWalExtentBytes);
}

TEST(WalTest, DirStoreKilledWriterKeepsEverySyncedRecord) {
  ScratchDir dir("swst_wal_kill");
  constexpr int kRecords = 400;
  const std::string pad(200, 'p');  // 400 frames span two extents.
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // The child reports through its exit status and dies in _exit: no
    // destructor closes a file or runs a Wal teardown.
    auto store = WalStore::OpenDir(dir.path.string());
    if (!store.ok()) ::_exit(2);
    auto wal = Wal::Open(store->get());
    if (!wal.ok()) ::_exit(3);
    for (int i = 0; i < kRecords; ++i) {
      if (!AppendStr(wal->get(), std::to_string(i) + pad).ok() ||
          !(*wal)->Sync().ok()) {
        ::_exit(4);
      }
    }
    ::_exit(0);
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status));
  ASSERT_EQ(WEXITSTATUS(status), 0);

  auto store = WalStore::OpenDir(dir.path.string());
  ASSERT_TRUE(store.ok());
  auto wal = Wal::Open(store->get());
  ASSERT_TRUE(wal.ok());
  EXPECT_EQ((*wal)->last_lsn(), static_cast<Lsn>(kRecords));
  std::vector<Rec> got;
  auto rr = Collect(wal->get(), 1, &got);
  ASSERT_TRUE(rr.ok());
  EXPECT_EQ(rr->records_delivered, static_cast<uint64_t>(kRecords));
  EXPECT_FALSE(rr->torn_tail);
  EXPECT_EQ(got.back().payload, std::to_string(kRecords - 1) + pad);
}

TEST(WalTest, MetricsAreRegisteredAndCount) {
  obs::MetricsRegistry registry;
  auto store = WalStore::OpenMemory();
  WalOptions opts;
  opts.metrics = &registry;
  auto wal = Wal::Open(store.get(), opts);
  ASSERT_TRUE(wal.ok());
  for (int i = 0; i < 12; ++i) ASSERT_TRUE(AppendStr(wal->get(), "m").ok());
  ASSERT_OK((*wal)->Sync());
  std::vector<Rec> got;
  ASSERT_TRUE(Collect(wal->get(), 1, &got).ok());

  const std::string text = registry.RenderPrometheus();
  EXPECT_NE(text.find("swst_wal_records_total 12"), std::string::npos) << text;
  EXPECT_NE(text.find("swst_wal_last_lsn 12"), std::string::npos);
  EXPECT_NE(text.find("swst_wal_durable_lsn 12"), std::string::npos);
  EXPECT_NE(text.find("swst_wal_replay_records_total 12"), std::string::npos);
  EXPECT_NE(text.find("swst_wal_syncs_total"), std::string::npos);
  EXPECT_NE(text.find("swst_wal_group_commit_records"), std::string::npos);

  // Destruction removes only the callback gauges; counters persist.
  wal->reset();
  const std::string after = registry.RenderPrometheus();
  EXPECT_EQ(after.find("swst_wal_last_lsn"), std::string::npos);
  EXPECT_NE(after.find("swst_wal_records_total 12"), std::string::npos);
}

}  // namespace
}  // namespace swst
