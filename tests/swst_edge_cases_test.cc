#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "storage/wal.h"
#include "swst/swst_index.h"
#include "tests/test_util.h"

namespace swst {
namespace {

SwstOptions SmallOptions() {
  SwstOptions o;
  o.space = Rect{{0, 0}, {1000, 1000}};
  o.x_partitions = 4;
  o.y_partitions = 4;
  o.window_size = 1000;
  o.slide = 50;  // Sp = 21, epoch = 1050.
  o.max_duration = 200;
  o.duration_interval = 50;
  o.zcurve_bits = 6;
  return o;
}

class EdgeCaseTest : public PoolTest {
 protected:
  std::unique_ptr<SwstIndex> Make(const SwstOptions& o) {
    auto idx = SwstIndex::Create(pool(), o);
    EXPECT_TRUE(idx.ok());
    return std::move(*idx);
  }
};

TEST_F(EdgeCaseTest, EntryAtDomainCorners) {
  auto idx = Make(SmallOptions());
  // All four corners, including the inclusive upper edge.
  ASSERT_OK(idx->Insert(MakeEntry(1, 0, 0, 10, 50)));
  ASSERT_OK(idx->Insert(MakeEntry(2, 1000, 0, 10, 50)));
  ASSERT_OK(idx->Insert(MakeEntry(3, 0, 1000, 10, 50)));
  ASSERT_OK(idx->Insert(MakeEntry(4, 1000, 1000, 10, 50)));
  ASSERT_OK(idx->Advance(40));
  auto r = idx->TimesliceQuery(Rect{{0, 0}, {1000, 1000}}, 30);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->size(), 4u);
  // Corner-point query areas.
  r = idx->TimesliceQuery(Rect{{1000, 1000}, {1000, 1000}}, 30);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->size(), 1u);
  EXPECT_EQ((*r)[0].oid, 4u);
}

TEST_F(EdgeCaseTest, EntryOnGridCellBoundary) {
  auto idx = Make(SmallOptions());  // Cells are 250 wide.
  ASSERT_OK(idx->Insert(MakeEntry(1, 250, 250, 10, 50)));
  ASSERT_OK(idx->Insert(MakeEntry(2, 249.999, 249.999, 10, 50)));
  ASSERT_OK(idx->Advance(40));
  // Query exactly one side of the boundary.
  auto r = idx->TimesliceQuery(Rect{{250, 250}, {400, 400}}, 30);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->size(), 1u);
  EXPECT_EQ((*r)[0].oid, 1u);
  r = idx->TimesliceQuery(Rect{{0, 0}, {249.999, 249.999}}, 30);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->size(), 1u);
  EXPECT_EQ((*r)[0].oid, 2u);
  // A boundary-straddling query sees both.
  r = idx->TimesliceQuery(Rect{{249, 249}, {251, 251}}, 30);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->size(), 2u);
}

TEST_F(EdgeCaseTest, DurationExactlyDmax) {
  SwstOptions o = SmallOptions();
  auto idx = Make(o);
  ASSERT_OK(idx->Insert(MakeEntry(1, 100, 100, 10, o.max_duration)));
  // Valid during [10, 210): the last valid instant is 209.
  ASSERT_OK(idx->Advance(300));
  auto r = idx->TimesliceQuery(Rect{{0, 0}, {1000, 1000}}, 209);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->size(), 1u);
  r = idx->TimesliceQuery(Rect{{0, 0}, {1000, 1000}}, 210);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->empty());
}

TEST_F(EdgeCaseTest, DurationOne) {
  auto idx = Make(SmallOptions());
  ASSERT_OK(idx->Insert(MakeEntry(1, 100, 100, 10, 1)));
  ASSERT_OK(idx->Advance(50));
  auto r = idx->TimesliceQuery(Rect{{0, 0}, {1000, 1000}}, 10);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->size(), 1u);
  r = idx->TimesliceQuery(Rect{{0, 0}, {1000, 1000}}, 11);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->empty());
}

TEST_F(EdgeCaseTest, QueryAtExactWindowBoundaries) {
  SwstOptions o = SmallOptions();
  auto idx = Make(o);
  ASSERT_OK(idx->Insert(MakeEntry(1, 100, 100, 10, 100)));
  ASSERT_OK(idx->Advance(1200));
  // win = [floor(1200/50)*50 - 1000, 1200] = [200, 1200].
  const TimeInterval win = idx->QueriablePeriod();
  EXPECT_EQ(win, (TimeInterval{200, 1200}));
  // Entry with start exactly at win.lo is queriable.
  ASSERT_OK(idx->Insert(MakeEntry(2, 100, 100, 200, 100)));
  auto r = idx->IntervalQuery(Rect{{0, 0}, {1000, 1000}}, {200, 1200});
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->size(), 1u);
  EXPECT_EQ((*r)[0].oid, 2u);
  // Timeslice exactly at win.hi.
  ASSERT_OK(idx->Insert(Entry{3, {50, 50}, 1200, kUnknownDuration}));
  r = idx->TimesliceQuery(Rect{{0, 0}, {1000, 1000}}, 1200);
  ASSERT_TRUE(r.ok());
  bool found3 = false;
  for (const Entry& e : *r) found3 |= (e.oid == 3);
  EXPECT_TRUE(found3);
}

TEST_F(EdgeCaseTest, EntryAtExactEpochBoundary) {
  SwstOptions o = SmallOptions();
  auto idx = Make(o);
  const Timestamp E = o.epoch_length();  // 1050.
  // First instant of epoch 1 and last of epoch 0.
  ASSERT_OK(idx->Insert(MakeEntry(1, 100, 100, E - 1, 100)));
  ASSERT_OK(idx->Insert(MakeEntry(2, 100, 100, E, 100)));
  auto stats = idx->GetDebugStats();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->live_trees, 2u);  // One tree per epoch.
  auto r = idx->IntervalQuery(Rect{{0, 0}, {1000, 1000}}, {E - 1, E});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->size(), 2u);
}

TEST_F(EdgeCaseTest, AdvanceExactlyAtDropBoundary) {
  SwstOptions o = SmallOptions();
  auto idx = Make(o);
  const Timestamp E = o.epoch_length();
  ASSERT_OK(idx->Insert(MakeEntry(1, 100, 100, 10, 100)));  // Epoch 0.
  // At t = 2E - 1 (last instant of epoch 1), epoch 0 must still be live.
  ASSERT_OK(idx->Advance(2 * E - 1));
  auto stats = idx->GetDebugStats();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->entries, 1u);
  // At t = 2E (first instant of epoch 2), epoch 0 is droppable.
  ASSERT_OK(idx->Advance(2 * E));
  stats = idx->GetDebugStats();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->entries, 0u);
}

TEST_F(EdgeCaseTest, TimesliceBeforeAnyData) {
  auto idx = Make(SmallOptions());
  ASSERT_OK(idx->Advance(500));
  auto r = idx->TimesliceQuery(Rect{{0, 0}, {1000, 1000}}, 100);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->empty());
}

TEST_F(EdgeCaseTest, ZeroAreaQueryRectIsAPoint) {
  auto idx = Make(SmallOptions());
  ASSERT_OK(idx->Insert(MakeEntry(1, 123.5, 456.5, 10, 50)));
  ASSERT_OK(idx->Advance(40));
  auto r = idx->TimesliceQuery(Rect{{123.5, 456.5}, {123.5, 456.5}}, 30);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->size(), 1u);
  r = idx->TimesliceQuery(Rect{{123.6, 456.5}, {123.6, 456.5}}, 30);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->empty());
}

TEST_F(EdgeCaseTest, SlideEqualsWindow) {
  SwstOptions o = SmallOptions();
  o.slide = o.window_size;  // Single s-partition per epoch.
  ASSERT_OK(o.Validate());
  auto idx = Make(o);
  ASSERT_OK(idx->Insert(MakeEntry(1, 100, 100, 10, 100)));
  ASSERT_OK(idx->Advance(900));
  auto r = idx->IntervalQuery(Rect{{0, 0}, {1000, 1000}}, {0, 900});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->size(), 1u);
}

TEST_F(EdgeCaseTest, CurrentEntryCloseAtSameCellDifferentPosition) {
  auto idx = Make(SmallOptions());
  Entry cur;
  ASSERT_OK(idx->ReportPosition(1, {100, 100}, 10, nullptr, &cur));
  // Moves within the same grid cell: the key's z bits change, the cell
  // does not. Close + reinsert must still find the old record.
  Entry cur2;
  ASSERT_OK(idx->ReportPosition(1, {120, 130}, 60, &cur, &cur2));
  auto r = idx->TimesliceQuery(Rect{{0, 0}, {1000, 1000}}, 30);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->size(), 1u);
  EXPECT_EQ((*r)[0].duration, 50u);
}

TEST_F(EdgeCaseTest, ManyEntriesSameKeySpot) {
  // Identical position + start + duration for many objects: maximal key
  // duplication in one B+ tree.
  auto idx = Make(SmallOptions());
  for (ObjectId oid = 0; oid < 500; ++oid) {
    ASSERT_OK(idx->Insert(MakeEntry(oid, 500, 500, 100, 100)));
  }
  ASSERT_OK(idx->ValidateTrees());
  ASSERT_OK(idx->Advance(180));
  auto r = idx->TimesliceQuery(Rect{{500, 500}, {500, 500}}, 150);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->size(), 500u);
  // Delete a specific one out of the duplicates.
  ASSERT_OK(idx->Delete(MakeEntry(250, 500, 500, 100, 100)));
  r = idx->TimesliceQuery(Rect{{500, 500}, {500, 500}}, 150);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->size(), 499u);
  for (const Entry& e : *r) EXPECT_NE(e.oid, 250u);
}

TEST_F(EdgeCaseTest, IntervalQueryCoveringEntireWindow) {
  auto idx = Make(SmallOptions());
  for (int i = 0; i < 200; ++i) {
    ASSERT_OK(idx->Insert(
        MakeEntry(i, (i * 13) % 1000, (i * 29) % 1000,
                  static_cast<Timestamp>(i * 4), 1 + (i % 200))));
  }
  const TimeInterval win = idx->QueriablePeriod();
  auto r = idx->IntervalQuery(Rect{{0, 0}, {1000, 1000}}, {0, win.hi});
  ASSERT_TRUE(r.ok());
  size_t expect = 0;
  for (int i = 0; i < 200; ++i) {
    const Timestamp s = static_cast<Timestamp>(i * 4);
    if (s >= win.lo && s <= win.hi) expect++;
  }
  EXPECT_EQ(r->size(), expect);
}

// Every rejection reason, through every public write call, leaves no
// trace: no WAL record appended, the clock unchanged, no entry added or
// removed. A batch is all-or-nothing even when the bad entry sits between
// good ones; the "running clock" rows are rejected only because an earlier
// entry of the same batch moved the clock.
TEST_F(EdgeCaseTest, RejectedWritesLeaveNoTrace) {
  auto store = WalStore::OpenMemory();
  auto wal = Wal::Open(store.get());
  ASSERT_OK(wal.status());
  SwstOptions o = SmallOptions();
  o.wal = wal->get();
  auto idx = Make(o);

  // Clock 3000: the window is [2000, 3000], epoch 2 is current and epoch 1
  // is still live, so `stale` (start 1500) has expired but stays in the
  // live tier until an Advance drains its epoch.
  const Entry stale = MakeEntry(1, 100, 100, 1500, kUnknownDuration);
  const Entry open = MakeEntry(2, 200, 200, 2500, kUnknownDuration);
  ASSERT_OK(idx->Insert(stale));
  ASSERT_OK(idx->Insert(open));
  ASSERT_OK(idx->Insert(MakeEntry(3, 300, 300, 2600, 50)));
  ASSERT_OK(idx->Advance(3000));

  const Entry ok_a = MakeEntry(10, 400, 400, 2950, 50);
  const Entry ok_b = MakeEntry(11, 500, 500, 3100, 50);
  const Entry ahead = MakeEntry(12, 600, 600, 4100, 50);  // Window [3100, ..].
  const Entry outside = MakeEntry(13, 5000, 5000, 2950, 50);
  const Entry zero = MakeEntry(14, 400, 400, 2950, 0);
  const Entry too_long = MakeEntry(15, 400, 400, 2950, 201);
  const Entry expired = MakeEntry(16, 400, 400, 1900, 50);
  const Entry expired_by_batch = MakeEntry(17, 400, 400, 3000, 50);
  Entry open_outside = open;
  open_outside.pos = {5000, 5000};
  Entry out;

  struct Row {
    std::string name;
    std::function<Status()> op;
  };
  const std::vector<Row> rows = {
      {"Insert/outside", [&] { return idx->Insert(outside); }},
      {"Insert/duration0", [&] { return idx->Insert(zero); }},
      {"Insert/duration>Dmax", [&] { return idx->Insert(too_long); }},
      {"Insert/expired", [&] { return idx->Insert(expired); }},
      {"InsertBatch/outside",
       [&] { return idx->InsertBatch({ok_a, outside, ok_b}); }},
      {"InsertBatch/duration0",
       [&] { return idx->InsertBatch({ok_a, zero, ok_b}); }},
      {"InsertBatch/duration>Dmax",
       [&] { return idx->InsertBatch({ok_a, too_long, ok_b}); }},
      {"InsertBatch/expired",
       [&] { return idx->InsertBatch({ok_a, expired, ok_b}); }},
      {"InsertBatch/expired-running-clock",
       [&] { return idx->InsertBatch({ok_a, ahead, expired_by_batch}); }},
      {"CloseCurrent/outside",
       [&] { return idx->CloseCurrent(open_outside, 50); }},
      {"CloseCurrent/duration0", [&] { return idx->CloseCurrent(open, 0); }},
      {"CloseCurrent/duration>Dmax",
       [&] { return idx->CloseCurrent(open, 201); }},
      {"CloseCurrent/expired", [&] { return idx->CloseCurrent(stale, 50); }},
      {"ReportPosition/outside",
       [&] {
         return idx->ReportPosition(20, {5000, 5000}, 2950, nullptr, &out);
       }},
      // A report's stay is t - previous->start: 0 is rejected up front (a
      // stay over Dmax is not a rejection — the previous entry stays open).
      {"ReportPosition/duration0",
       [&] { return idx->ReportPosition(2, {210, 210}, 2500, &open, &out); }},
      {"ReportPosition/expired",
       [&] {
         return idx->ReportPosition(20, {100, 100}, 1900, nullptr, &out);
       }},
      {"ReportPosition/expired-close",
       [&] {
         return idx->ReportPosition(1, {110, 110}, 1550, &stale, &out);
       }},
  };
  for (const Row& row : rows) {
    SCOPED_TRACE(row.name);
    const Lsn lsn = (*wal)->last_lsn();
    const Timestamp clock = idx->now();
    auto before = idx->CountEntries();
    ASSERT_OK(before.status());
    EXPECT_TRUE(row.op().IsInvalidArgument());
    EXPECT_EQ((*wal)->last_lsn(), lsn);
    EXPECT_EQ(idx->now(), clock);
    auto after = idx->CountEntries();
    ASSERT_OK(after.status());
    EXPECT_EQ(*after, *before);
  }

  // The same calls with valid arguments are accepted and logged.
  const Lsn lsn = (*wal)->last_lsn();
  ASSERT_OK(idx->InsertBatch({ok_a, ok_b}));
  ASSERT_OK(idx->CloseCurrent(open, 50));
  EXPECT_EQ((*wal)->last_lsn(), lsn + 3);
  EXPECT_EQ(idx->now(), 3100u);
}

}  // namespace
}  // namespace swst
