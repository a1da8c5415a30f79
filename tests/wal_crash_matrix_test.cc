// Crash-matrix harness for WAL recovery: a deterministic workload of
// inserts, batched inserts, deletes, closes, position reports, advances,
// and checkpoints runs over BOTH fault-injection layers
// (pager + WAL store). The matrix crashes it at every Nth log append and
// every Nth log sync (plus torn-tail byte sweeps), recovers with
// `SwstIndex::Recover`, and requires:
//
//   bounded loss — the recovered state equals the in-memory oracle for a
//   *record-prefix* of the workload: every operation whose log records
//   are durable is present in full, at most the un-synced tail is
//   missing, and a partially durable group commit surfaces as exactly its
//   logged record prefix — never torn pages, phantom entries, or
//   half-applied single operations;
//
//   idempotence — crashing again right after recovery (before any new
//   checkpoint) and recovering a second time yields the identical state;
//
//   retry safety — a `ReportPosition` (close + insert under one sync) cut
//   before its insert became durable reaches the oracle's post-report
//   state when the client retries the same report after recovery.
//
// The mapping from "what survived" to "which oracle" uses the log's dense
// LSNs: the harness records each op's last LSN while driving the workload,
// and `SwstIndex::applied_lsn()` after recovery tells how far the durable
// history reached.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/random.h"
#include "obs/metrics.h"
#include "storage/fault_injection_pager.h"
#include "storage/fault_injection_wal.h"
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
  o.slide = 50;
  o.max_duration = 200;
  o.duration_interval = 50;
  o.zcurve_bits = 6;
  return o;
}

// -------------------------------------------------------------------------
// Workload: one op per step, deterministic, covering every logged kind.
// Time moves fast enough (17 ticks/step over a 1000-tick window) that the
// window slides past early entries, so expiry-tolerant paths (NotFound
// deletes, no-op closes) are exercised too.

struct Op {
  enum Kind {
    kInsert,
    kBatch,
    kDelete,
    kClose,
    kReport,
    kAdvance,
    kCheckpoint
  } kind = kInsert;
  Entry entry;               // kInsert / kDelete / kClose; kReport: new.
  Duration actual = 0;       // kClose.
  std::vector<Entry> batch;  // kBatch.
  Timestamp t = 0;           // kAdvance.
  bool has_prev = false;     // kReport: closes `prev` (when within Dmax).
  Entry prev;
};

std::vector<Op> MakeWorkload(int steps, uint64_t seed) {
  std::vector<Op> ops;
  Random rng(seed);
  std::vector<Entry> closed;   // Closed inserts (delete targets).
  std::vector<Entry> current;  // Current inserts (close targets).
  Timestamp clock = 0;
  ObjectId next_oid = 1;
  auto mk = [&](Timestamp start, Duration d) {
    return MakeEntry(next_oid++, rng.UniformDouble(0, 1000),
                     rng.UniformDouble(0, 1000), start, d);
  };
  for (int i = 0; i < steps; ++i) {
    clock += 17;
    const int roll = static_cast<int>(rng.Uniform(100));
    Op op;
    if (roll < 34) {
      op.kind = Op::kInsert;
      if (rng.Uniform(4) == 0) {
        op.entry = mk(clock, kUnknownDuration);
        current.push_back(op.entry);
      } else {
        op.entry = mk(clock, 1 + rng.Uniform(200));
        closed.push_back(op.entry);
      }
    } else if (roll < 50) {
      op.kind = Op::kBatch;
      const size_t n = 2 + rng.Uniform(6);
      for (size_t j = 0; j < n; ++j) {
        Entry e = mk(clock + j % 3, 1 + rng.Uniform(200));
        op.batch.push_back(e);
      }
    } else if (roll < 60 && !closed.empty()) {
      op.kind = Op::kDelete;
      const size_t pick = rng.Uniform(closed.size());
      op.entry = closed[pick];
      closed.erase(closed.begin() + static_cast<long>(pick));
    } else if (roll < 70 && !current.empty()) {
      op.kind = Op::kClose;
      const size_t pick = rng.Uniform(current.size());
      op.entry = current[pick];
      op.actual = 1 + rng.Uniform(200);
      current.erase(current.begin() + static_cast<long>(pick));
    } else if (roll < 84) {
      // A position report: usually moves a tracked object (closing its
      // open entry, or leaving it open when the stay exceeds Dmax),
      // sometimes introduces a new one.
      op.kind = Op::kReport;
      if (!current.empty() && rng.Uniform(4) != 0) {
        const size_t pick = rng.Uniform(current.size());
        op.has_prev = true;
        op.prev = current[pick];
        current.erase(current.begin() + static_cast<long>(pick));
        op.entry = MakeEntry(op.prev.oid, rng.UniformDouble(0, 1000),
                             rng.UniformDouble(0, 1000), clock,
                             kUnknownDuration);
      } else {
        op.entry = mk(clock, kUnknownDuration);
      }
      current.push_back(op.entry);
    } else if (roll < 92) {
      op.kind = Op::kAdvance;
      op.t = clock;
    } else {
      op.kind = Op::kCheckpoint;
    }
    ops.push_back(std::move(op));
  }
  return ops;
}

/// Applies one op. An expired target is a legitimate workload outcome, not
/// a failure: Delete may hit NotFound, and CloseCurrent may hit NotFound
/// or reject the re-insert of an entry the window has passed
/// (InvalidArgument; a report whose close is rejected that way inserts
/// nothing) — both runs (oracle and WAL) take identical paths.
Status ApplyOp(SwstIndex* idx, const Op& op, PageId* meta) {
  switch (op.kind) {
    case Op::kInsert:
      return idx->Insert(op.entry);
    case Op::kBatch:
      return idx->InsertBatch(op.batch);
    case Op::kDelete: {
      Status st = idx->Delete(op.entry);
      return st.IsNotFound() ? Status::OK() : st;
    }
    case Op::kClose: {
      Status st = idx->CloseCurrent(op.entry, op.actual);
      return (st.IsNotFound() || st.IsInvalidArgument()) ? Status::OK() : st;
    }
    case Op::kReport: {
      Status st =
          idx->ReportPosition(op.entry.oid, op.entry.pos, op.entry.start,
                              op.has_prev ? &op.prev : nullptr);
      return st.IsInvalidArgument() ? Status::OK() : st;
    }
    case Op::kAdvance:
      return idx->Advance(op.t);
    case Op::kCheckpoint:
      return idx->Checkpoint(meta);
  }
  return Status::InvalidArgument("unknown op");
}

// -------------------------------------------------------------------------
// Oracle snapshots: logical state as query answers + count + clock.

using Key = std::tuple<ObjectId, Timestamp, Duration>;

struct Snapshot {
  uint64_t count = 0;
  uint64_t current = 0;  ///< Open (unknown-duration) entries: the live tier.
  Timestamp now = 0;
  std::multiset<Key> now_slice;  ///< Timeslice at tau over the whole space.
  std::vector<std::multiset<Key>> answers;

  bool operator==(const Snapshot& o) const {
    return count == o.count && current == o.current && now == o.now &&
           now_slice == o.now_slice && answers == o.answers;
  }
};

Status TakeSnapshot(SwstIndex* idx, Snapshot* out) {
  out->answers.clear();
  SWST_RETURN_IF_ERROR(idx->ValidateTrees());
  auto count = idx->CountEntries();
  if (!count.ok()) return count.status();
  out->count = *count;
  out->now = idx->now();

  // The live tier must be rebuilt exactly: pin the open-entry count and
  // the timeslice-at-now answer (which every open entry participates in).
  auto debug = idx->GetDebugStats();
  if (!debug.ok()) return debug.status();
  out->current = debug->current_entries;

  const TimeInterval win = idx->QueriablePeriod();
  auto slice = idx->TimesliceQuery(Rect{{0, 0}, {1000, 1000}}, win.hi);
  if (!slice.ok()) return slice.status();
  out->now_slice.clear();
  for (const Entry& e : *slice) {
    out->now_slice.insert({e.oid, e.start, e.duration});
  }
  const Timestamp span = win.hi - win.lo;
  const Rect rects[] = {
      Rect{{0, 0}, {1000, 1000}},
      Rect{{0, 0}, {500, 500}},
      Rect{{250, 250}, {750, 750}},
  };
  for (const Rect& area : rects) {
    for (int part = 0; part < 3; ++part) {
      const TimeInterval q{win.lo + span * part / 4,
                           win.lo + span * (part + 2) / 4};
      auto r = idx->IntervalQuery(area, q);
      if (!r.ok()) return r.status();
      std::multiset<Key> keys;
      for (const Entry& e : *r) keys.insert({e.oid, e.start, e.duration});
      out->answers.push_back(std::move(keys));
    }
  }
  return Status::OK();
}

// -------------------------------------------------------------------------

class WalCrashMatrixTest : public ::testing::Test {
 protected:
  static constexpr int kSteps = 120;

  WalCrashMatrixTest() : ops_(MakeWorkload(kSteps, /*seed=*/4242)) {}

  /// Oracle after ops[0..prefix) plus the first `partial` *records* of
  /// ops[prefix]. A partially durable group commit replays as its record
  /// prefix: serial inserts for a batch, the close alone for a two-record
  /// report. Otherwise `partial` covers the whole op (its records were
  /// logged and survived even though the original call returned an error
  /// — logged-but-not-acked). Computed on a plain in-memory stack with no
  /// WAL at all: the semantics recovery must reproduce.
  const Snapshot& Oracle(size_t prefix, size_t partial) {
    const auto key = std::make_pair(prefix, partial);
    auto it = oracles_.find(key);
    if (it == oracles_.end()) {
      auto pager = Pager::OpenMemory();
      BufferPool pool(pager.get(), 256);
      auto idx = SwstIndex::Create(&pool, SmallOptions());
      EXPECT_TRUE(idx.ok());
      PageId meta = kInvalidPageId;
      for (size_t i = 0; i < prefix; ++i) {
        EXPECT_OK(ApplyOp(idx->get(), ops_[i], &meta)) << "oracle step " << i;
      }
      if (partial != 0) {
        const Op& op = ops_[prefix];
        if (op.kind == Op::kBatch) {
          for (size_t j = 0; j < partial && j < op.batch.size(); ++j) {
            EXPECT_OK(idx->get()->Insert(op.batch[j]));
          }
        } else if (op.kind == Op::kReport &&
                   partial < Reference()[prefix].records) {
          // The close frame survived, the insert frame did not.
          EXPECT_OK(idx->get()->CloseCurrent(
              op.prev, op.entry.start - op.prev.start));
        } else {
          EXPECT_EQ(partial, Reference()[prefix].records);
          EXPECT_OK(ApplyOp(idx->get(), op, &meta));
        }
      }
      Snapshot snap;
      EXPECT_OK(TakeSnapshot(idx->get(), &snap));
      it = oracles_.emplace(key, std::move(snap)).first;
    }
    return it->second;
  }

  /// What op k did in a run: its log records and the store's lifetime
  /// append/sync counters when it returned — so its last frame is store
  /// append #appends_after and its commit ends at store sync #syncs_after.
  struct OpTrace {
    size_t records = 0;
    uint64_t appends_after = 0;
    uint64_t syncs_after = 0;
  };

  struct RunResult {
    bool fault_hit = false;
    uint64_t wal_appends = 0;
    uint64_t wal_syncs = 0;
    std::vector<OpTrace> ops;  ///< Ops that ran, in order.
  };

  /// Per-op traces of the fault-free run (cached). A faulted run is
  /// identical up to the op its fault aborts.
  const std::vector<OpTrace>& Reference() {
    if (reference_.empty()) {
      RunResult r;
      RunAndCheck({}, "reference", &r);
      EXPECT_EQ(r.ops.size(), ops_.size());
      reference_ = std::move(r.ops);
    }
    return reference_;
  }

  /// One full cell of the matrix: run the workload over fault-injected
  /// pager + WAL store until `policy` fires (or the workload ends), crash
  /// both layers, recover, check against the oracle of the durable record
  /// prefix, then crash-and-recover AGAIN to prove idempotence.
  void RunAndCheck(const FaultInjectionWalStore::FaultPolicy& policy,
                   const std::string& context, RunResult* result) {
    *result = RunResult{};
    auto base_pager = Pager::OpenMemory();
    FaultInjectionPager pager(base_pager.get());
    auto base_wal = WalStore::OpenMemory();
    FaultInjectionWalStore wal_store(base_wal.get());
    wal_store.set_policy(policy);

    WalOptions wopts;
    wopts.segment_bytes = 2048;  // Exercise rotation mid-workload.

    PageId meta = kInvalidPageId;
    // Per-op LSN ranges: [first, last] of the records op k logged
    // (first > last when it logged none, e.g. Checkpoint). `completed`
    // is false only for the op the injected fault aborted — its records
    // (if any got appended) may still turn durable via the pool's
    // destructor-time forced WAL sync, so the range matters.
    struct OpLsns {
      Lsn first, last;
      Op::Kind kind;
      bool completed;
    };
    std::vector<OpLsns> op_lsns;
    {
      // The Wal must outlive the pool: the pool's destructor-time flush
      // enforces the WAL rule against it.
      auto wal = Wal::Open(&wal_store, wopts);
      if (!wal.ok()) {
        // The fault fired inside Open itself (e.g. the first segment
        // header append) — a clean fail-stop before any op ran.
        result->fault_hit = true;
        result->wal_appends = wal_store.appends();
        result->wal_syncs = wal_store.syncs();
        wal_store.ClearFaults();
        ASSERT_OK(pager.CrashAndRecover());
        ASSERT_OK(wal_store.CrashAndRecover());
        Snapshot snap;
        Lsn applied = 0;
        Recover(&pager, &wal_store, wopts, meta, context + " (open-fault)",
                &snap, &applied);
        if (HasFatalFailure()) return;
        EXPECT_EQ(applied, kInvalidLsn) << context;
        EXPECT_TRUE(snap == Oracle(0, 0)) << context;
        return;
      }
      BufferPool pool(&pager, 64);
      pool.AttachWal(wal->get());
      SwstOptions opts = SmallOptions();
      opts.wal = wal->get();
      auto idx = SwstIndex::Create(&pool, opts);
      ASSERT_TRUE(idx.ok());
      for (size_t i = 0; i < ops_.size(); ++i) {
        const Lsn before = (*wal)->last_lsn();
        Status st = ApplyOp(idx->get(), ops_[i], &meta);
        result->ops.push_back(
            OpTrace{static_cast<size_t>((*wal)->last_lsn() - before),
                    wal_store.appends(), wal_store.syncs()});
        if (!st.ok()) {
          // Fail-stop: the injected fault surfaced as a clean error; the
          // in-memory index is abandoned mid-history. Records the op got
          // appended before failing are logged-but-not-acked: they may or
          // may not survive, and either outcome is legitimate.
          result->fault_hit = true;
          if ((*wal)->last_lsn() > before) {
            op_lsns.push_back(
                OpLsns{before + 1, (*wal)->last_lsn(), ops_[i].kind, false});
          }
          break;
        }
        op_lsns.push_back(
            OpLsns{before + 1, (*wal)->last_lsn(), ops_[i].kind, true});
      }
      result->wal_appends = wal_store.appends();
      result->wal_syncs = wal_store.syncs();
      // Destructor-time flushes land in the volatile buffers and die next.
    }
    wal_store.ClearFaults();
    ASSERT_OK(pager.CrashAndRecover());
    ASSERT_OK(wal_store.CrashAndRecover());

    Snapshot first_snap;
    Lsn applied1 = 0;
    Recover(&pager, &wal_store, wopts, meta, context, &first_snap, &applied1);
    if (HasFatalFailure()) return;

    // What survived must be a record-prefix of the logged history, and
    // recovery's applied watermark tells exactly how long it is. Map it
    // to (full ops, partial batch records) and compare with the oracle.
    size_t prefix = 0;
    size_t partial = 0;
    for (const OpLsns& ol : op_lsns) {
      if (ol.completed && ol.last <= applied1) {
        ++prefix;
        continue;
      }
      // This op's records replay only up to `applied1`: a durability cut
      // inside a group commit, or the fault-aborted tail op (which may
      // also have appended only some of its batch before failing).
      if (ol.first <= applied1) {
        partial =
            static_cast<size_t>(std::min(applied1, ol.last) - ol.first + 1);
        // Mid-op cuts can only land inside a multi-record group commit
        // (a batch, or a report's close + insert); a single-record op is
        // atomic (partial == whole op).
        ASSERT_TRUE(ol.kind == Op::kBatch || ol.kind == Op::kReport ||
                    partial == 1)
            << context << ": recovery split a single-record op at LSN "
            << applied1;
      }
      break;
    }
    {
      SCOPED_TRACE(context + ": durable prefix = " + std::to_string(prefix) +
                   " ops + " + std::to_string(partial) + " batch records");
      const Snapshot& want = Oracle(prefix, partial);
      EXPECT_EQ(first_snap.count, want.count) << "entry count diverges";
      EXPECT_EQ(first_snap.now, want.now) << "clock diverges";
      EXPECT_TRUE(first_snap.answers == want.answers)
          << "query answers diverge from the oracle";
    }

    // Idempotence: crash immediately after recovery (recovery itself made
    // nothing durable — no checkpoint ran), recover again, expect the
    // byte-identical logical state.
    ASSERT_OK(pager.CrashAndRecover());
    ASSERT_OK(wal_store.CrashAndRecover());
    Snapshot second_snap;
    Lsn applied2 = 0;
    Recover(&pager, &wal_store, wopts, meta, context + " (2nd)", &second_snap,
            &applied2);
    if (HasFatalFailure()) return;
    EXPECT_EQ(applied2, applied1) << context;
    EXPECT_TRUE(second_snap == first_snap)
        << context << ": second recovery diverges from the first";

    // Retry safety: the client never got an ack for a report whose insert
    // did not become durable, so it sends the same report again. The
    // close either redoes or finds nothing open (NotFound, tolerated);
    // either way the retried report lands on the full post-report state.
    if (prefix < ops_.size() && ops_[prefix].kind == Op::kReport &&
        partial < Reference()[prefix].records) {
      ASSERT_OK(pager.CrashAndRecover());
      ASSERT_OK(wal_store.CrashAndRecover());
      Snapshot retried;
      Lsn applied3 = 0;
      Recover(&pager, &wal_store, wopts, meta, context + " (retry)", &retried,
              &applied3, &ops_[prefix]);
      if (HasFatalFailure()) return;
      EXPECT_TRUE(retried == Oracle(prefix + 1, 0))
          << context << ": retrying report " << prefix
          << " misses the oracle's post-report state";
      retries_++;
    }
  }

  /// Recovers on a fresh pool + Wal over the crashed stores and snapshots,
  /// applying `retry` (when non-null) to the recovered index first.
  void Recover(FaultInjectionPager* pager, FaultInjectionWalStore* wal_store,
               const WalOptions& wopts, PageId meta,
               const std::string& context, Snapshot* snap, Lsn* applied,
               const Op* retry = nullptr) {
    auto wal = Wal::Open(wal_store, wopts);
    ASSERT_TRUE(wal.ok()) << context << ": " << wal.status().ToString();
    BufferPool pool(pager, 64);
    pool.AttachWal(wal->get());
    SwstOptions opts = SmallOptions();
    opts.wal = wal->get();
    SwstIndex::RecoverStats rstats;
    auto idx = SwstIndex::Recover(&pool, opts, meta, &rstats);
    ASSERT_TRUE(idx.ok()) << context << ": " << idx.status().ToString();
    *applied = (*idx)->applied_lsn();
    if (retry != nullptr) {
      ASSERT_OK(ApplyOp(idx->get(), *retry, &meta));
    }
    ASSERT_OK(TakeSnapshot(idx->get(), snap)) << context;
  }

  std::vector<Op> ops_;
  std::map<std::pair<size_t, size_t>, Snapshot> oracles_;
  std::vector<OpTrace> reference_;
  int retries_ = 0;  ///< Retry-safety checks run so far.
};

TEST_F(WalCrashMatrixTest, FaultFreeRunRecoversEverything) {
  RunResult r;
  RunAndCheck({}, "fault-free", &r);
  EXPECT_FALSE(r.fault_hit);
  EXPECT_GT(r.wal_appends, 0u);
  EXPECT_GT(r.wal_syncs, 0u);
}

TEST_F(WalCrashMatrixTest, CrashAtEveryNthAppendRecoversAPrefix) {
  RunResult probe;
  RunAndCheck({}, "probe", &probe);
  ASSERT_FALSE(HasFatalFailure());
  ASSERT_GT(probe.wal_appends, 0u);
  const uint64_t stride = std::max<uint64_t>(1, probe.wal_appends / 40);
  for (uint64_t k = 1; k <= probe.wal_appends; k += stride) {
    SCOPED_TRACE("fail append #" + std::to_string(k));
    FaultInjectionWalStore::FaultPolicy policy;
    policy.fail_append_at = k;
    RunResult r;
    RunAndCheck(policy, "append-fault@" + std::to_string(k), &r);
    if (HasFatalFailure()) return;
    EXPECT_TRUE(r.fault_hit) << "fault point never reached";
  }
}

TEST_F(WalCrashMatrixTest, CrashAtEveryNthSyncRecoversAPrefix) {
  RunResult probe;
  RunAndCheck({}, "probe", &probe);
  ASSERT_FALSE(HasFatalFailure());
  ASSERT_GT(probe.wal_syncs, 0u);
  const uint64_t stride = std::max<uint64_t>(1, probe.wal_syncs / 40);
  for (uint64_t k = 1; k <= probe.wal_syncs; k += stride) {
    SCOPED_TRACE("fail sync #" + std::to_string(k));
    FaultInjectionWalStore::FaultPolicy policy;
    policy.fail_sync_at = k;
    RunResult r;
    RunAndCheck(policy, "sync-fault@" + std::to_string(k), &r);
    if (HasFatalFailure()) return;
    EXPECT_TRUE(r.fault_hit) << "fault point never reached";
  }
}

// Faults aimed inside every two-record report (close frame + insert frame
// under one sync): failing the insert frame's append leaves the close
// durable without the insert (the report's error path still syncs it);
// failing the commit sync leaves both frames to the crash. Each case must
// recover the oracle's record prefix, recover identically twice, and —
// whenever the insert was lost — reach the post-report oracle on retry.
TEST_F(WalCrashMatrixTest, CrashInsideReportRecoversPrefixAndRetries) {
  const std::vector<OpTrace>& ref = Reference();
  ASSERT_FALSE(HasFatalFailure());
  int two_record_reports = 0;
  for (size_t i = 0; i < ops_.size(); ++i) {
    if (ops_[i].kind != Op::kReport || ref[i].records != 2) continue;
    ++two_record_reports;
    for (const bool at_sync : {false, true}) {
      const std::string context = (at_sync ? "report-sync@" : "report-insert@") +
                                  std::to_string(i);
      SCOPED_TRACE(context);
      FaultInjectionWalStore::FaultPolicy policy;
      if (at_sync) {
        policy.fail_sync_at = ref[i].syncs_after;
      } else {
        policy.fail_append_at = ref[i].appends_after;
      }
      RunResult r;
      RunAndCheck(policy, context, &r);
      if (HasFatalFailure()) return;
      EXPECT_TRUE(r.fault_hit) << "fault point never reached";
    }
  }
  EXPECT_GT(two_record_reports, 0) << "workload has no closing report";
  EXPECT_GT(retries_, 0) << "no case exercised the retry check";
}

// Acked current-entry insert, crash before the close ever runs: recovery
// must rebuild the entry in the live tier (still open), the post-recovery
// CloseCurrent must succeed and migrate it, and recovering twice from the
// same crash yields the identical state.
TEST_F(WalCrashMatrixTest, AckedCurrentInsertSurvivesCrashBeforeClose) {
  auto base_pager = Pager::OpenMemory();
  FaultInjectionPager pager(base_pager.get());
  auto base_wal = WalStore::OpenMemory();
  FaultInjectionWalStore wal_store(base_wal.get());
  WalOptions wopts;
  wopts.segment_bytes = 2048;
  const PageId meta = kInvalidPageId;  // Crash before the first checkpoint.
  const Entry closed = MakeEntry(2, 100, 100, 90, 50);
  const Entry cur = MakeEntry(1, 500, 500, 100, kUnknownDuration);
  {
    auto wal = Wal::Open(&wal_store, wopts);
    ASSERT_TRUE(wal.ok());
    BufferPool pool(&pager, 64);
    pool.AttachWal(wal->get());
    SwstOptions opts = SmallOptions();
    opts.wal = wal->get();
    auto idx = SwstIndex::Create(&pool, opts);
    ASSERT_TRUE(idx.ok());
    ASSERT_OK((*idx)->Insert(closed));
    ASSERT_OK((*idx)->Insert(cur));  // Acked: its record is synced.
  }  // Crash between the acked insert-current and any CloseCurrent.
  ASSERT_OK(pager.CrashAndRecover());
  ASSERT_OK(wal_store.CrashAndRecover());

  Snapshot s1;
  Lsn applied1 = 0;
  {
    auto wal = Wal::Open(&wal_store, wopts);
    ASSERT_TRUE(wal.ok());
    BufferPool pool(&pager, 64);
    pool.AttachWal(wal->get());
    SwstOptions opts = SmallOptions();
    opts.wal = wal->get();
    auto idx = SwstIndex::Recover(&pool, opts, meta);
    ASSERT_TRUE(idx.ok()) << idx.status().ToString();
    applied1 = (*idx)->applied_lsn();
    ASSERT_OK(TakeSnapshot(idx->get(), &s1));
    EXPECT_EQ(s1.count, 2u);
    EXPECT_EQ(s1.current, 1u);  // Rebuilt into the live tier, still open.
    EXPECT_EQ(s1.now_slice.count({cur.oid, cur.start, kUnknownDuration}), 1u);
    // The rebuilt live tier is fully operational: the close that never
    // happened before the crash succeeds now and migrates the entry.
    ASSERT_OK((*idx)->CloseCurrent(cur, 40));
    auto debug = (*idx)->GetDebugStats();
    ASSERT_TRUE(debug.ok());
    EXPECT_EQ(debug->current_entries, 0u);
    EXPECT_EQ(debug->entries, 2u);
  }  // Crash again — the close above was logged but not checkpointed.
  ASSERT_OK(pager.CrashAndRecover());
  ASSERT_OK(wal_store.CrashAndRecover());

  // The synced close replays; a third crash-and-recover is then identical.
  Snapshot s2, s3;
  Lsn applied2 = 0, applied3 = 0;
  Recover(&pager, &wal_store, wopts, meta, "after-close", &s2, &applied2);
  ASSERT_FALSE(HasFatalFailure());
  EXPECT_GT(applied2, applied1);
  EXPECT_EQ(s2.count, 2u);
  EXPECT_EQ(s2.current, 0u);
  EXPECT_EQ(s2.now_slice.count({cur.oid, cur.start, Duration{40}}), 1u);
  ASSERT_OK(pager.CrashAndRecover());
  ASSERT_OK(wal_store.CrashAndRecover());
  Recover(&pager, &wal_store, wopts, meta, "after-close (2nd)", &s3,
          &applied3);
  ASSERT_FALSE(HasFatalFailure());
  EXPECT_EQ(applied3, applied2);
  EXPECT_TRUE(s3 == s2) << "second recovery diverges from the first";
}

// Crash *inside* the close migration (the WAL write of the kClose record
// fails, at the append or at the sync): after recovery the entry is either
// still open or fully closed — never both versions, never neither — and a
// second recovery is identical. Covers the seal-time migration crash
// point of the hot/cold tiering design.
TEST_F(WalCrashMatrixTest, CrashMidCloseMigrationYieldsOpenOrClosedNeverBoth) {
  for (const bool fail_at_sync : {false, true}) {
    SCOPED_TRACE(fail_at_sync ? "fault at close sync" : "fault at close append");
    auto base_pager = Pager::OpenMemory();
    FaultInjectionPager pager(base_pager.get());
    auto base_wal = WalStore::OpenMemory();
    FaultInjectionWalStore wal_store(base_wal.get());
    WalOptions wopts;
    wopts.segment_bytes = 2048;
    const PageId meta = kInvalidPageId;
    const Entry cur = MakeEntry(1, 500, 500, 100, kUnknownDuration);
    {
      auto wal = Wal::Open(&wal_store, wopts);
      ASSERT_TRUE(wal.ok());
      BufferPool pool(&pager, 64);
      pool.AttachWal(wal->get());
      SwstOptions opts = SmallOptions();
      opts.wal = wal->get();
      auto idx = SwstIndex::Create(&pool, opts);
      ASSERT_TRUE(idx.ok());
      ASSERT_OK((*idx)->Insert(cur));  // Acked before the fault arms.

      FaultInjectionWalStore::FaultPolicy policy;
      if (fail_at_sync) {
        policy.fail_sync_at = wal_store.syncs() + 1;
      } else {
        policy.fail_append_at = wal_store.appends() + 1;
      }
      wal_store.set_policy(policy);
      EXPECT_FALSE((*idx)->CloseCurrent(cur, 40).ok()) << "fault not hit";
    }  // Fail-stop: abandon the index mid-close and crash.
    wal_store.ClearFaults();
    ASSERT_OK(pager.CrashAndRecover());
    ASSERT_OK(wal_store.CrashAndRecover());

    Snapshot s1, s2;
    Lsn applied1 = 0, applied2 = 0;
    Recover(&pager, &wal_store, wopts, meta, "mid-close", &s1, &applied1);
    ASSERT_FALSE(HasFatalFailure());
    // Exactly one version of the entry, whichever side of the cut the
    // close record landed on.
    EXPECT_EQ(s1.count, 1u);
    const uint64_t open_seen =
        s1.now_slice.count({cur.oid, cur.start, kUnknownDuration});
    const uint64_t closed_seen =
        s1.now_slice.count({cur.oid, cur.start, Duration{40}});
    EXPECT_EQ(open_seen + closed_seen, 1u)
        << "open=" << open_seen << " closed=" << closed_seen;
    EXPECT_EQ(s1.current, open_seen);

    ASSERT_OK(pager.CrashAndRecover());
    ASSERT_OK(wal_store.CrashAndRecover());
    Recover(&pager, &wal_store, wopts, meta, "mid-close (2nd)", &s2,
            &applied2);
    ASSERT_FALSE(HasFatalFailure());
    EXPECT_EQ(applied2, applied1);
    EXPECT_TRUE(s2 == s1) << "second recovery diverges from the first";
  }
}

TEST_F(WalCrashMatrixTest, TornLogTailsNeverYieldPhantomOperations) {
  // Crash mid-workload (the sync fault creates an un-synced tail) AND let
  // the crash persist a partial prefix of that tail — cutting a record
  // frame at an awkward byte offset. Recovery's CRC scan must reject the
  // cut frame and still land on a clean record-prefix state.
  RunResult probe;
  RunAndCheck({}, "probe", &probe);
  ASSERT_FALSE(HasFatalFailure());
  ASSERT_GT(probe.wal_syncs, 4u);
  for (uint64_t torn : {1ull, 7ull, 23ull, 41ull, 64ull, 129ull}) {
    SCOPED_TRACE("torn tail bytes " + std::to_string(torn));
    FaultInjectionWalStore::FaultPolicy policy;
    policy.fail_sync_at = probe.wal_syncs / 2;
    policy.torn_tail_bytes = torn;
    RunResult r;
    RunAndCheck(policy, "torn@" + std::to_string(torn), &r);
    if (HasFatalFailure()) return;
    EXPECT_TRUE(r.fault_hit);
  }
}

// ReportPosition is one group commit: read through the registry, a report
// that closes its previous entry logs two records under exactly one sync;
// a first report, a report whose stay exceeded Dmax (no close), and a
// report whose previous entry is not open (close NotFound, tolerated) log
// one record under one sync.
TEST(WalReportCommitTest, OneSyncPerReport) {
  obs::MetricsRegistry registry;
  auto store = WalStore::OpenMemory();
  WalOptions wopts;
  wopts.metrics = &registry;
  auto wal = Wal::Open(store.get(), wopts);
  ASSERT_TRUE(wal.ok());
  auto pager = Pager::OpenMemory();
  BufferPool pool(pager.get(), 64);
  pool.AttachWal(wal->get());
  SwstOptions opts = SmallOptions();
  opts.wal = wal->get();
  auto idx = SwstIndex::Create(&pool, opts);
  ASSERT_TRUE(idx.ok());
  // Registration is idempotent: these are the WAL's own counters.
  auto syncs = registry.RegisterCounter("swst_wal_syncs_total", "");
  auto records = registry.RegisterCounter("swst_wal_records_total", "");

  struct Delta {
    uint64_t syncs, records;
  };
  auto report = [&](ObjectId oid, Point pos, Timestamp t, const Entry* prev,
                    Entry* cur) -> Delta {
    const uint64_t s0 = syncs->value(), r0 = records->value();
    EXPECT_OK((*idx)->ReportPosition(oid, pos, t, prev, cur));
    return Delta{syncs->value() - s0, records->value() - r0};
  };
  Entry a, b, c, d;
  Delta first = report(1, {100, 100}, 100, nullptr, &a);
  EXPECT_EQ(first.syncs, 1u);
  EXPECT_EQ(first.records, 1u);

  Delta closing = report(1, {200, 200}, 150, &a, &b);
  EXPECT_EQ(closing.syncs, 1u);
  EXPECT_EQ(closing.records, 2u);

  Delta long_stay = report(1, {300, 300}, 150 + 201, &b, &c);  // > Dmax.
  EXPECT_EQ(long_stay.syncs, 1u);
  EXPECT_EQ(long_stay.records, 1u);

  const Entry never_inserted =
      MakeEntry(9, 400, 400, 360, kUnknownDuration);
  Delta not_open = report(9, {410, 410}, 380, &never_inserted, &d);
  EXPECT_EQ(not_open.syncs, 1u);
  EXPECT_EQ(not_open.records, 1u);

  // Only a was closed; b (left open past Dmax), c and d are current.
  auto debug = (*idx)->GetDebugStats();
  ASSERT_TRUE(debug.ok());
  EXPECT_EQ(debug->current_entries, 3u);
  EXPECT_EQ(debug->entries, 4u);
}

}  // namespace
}  // namespace swst
