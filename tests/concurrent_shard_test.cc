// Stress and equivalence tests for the sharded `SwstIndex`: per-shard
// locking, the striped buffer pool, and the parallel query fan-out
// (`SwstOptions::query_threads`). The suite name starts with "Concurrent"
// so the TSan CI job (`-R "Concurrent|..."`) picks every test up.

#include <algorithm>
#include <atomic>
#include <iterator>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "obs/metrics.h"
#include "swst/swst_index.h"
#include "tests/test_util.h"

namespace swst {
namespace {

SwstOptions ShardedOptions(uint32_t query_threads) {
  SwstOptions o;
  o.space = Rect{{0, 0}, {1000, 1000}};
  o.x_partitions = 8;
  o.y_partitions = 8;
  o.window_size = 100000;  // Large window: nothing expires mid-test.
  o.slide = 1000;
  o.max_duration = 1000;
  o.duration_interval = 100;
  o.query_threads = query_threads;
  return o;
}

Entry RandomEntry(Random* rng, ObjectId oid) {
  return Entry{oid,
               {rng->UniformDouble(0, 1000), rng->UniformDouble(0, 1000)},
               static_cast<Timestamp>(rng->Uniform(5000)),
               1 + rng->Uniform(1000)};
}

bool SameEntry(const Entry& a, const Entry& b) {
  return a.oid == b.oid && a.start == b.start && a.duration == b.duration &&
         a.pos.x == b.pos.x && a.pos.y == b.pos.y;
}

void ExpectSameStats(const QueryStats& a, const QueryStats& b) {
  EXPECT_EQ(a.node_accesses, b.node_accesses);
  EXPECT_EQ(a.spatial_cells, b.spatial_cells);
  EXPECT_EQ(a.columns, b.columns);
  EXPECT_EQ(a.key_ranges, b.key_ranges);
  EXPECT_EQ(a.candidates, b.candidates);
  EXPECT_EQ(a.full_cell_accepts, b.full_cell_accepts);
  EXPECT_EQ(a.refined_out, b.refined_out);
  EXPECT_EQ(a.memo_pruned_columns, b.memo_pruned_columns);
}

// Two indexes over identical data, one serial and one with a 4-thread
// fan-out, must return identical results — same entries, same order — and
// identical per-query stats for interval, timeslice, and KNN queries.
TEST(ConcurrentShardTest, ParallelQueriesMatchSequentialExactly) {
  auto pager_seq = Pager::OpenMemory();
  auto pager_par = Pager::OpenMemory();
  BufferPool pool_seq(pager_seq.get(), 4096);
  BufferPool pool_par(pager_par.get(), 4096);
  auto seq_or = SwstIndex::Create(&pool_seq, ShardedOptions(1));
  auto par_or = SwstIndex::Create(&pool_par, ShardedOptions(4));
  ASSERT_TRUE(seq_or.ok());
  ASSERT_TRUE(par_or.ok());
  auto seq = std::move(*seq_or);
  auto par = std::move(*par_or);
  EXPECT_GT(par->shard_count(), 1u);

  Random rng(7);
  for (int i = 0; i < 3000; ++i) {
    const Entry e = RandomEntry(&rng, static_cast<ObjectId>(i));
    ASSERT_OK(seq->Insert(e));
    ASSERT_OK(par->Insert(e));
  }

  Random qrng(21);
  for (int i = 0; i < 40; ++i) {
    const double x = qrng.UniformDouble(0, 700);
    const double y = qrng.UniformDouble(0, 700);
    const Rect area{{x, y}, {x + qrng.UniformDouble(50, 300),
                             y + qrng.UniformDouble(50, 300)}};
    const TimeInterval t{qrng.Uniform(3000), 3000 + qrng.Uniform(3000)};

    QueryStats ss, ps;
    auto rs = seq->IntervalQuery(area, t, {}, &ss);
    auto rp = par->IntervalQuery(area, t, {}, &ps);
    ASSERT_TRUE(rs.ok());
    ASSERT_TRUE(rp.ok());
    ASSERT_EQ(rs->size(), rp->size());
    for (size_t j = 0; j < rs->size(); ++j) {
      EXPECT_TRUE(SameEntry((*rs)[j], (*rp)[j])) << "at " << j;
    }
    ExpectSameStats(ss, ps);

    auto ts = seq->TimesliceQuery(area, t.lo);
    auto tp = par->TimesliceQuery(area, t.lo);
    ASSERT_TRUE(ts.ok());
    ASSERT_TRUE(tp.ok());
    ASSERT_EQ(ts->size(), tp->size());

    QueryStats ks, kp;
    auto ns = seq->Knn({x, y}, 10, t, {}, &ks);
    auto np = par->Knn({x, y}, 10, t, {}, &kp);
    ASSERT_TRUE(ns.ok());
    ASSERT_TRUE(np.ok());
    ASSERT_EQ(ns->size(), np->size());
    for (size_t j = 0; j < ns->size(); ++j) {
      EXPECT_TRUE(SameEntry((*ns)[j], (*np)[j])) << "knn at " << j;
    }
    ExpectSameStats(ks, kp);
  }
}

// A streaming query that stops after N entries must emit exactly the first
// N entries of the serial order, even when cells are searched in parallel.
TEST(ConcurrentShardTest, EarlyStopIsDeterministicUnderFanOut) {
  auto pager_seq = Pager::OpenMemory();
  auto pager_par = Pager::OpenMemory();
  BufferPool pool_seq(pager_seq.get(), 4096);
  BufferPool pool_par(pager_par.get(), 4096);
  auto seq_or = SwstIndex::Create(&pool_seq, ShardedOptions(1));
  auto par_or = SwstIndex::Create(&pool_par, ShardedOptions(4));
  ASSERT_TRUE(seq_or.ok());
  ASSERT_TRUE(par_or.ok());
  auto seq = std::move(*seq_or);
  auto par = std::move(*par_or);

  Random rng(9);
  for (int i = 0; i < 2000; ++i) {
    const Entry e = RandomEntry(&rng, static_cast<ObjectId>(i));
    ASSERT_OK(seq->Insert(e));
    ASSERT_OK(par->Insert(e));
  }

  const Rect area{{50, 50}, {950, 950}};
  const TimeInterval t{0, 100000};
  auto all = seq->IntervalQuery(area, t);
  ASSERT_TRUE(all.ok());
  ASSERT_GT(all->size(), 5u);

  for (int trial = 0; trial < 20; ++trial) {
    std::vector<Entry> emitted;
    ASSERT_OK(par->IntervalQueryStream(area, t, {},
                                       [&emitted](const Entry& e) {
                                         emitted.push_back(e);
                                         return emitted.size() < 5;
                                       },
                                       nullptr));
    ASSERT_EQ(emitted.size(), 5u);
    for (size_t j = 0; j < 5; ++j) {
      EXPECT_TRUE(SameEntry(emitted[j], (*all)[j])) << "trial " << trial;
    }
  }
}

// Concurrent ingestion (several writer threads on different oid ranges),
// window advances, and parallel interval/timeslice/KNN queries against a
// mutex-protected oracle. After quiescing, the index must agree with the
// oracle exactly.
TEST(ConcurrentShardTest, MixedWorkloadAgreesWithOracle) {
  auto pager = Pager::OpenMemory();
  BufferPool pool(pager.get(), 4096);
  auto idx_or = SwstIndex::Create(&pool, ShardedOptions(2));
  ASSERT_TRUE(idx_or.ok());
  auto idx = std::move(*idx_or);

  constexpr int kWriters = 3;
  constexpr int kPerWriter = 1500;
  std::mutex oracle_mu;
  std::vector<Entry> oracle;
  std::atomic<uint64_t> errors{0};

  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      Random rng(100 + w);
      for (int i = 0; i < kPerWriter; ++i) {
        const Entry e =
            RandomEntry(&rng, static_cast<ObjectId>(w * kPerWriter + i));
        if (!idx->Insert(e).ok()) {
          errors++;
          return;
        }
        {
          std::lock_guard<std::mutex> lock(oracle_mu);
          oracle.push_back(e);
        }
        if (i % 200 == 0 && !idx->Advance(e.start).ok()) {
          errors++;
          return;
        }
      }
    });
  }

  std::vector<std::thread> readers;
  for (int r = 0; r < 4; ++r) {
    readers.emplace_back([&, r] {
      Random rng(500 + r);
      for (int i = 0; i < 150; ++i) {
        const double x = rng.UniformDouble(0, 600);
        const double y = rng.UniformDouble(0, 600);
        const Rect area{{x, y}, {x + 400, y + 400}};
        auto res = idx->IntervalQuery(area, {0, 100000});
        if (!res.ok()) errors++;
        auto ts = idx->TimesliceQuery(area, rng.Uniform(5000));
        if (!ts.ok()) errors++;
        auto knn = idx->Knn({x, y}, 5, {0, 100000});
        if (!knn.ok()) errors++;
      }
    });
  }
  for (auto& t : writers) t.join();
  for (auto& t : readers) t.join();
  ASSERT_EQ(errors.load(), 0u);

  // Quiesced: the full-window query must return exactly the oracle set
  // (the window is large enough that nothing expired).
  auto all = idx->IntervalQuery(Rect{{0, 0}, {1000, 1000}}, {0, 100000});
  ASSERT_TRUE(all.ok());
  auto by_oid = [](const Entry& a, const Entry& b) { return a.oid < b.oid; };
  std::sort(all->begin(), all->end(), by_oid);
  std::sort(oracle.begin(), oracle.end(), by_oid);
  ASSERT_EQ(all->size(), oracle.size());
  for (size_t i = 0; i < oracle.size(); ++i) {
    EXPECT_TRUE(SameEntry((*all)[i], oracle[i])) << "at " << i;
  }
  auto count = idx->CountEntries();
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, oracle.size());
  ASSERT_OK(idx->ValidateTrees());
}

// Queries racing CloseCurrent/Advance/Checkpoint loops: every query runs
// against one published shard snapshot, so it must see each close
// atomically — for any (oid, start) either the still-open (ND) entry or
// the closed one, NEVER both in one result set. Expiry can legitimately
// remove entries, so "neither" is only an error while the window is too
// large to expire anything — which this setup guarantees.
TEST(ConcurrentShardTest, SnapshotQueriesRaceWindowMaintenance) {
  auto pager = Pager::OpenMemory();
  BufferPool pool(pager.get(), 4096);
  auto idx_or = SwstIndex::Create(&pool, ShardedOptions(1));
  ASSERT_TRUE(idx_or.ok());
  auto idx = std::move(*idx_or);

  // Seed: every object has one *current* (ND) entry at a known position.
  constexpr int kObjects = 400;
  std::vector<Entry> currents;
  for (int i = 0; i < kObjects; ++i) {
    Random rng(1000 + i);
    Entry e{static_cast<ObjectId>(i),
            {rng.UniformDouble(0, 1000), rng.UniformDouble(0, 1000)},
            static_cast<Timestamp>(1 + rng.Uniform(2000)),
            kUnknownDuration};
    ASSERT_OK(idx->Insert(e));
    currents.push_back(e);
  }

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> errors{0};
  std::atomic<uint64_t> torn{0};

  // Writer: closes every current entry (delete + re-insert with a real
  // duration), interleaved with Advance sweeps and checkpoints — the
  // operations the old read path used to block behind.
  std::thread writer([&] {
    for (int i = 0; i < kObjects; ++i) {
      if (!idx->CloseCurrent(currents[i], 100).ok()) {
        errors++;
        break;
      }
      if (i % 64 == 0) {
        if (!idx->Advance(3000 + i).ok()) errors++;
        PageId meta;
        if (!idx->Save(&meta).ok()) errors++;
      }
    }
    stop.store(true, std::memory_order_release);
  });

  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        auto res = idx->IntervalQuery(Rect{{0, 0}, {1000, 1000}},
                                      {0, 1000000});
        if (!res.ok()) {
          errors++;
          return;
        }
        // Torn-view check: the ND and the closed version of one entry
        // share (oid, start); seeing both means the query straddled the
        // middle of a CloseCurrent.
        std::vector<std::pair<ObjectId, Timestamp>> open, closed;
        for (const Entry& e : *res) {
          (e.is_current() ? open : closed).emplace_back(e.oid, e.start);
        }
        std::sort(open.begin(), open.end());
        std::sort(closed.begin(), closed.end());
        std::vector<std::pair<ObjectId, Timestamp>> both;
        std::set_intersection(open.begin(), open.end(), closed.begin(),
                              closed.end(), std::back_inserter(both));
        if (!both.empty()) torn++;
      }
    });
  }
  writer.join();
  for (auto& t : readers) t.join();
  ASSERT_EQ(errors.load(), 0u);
  EXPECT_EQ(torn.load(), 0u);

  // Quiesced: every object is closed exactly once.
  auto all = idx->IntervalQuery(Rect{{0, 0}, {1000, 1000}}, {0, 1000000});
  ASSERT_TRUE(all.ok());
  ASSERT_EQ(all->size(), static_cast<size_t>(kObjects));
  for (const Entry& e : *all) {
    EXPECT_FALSE(e.is_current()) << "oid " << e.oid;
  }
  ASSERT_OK(idx->ValidateTrees());
}

// The acceptance check for the lock-free read path: a read-only workload
// records nothing in the writer-path shard-lock-wait histogram (queries
// acquire zero mutexes end-to-end), while any mutation records exactly
// its lock acquisitions.
TEST(ConcurrentShardTest, ReadOnlyQueriesAcquireNoShardLocks) {
  obs::MetricsRegistry registry;
  SwstOptions opts = ShardedOptions(2);
  opts.metrics = &registry;
  auto pager = Pager::OpenMemory();
  BufferPool pool(pager.get(), 4096);
  auto idx_or = SwstIndex::Create(&pool, opts);
  ASSERT_TRUE(idx_or.ok());
  auto idx = std::move(*idx_or);

  Random rng(11);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_OK(idx->Insert(RandomEntry(&rng, static_cast<ObjectId>(i))));
  }

  // Registration is idempotent: this returns the index's own histogram.
  auto lock_waits = registry.RegisterHistogram(
      "swst_index_shard_lock_wait_us", "");
  const uint64_t after_writes = lock_waits->count();
  EXPECT_EQ(after_writes, 1000u);  // One exclusive acquisition per Insert.

  for (int i = 0; i < 50; ++i) {
    auto res = idx->IntervalQuery(Rect{{0, 0}, {1000, 1000}}, {0, 100000});
    ASSERT_TRUE(res.ok());
    auto knn = idx->Knn({500, 500}, 5, {0, 100000});
    ASSERT_TRUE(knn.ok());
  }
  EXPECT_EQ(lock_waits->count(), after_writes)
      << "a query recorded a shard-lock acquisition";

  // Epoch metrics are live: every Insert published one snapshot.
  auto published = registry.RegisterCounter(
      "swst_epoch_snapshots_published_total", "");
  EXPECT_GE(published->value(), 1000u);
}

// Epoch reclamation keeps up with mutation churn and fully drains at
// quiescence: after the last mutation (with no readers pinned) the
// pending list is empty — retired snapshots and COW pages never pile up.
TEST(ConcurrentShardTest, EpochReclamationDrainsAtQuiescence) {
  auto pager = Pager::OpenMemory();
  BufferPool pool(pager.get(), 4096);
  auto idx_or = SwstIndex::Create(&pool, ShardedOptions(2));
  ASSERT_TRUE(idx_or.ok());
  auto idx = std::move(*idx_or);

  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        auto res = idx->IntervalQuery(Rect{{0, 0}, {500, 500}}, {0, 100000});
        if (!res.ok()) return;
      }
    });
  }

  Random rng(23);
  for (int i = 0; i < 2000; ++i) {
    ASSERT_OK(idx->Insert(RandomEntry(&rng, static_cast<ObjectId>(i))));
  }
  stop.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();

  auto stats = idx->EpochStats();
  EXPECT_GE(stats.retired, 2000u);  // >= one snapshot per insert.
  EXPECT_GT(stats.reclaimed, 0u);
  EXPECT_EQ(stats.pinned, 0u);

  // One more mutation with no readers: its Retire's opportunistic Collect
  // must drain everything, itself included.
  ASSERT_OK(idx->Insert(RandomEntry(&rng, 99999)));
  stats = idx->EpochStats();
  EXPECT_EQ(stats.pending, 0u);
  EXPECT_EQ(stats.retired, stats.reclaimed);

  auto count = idx->CountEntries();
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, 2001u);
  ASSERT_OK(idx->ValidateTrees());
}

// Delete and CloseCurrent on positions outside the grid domain must fail
// with InvalidArgument, exactly like Insert — not assert or corrupt state.
TEST(ConcurrentShardTest, OutOfDomainMutationsAreInvalidArgument) {
  auto pager = Pager::OpenMemory();
  BufferPool pool(pager.get(), 512);
  auto idx_or = SwstIndex::Create(&pool, ShardedOptions(1));
  ASSERT_TRUE(idx_or.ok());
  auto idx = std::move(*idx_or);

  Entry outside = MakeEntry(1, 5000, 5000, 10, 100);
  EXPECT_TRUE(idx->Insert(outside).IsInvalidArgument());
  EXPECT_TRUE(idx->Delete(outside).IsInvalidArgument());
  Entry current = outside;
  current.duration = kUnknownDuration;
  EXPECT_TRUE(idx->CloseCurrent(current, 50).IsInvalidArgument());

  // In-domain entries keep their existing semantics.
  Entry inside = MakeEntry(2, 10, 10, 10, 100);
  ASSERT_OK(idx->Insert(inside));
  ASSERT_OK(idx->Delete(inside));
  EXPECT_TRUE(idx->Delete(inside).IsNotFound() ||
              idx->Delete(inside).ok() == false);

  // query_threads = 0 is rejected at validation time.
  SwstOptions bad = ShardedOptions(0);
  EXPECT_TRUE(SwstIndex::Create(&pool, bad).status().IsInvalidArgument());
}

// A batch validated against an older clock must never drop a newer epoch's
// tree. Thread A batch-inserts `x` (epoch 0) while thread B inserts `y`
// (epoch 2, same cell, the slot `x` would use). If B's epoch-2 tree is
// already in the slot when A applies, `x` expired concurrently and is
// skipped; whenever B was acked, `y` must be queriable afterwards.
TEST(ConcurrentShardTest, BatchNeverDropsNewerEpochTree) {
  // The geometry of swst_batch_differential_test (E = 1260).
  SwstOptions o;
  o.space = Rect{{0, 0}, {1000, 1000}};
  o.x_partitions = 4;
  o.y_partitions = 4;
  o.window_size = 1200;
  o.slide = 60;
  o.max_duration = 240;
  o.duration_interval = 60;
  o.zcurve_bits = 6;
  const Timestamp epoch = o.epoch_length();
  const Entry x{1, {10, 10}, 100, 5};
  const Entry y{2, {11, 11}, 2 * epoch + 10, 5};

  int lost = 0;
  for (int iter = 0; iter < 2000; ++iter) {
    auto pager = Pager::OpenMemory();
    BufferPool pool(pager.get(), 64);
    auto idx_or = SwstIndex::Create(&pool, o);
    ASSERT_TRUE(idx_or.ok());
    SwstIndex& idx = **idx_or;

    // A spinning start barrier releases both threads together; then one
    // of them spins a skew that sweeps -20..20 steps across iterations, so
    // the two writes meet at every relative offset the race needs.
    const int skew = iter % 41 - 20;
    std::atomic<int> ready{0};
    std::atomic<bool> go{false};
    std::atomic<int> spin{0};
    Status sb;
    auto start = [&](int steps) {
      ready.fetch_add(1);
      while (!go.load()) {
      }
      for (int s = 0; s < 4 * steps; ++s) {
        spin.fetch_add(1, std::memory_order_relaxed);
      }
    };
    std::thread a([&] {
      start(std::max(skew, 0));
      (void)idx.InsertBatch(&x, 1);
    });
    std::thread b([&] {
      start(std::max(-skew, 0));
      sb = idx.Insert(y);
    });
    while (ready.load() < 2) std::this_thread::yield();
    go.store(true);
    a.join();
    b.join();
    if (!sb.ok()) continue;

    auto r = idx.IntervalQuery(o.space, idx.QueriablePeriod());
    ASSERT_OK(r.status());
    if (std::none_of(r->begin(), r->end(),
                     [](const Entry& e) { return e.oid == 2; })) {
      ++lost;
    }
  }
  EXPECT_EQ(lost, 0);
}

// Hammer the striped buffer pool from many threads: page contents must
// stay intact and the aggregated stats must cover every partition.
TEST(ConcurrentShardTest, StripedPoolParallelFetchKeepsPagesIntact) {
  auto pager = Pager::OpenMemory();
  BufferPool pool(pager.get(), 2048);
  EXPECT_GT(pool.partition_count(), 1u);

  constexpr int kPages = 256;
  std::vector<PageId> ids;
  for (int i = 0; i < kPages; ++i) {
    auto page = pool.New();
    ASSERT_TRUE(page.ok());
    *page->As<uint64_t>() = static_cast<uint64_t>(i);
    page->MarkDirty();
    ids.push_back(page->id());
  }

  std::atomic<uint64_t> errors{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      Random rng(t);
      for (int i = 0; i < 2000; ++i) {
        const int p = static_cast<int>(rng.Uniform(kPages));
        auto page = pool.Fetch(ids[p]);
        if (!page.ok() ||
            *page->As<const uint64_t>() != static_cast<uint64_t>(p)) {
          errors++;
          return;
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(errors.load(), 0u);
  EXPECT_GE(pool.stats().logical_reads, 8u * 2000u);
  ASSERT_OK(pool.FlushAll());
  EXPECT_EQ(pool.pinned_count(), 0u);
}

}  // namespace
}  // namespace swst
