// Flight recorder: per-thread lock-free event rings, merged dumps, stats,
// and dump-under-write safety. The Concurrent* cases here are the TSan
// targets for the recorder's seqlock protocol.

#include "obs/flight_recorder.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <set>
#include <string>
#include <thread>
#include <vector>

namespace swst {
namespace obs {
namespace {

TEST(FlightRecorderTest, EmitDumpRoundTrip) {
  FlightRecorder rec(/*events_per_thread=*/64);
  rec.Emit(EventType::kWalRotate, 7, 4100);
  rec.Emit(EventType::kWindowAdvance, 200, 3, 12);
  rec.Emit(EventType::kCloseMigrate, 42, 100, 5, 17);

  const auto events = rec.Dump();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].type, EventType::kWalRotate);
  EXPECT_EQ(events[0].a0, 7u);
  EXPECT_EQ(events[0].a1, 4100u);
  EXPECT_EQ(events[1].type, EventType::kWindowAdvance);
  EXPECT_EQ(events[1].a2, 12u);
  EXPECT_EQ(events[2].type, EventType::kCloseMigrate);
  EXPECT_EQ(events[2].a3, 17u);
  // Global sequence is a total order; timestamps never run backwards.
  EXPECT_LT(events[0].seq, events[1].seq);
  EXPECT_LT(events[1].seq, events[2].seq);
  EXPECT_LE(events[0].ts_ns, events[1].ts_ns);
  // All three came from this thread.
  EXPECT_EQ(events[0].tid, events[2].tid);
}

TEST(FlightRecorderTest, DisabledEmitsNothing) {
  FlightRecorder rec(64);
  rec.SetEnabled(false);
  rec.Emit(EventType::kWalRotate, 1);
  EXPECT_TRUE(rec.Dump().empty());
  EXPECT_EQ(rec.stats().emitted, 0u);
  rec.SetEnabled(true);
  rec.Emit(EventType::kWalRotate, 2);
  ASSERT_EQ(rec.Dump().size(), 1u);
  EXPECT_EQ(rec.Dump()[0].a0, 2u);
}

TEST(FlightRecorderTest, RingWrapKeepsNewestAndCounts) {
  FlightRecorder rec(/*events_per_thread=*/8);
  for (uint64_t i = 0; i < 20; ++i) {
    rec.Emit(EventType::kEpochReclaim, i);
  }
  const auto events = rec.Dump();
  ASSERT_EQ(events.size(), 8u);
  // The newest 8 payloads survive, in order.
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].a0, 12 + i);
  }
  const auto st = rec.stats();
  EXPECT_EQ(st.emitted, 20u);
  EXPECT_EQ(st.retained, 8u);
  EXPECT_EQ(st.overwritten, 12u);
  EXPECT_EQ(st.threads, 1u);
}

TEST(FlightRecorderTest, CapacityRoundsUpToPowerOfTwo) {
  FlightRecorder rec(/*events_per_thread=*/10);  // Rounds up to 16.
  for (uint64_t i = 0; i < 16; ++i) {
    rec.Emit(EventType::kEpochReclaim, i);
  }
  EXPECT_EQ(rec.Dump().size(), 16u);
  EXPECT_EQ(rec.stats().overwritten, 0u);
}

TEST(FlightRecorderTest, DumpTrimsToNewestMaxEvents) {
  FlightRecorder rec(64);
  for (uint64_t i = 0; i < 10; ++i) {
    rec.Emit(EventType::kEpochReclaim, i);
  }
  const auto newest = rec.Dump(/*max_events=*/3);
  ASSERT_EQ(newest.size(), 3u);
  EXPECT_EQ(newest[0].a0, 7u);
  EXPECT_EQ(newest[2].a0, 9u);
}

TEST(FlightRecorderTest, ResetClearsEventsButNotSequence) {
  FlightRecorder rec(64);
  rec.Emit(EventType::kWalRotate, 1);
  const uint64_t seq_before = rec.Dump()[0].seq;
  rec.Reset();
  EXPECT_TRUE(rec.Dump().empty());
  EXPECT_EQ(rec.stats().retained, 0u);
  rec.Emit(EventType::kWalRotate, 2);
  ASSERT_EQ(rec.Dump().size(), 1u);
  EXPECT_GT(rec.Dump()[0].seq, seq_before);
}

TEST(FlightRecorderTest, PerThreadRingsMergeBySequence) {
  FlightRecorder rec(256);
  constexpr int kThreads = 4;
  constexpr uint64_t kPerThread = 100;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&rec, t] {
      for (uint64_t i = 0; i < kPerThread; ++i) {
        rec.Emit(EventType::kSnapshotPublish, static_cast<uint64_t>(t), i);
      }
    });
  }
  for (auto& th : threads) th.join();

  const auto events = rec.Dump();
  ASSERT_EQ(events.size(), kThreads * kPerThread);
  std::set<uint64_t> seqs;
  std::vector<uint64_t> next_per_emitter(kThreads, 0);
  uint64_t prev_seq = 0;
  for (const auto& e : events) {
    EXPECT_GT(e.seq, prev_seq);  // Strictly increasing merge order.
    prev_seq = e.seq;
    EXPECT_TRUE(seqs.insert(e.seq).second);
    ASSERT_LT(e.a0, static_cast<uint64_t>(kThreads));
    // Per emitter, payloads appear in program order.
    EXPECT_EQ(e.a1, next_per_emitter[e.a0]++);
  }
  EXPECT_EQ(rec.stats().threads, static_cast<uint64_t>(kThreads));
}

TEST(FlightRecorderConcurrencyTest, DumpUnderConcurrentEmit) {
  FlightRecorder rec(/*events_per_thread=*/64);  // Small: force wrapping.
  constexpr int kEmitters = 4;
  constexpr uint64_t kPerThread = 20000;
  std::atomic<bool> stop{false};
  std::vector<std::thread> emitters;
  for (int t = 0; t < kEmitters; ++t) {
    emitters.emplace_back([&rec, t] {
      for (uint64_t i = 0; i < kPerThread; ++i) {
        rec.Emit(EventType::kEpochReclaim, static_cast<uint64_t>(t), i,
                 i * 2, i * 3);
      }
    });
  }
  // Readers race the emitters: every dumped event must be internally
  // consistent (torn slots are discarded by the per-slot seqlock, never
  // surfaced as frankenstein events).
  std::thread reader([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      const auto events = rec.Dump();
      uint64_t prev_seq = 0;
      for (const auto& e : events) {
        ASSERT_GT(e.seq, prev_seq);
        prev_seq = e.seq;
        ASSERT_EQ(e.type, EventType::kEpochReclaim);
        ASSERT_LT(e.a0, static_cast<uint64_t>(kEmitters));
        ASSERT_LT(e.a1, kPerThread);
        ASSERT_EQ(e.a2, e.a1 * 2);  // Payload words belong together.
        ASSERT_EQ(e.a3, e.a1 * 3);
      }
    }
  });
  for (auto& th : emitters) th.join();
  stop.store(true, std::memory_order_relaxed);
  reader.join();

  const auto st = rec.stats();
  EXPECT_EQ(st.emitted, kEmitters * kPerThread);
  EXPECT_EQ(st.threads, static_cast<uint64_t>(kEmitters));
  // Every ring wrapped many times and is full now.
  EXPECT_EQ(rec.Dump().size(), static_cast<size_t>(kEmitters) * 64);
}

TEST(FlightRecorderTest, RenderTextFormat) {
  FlightRecorder rec(64);
  rec.Emit(EventType::kWalRotate, 7, 4100);
  const std::string text = FlightRecorder::RenderText(rec.Dump());
  EXPECT_NE(text.find("wal_rotate"), std::string::npos);
  EXPECT_NE(text.find("a0=7"), std::string::npos);
  EXPECT_NE(text.find("a1=4100"), std::string::npos);
  EXPECT_NE(text.find("tid=0"), std::string::npos);
  // Trailing zero args are omitted.
  EXPECT_EQ(text.find("a2="), std::string::npos);
}

TEST(FlightRecorderTest, RenderJsonLinesFormat) {
  FlightRecorder rec(64);
  rec.Emit(EventType::kLeafMigrateV2, 12);
  rec.Emit(EventType::kFaultInjected, 3, 9);
  const std::string json = FlightRecorder::RenderJsonLines(rec.Dump());
  EXPECT_NE(json.find("\"type\":\"leaf_migrate_v2\""), std::string::npos);
  EXPECT_NE(json.find("\"type\":\"fault_injected\""), std::string::npos);
  EXPECT_NE(json.find("\"args\":[12,0,0,0]"), std::string::npos);
  EXPECT_NE(json.find("\"args\":[3,9,0,0]"), std::string::npos);
  // One self-contained object per line.
  EXPECT_EQ(std::count(json.begin(), json.end(), '\n'), 2);
}

TEST(FlightRecorderTest, WriteToFdMatchesRenderTextShape) {
  FlightRecorder rec(64);
  rec.Emit(EventType::kCheckpointEnd, 55, 3);
  FILE* f = std::tmpfile();
  ASSERT_NE(f, nullptr);
  rec.WriteToFd(fileno(f));
  std::fflush(f);
  std::rewind(f);
  char buf[4096] = {0};
  const size_t n = std::fread(buf, 1, sizeof(buf) - 1, f);
  std::fclose(f);
  const std::string out(buf, n);
  EXPECT_NE(out.find("checkpoint_end"), std::string::npos);
  EXPECT_NE(out.find("a0=55"), std::string::npos);
  EXPECT_NE(out.find("a1=3"), std::string::npos);
}

TEST(FlightRecorderTest, GlobalRecorderReceivesRecordEvent) {
  FlightRecorder& g = FlightRecorder::Global();
  const uint64_t emitted_before = g.stats().emitted;
  RecordEvent(EventType::kFatal, 11);
  EXPECT_EQ(g.stats().emitted, emitted_before + 1);
  const auto events = g.Dump();
  ASSERT_FALSE(events.empty());
  EXPECT_EQ(events.back().type, EventType::kFatal);
  EXPECT_EQ(events.back().a0, 11u);
}

TEST(FlightRecorderTest, EventTypeNamesAreStable) {
  EXPECT_STREQ(EventTypeName(EventType::kWindowAdvance), "window_advance");
  EXPECT_STREQ(EventTypeName(EventType::kSlowQuery), "slow_query");
  EXPECT_STREQ(EventTypeName(EventType::kLeafMigrateV2), "leaf_migrate_v2");
}

}  // namespace
}  // namespace obs
}  // namespace swst
