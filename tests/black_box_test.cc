// Black-box dumps: the fatal-signal and Fatal() paths must emit one
// complete dump (flight recorder, slow queries, metrics snapshot) to
// stderr and the crash file, then die with the original signal semantics.
// Death-test fixtures are named *DeathTest so gtest runs them first,
// before the parent process installs any signal handlers of its own.

#include "obs/black_box.h"

#include <gtest/gtest.h>
#include <signal.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "obs/flight_recorder.h"
#include "obs/history_ring.h"
#include "obs/metrics.h"
#include "obs/slow_query_log.h"

// Under AddressSanitizer, ASan's own SIGSEGV handler pre-empts the one
// BlackBox::Install sets, and once BlackBox re-raises through the previous
// disposition it lands in ASan's handler again, so a fatal-signal child
// would print an ASan report instead of the dump and not die by SIGSEGV.
// handle_segv=0 leaves SIGSEGV to the program. ASAN_OPTIONS from the
// environment are applied on top of these defaults.
#if defined(__SANITIZE_ADDRESS__)
#define SWST_TEST_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define SWST_TEST_ASAN 1
#endif
#endif
#ifdef SWST_TEST_ASAN
extern "C" const char* __asan_default_options() { return "handle_segv=0"; }
#endif

namespace swst {
namespace obs {
namespace {

std::string ReadFileOrEmpty(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

size_t CountOccurrences(const std::string& haystack, const std::string& sub) {
  size_t count = 0;
  for (size_t pos = haystack.find(sub); pos != std::string::npos;
       pos = haystack.find(sub, pos + sub.size())) {
    count++;
  }
  return count;
}

TEST(BlackBoxDeathTest, FatalDumpsReasonAndAborts) {
  EXPECT_EXIT(
      {
        BlackBox::Install(
            BlackBox::Sources{&FlightRecorder::Global(), nullptr, nullptr});
        RecordEvent(EventType::kWalRotate, 7);
        BlackBox::Fatal("forced by test");
      },
      ::testing::KilledBySignal(SIGABRT), "reason: forced by test");
}

TEST(BlackBoxDeathTest, FatalSignalProducesDumpAndReRaises) {
  EXPECT_EXIT(
      {
        BlackBox::Install(
            BlackBox::Sources{&FlightRecorder::Global(), nullptr, nullptr});
        ::raise(SIGSEGV);
      },
      ::testing::KilledBySignal(SIGSEGV), "fatal signal 11");
}

TEST(BlackBoxDeathTest, CrashFileReceivesExactlyOneDump) {
  const std::string crash_path =
      ::testing::TempDir() + "swst_black_box_crash.txt";
  std::remove(crash_path.c_str());
  EXPECT_EXIT(
      {
        static SlowQueryLog slow_log({/*latency_threshold_us=*/0,
                                      /*sample_every=*/1, /*capacity=*/8});
        slow_log.Record(2500, "probe query", {}, nullptr);
        BlackBox::Install(BlackBox::Sources{&FlightRecorder::Global(),
                                            &slow_log, nullptr},
                          crash_path);
        BlackBox::Fatal("crash-file test");
      },
      ::testing::KilledBySignal(SIGABRT), "crash-file test");
  // The death-test child fsync'd the crash file before aborting.
  const std::string dump = ReadFileOrEmpty(crash_path);
  EXPECT_EQ(CountOccurrences(dump, BlackBox::kMarker), 1u);
  EXPECT_EQ(CountOccurrences(dump, "=== END SWST BLACK BOX ==="), 1u);
  EXPECT_NE(dump.find("reason: crash-file test"), std::string::npos);
  EXPECT_NE(dump.find("--- slow queries ---"), std::string::npos);
  EXPECT_NE(dump.find("probe query"), std::string::npos);
  std::remove(crash_path.c_str());
}

// Debug builds trip the registry's destructor assert when a component
// forgets to unregister its callback gauges; release builds stay silent.
TEST(MetricsRegistryDeathTest, DestructorAssertsOnDanglingCallbackGauge) {
  int owner = 0;
  EXPECT_DEBUG_DEATH(
      {
        MetricsRegistry registry;
        registry.RegisterCallback("test_dangling_gauge", "leaks on purpose",
                                  [] { return int64_t{1}; }, &owner);
      },
      "live callback gauge");
}

TEST(BlackBoxTest, DumpToFdWritesAllSections) {
  MetricsRegistry registry;
  auto counter = registry.RegisterCounter("test_bb_ops_total", "ops");
  counter->Increment(5);
  MetricsHistory history(&registry);
  history.SampleNow();
  SlowQueryLog slow_log({/*latency_threshold_us=*/0, /*sample_every=*/1,
                         /*capacity=*/8});
  slow_log.Record(12345, "interval probe", {{"results", 3}}, nullptr);
  FlightRecorder recorder(64);
  recorder.Emit(EventType::kCheckpointBegin, 9);

  BlackBox::Install(BlackBox::Sources{&recorder, &slow_log, &history});
  FILE* f = std::tmpfile();
  ASSERT_NE(f, nullptr);
  BlackBox::DumpToFd(fileno(f), /*signo=*/0, "unit test");
  std::fflush(f);
  std::rewind(f);
  char buf[16384] = {0};
  const size_t n = std::fread(buf, 1, sizeof(buf) - 1, f);
  std::fclose(f);
  const std::string out(buf, n);

  EXPECT_NE(out.find(BlackBox::kMarker), std::string::npos);
  EXPECT_EQ(out.find("fatal signal"), std::string::npos);  // signo == 0.
  EXPECT_NE(out.find("reason: unit test"), std::string::npos);
  EXPECT_NE(out.find("--- flight recorder (last events, per thread) ---"),
            std::string::npos);
  EXPECT_NE(out.find("checkpoint_begin"), std::string::npos);
  EXPECT_NE(out.find("--- slow queries ---"), std::string::npos);
  EXPECT_NE(out.find("12.345ms"), std::string::npos);
  EXPECT_NE(out.find("--- metrics snapshot ---"), std::string::npos);
  EXPECT_NE(out.find("test_bb_ops_total 5"), std::string::npos);
  EXPECT_NE(out.find("=== END SWST BLACK BOX ==="), std::string::npos);

  // Sources are non-owning: null them before the locals die.
  BlackBox::Install(BlackBox::Sources{});
}

TEST(BlackBoxTest, SignoRendersInHeader) {
  BlackBox::Install(BlackBox::Sources{});
  FILE* f = std::tmpfile();
  ASSERT_NE(f, nullptr);
  BlackBox::DumpToFd(fileno(f), SIGBUS, nullptr);
  std::fflush(f);
  std::rewind(f);
  char buf[4096] = {0};
  const size_t n = std::fread(buf, 1, sizeof(buf) - 1, f);
  std::fclose(f);
  const std::string out(buf, n);
  EXPECT_NE(out.find("fatal signal "), std::string::npos);
  EXPECT_EQ(out.find("reason:"), std::string::npos);
}

}  // namespace
}  // namespace obs
}  // namespace swst
