// Metrics history ring: scalar collection, in-process rates, ring
// retention, the sampler thread, and its JSON-lines sink. Also
// pins the pool's compression gauges to the registry (the metric catalog
// in docs/observability.md documents them).

#include "obs/history_ring.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "storage/buffer_pool.h"
#include "storage/pager.h"

namespace swst {
namespace obs {
namespace {

MetricsHistory::Options FastOpts() {
  MetricsHistory::Options o;
  o.period = std::chrono::milliseconds(5);
  return o;
}

TEST(MetricsCollectScalarsTest, ClassifiesMonotonicity) {
  MetricsRegistry registry;
  auto c = registry.RegisterCounter("test_ops_total", "ops");
  auto g = registry.RegisterGauge("test_depth", "depth");
  auto h = registry.RegisterHistogram("test_lat_us", "latency");
  c->Increment(42);
  g->Set(-7);
  h->Record(10);
  h->Record(30);

  std::map<std::string, MetricsRegistry::Scalar> by_name;
  for (const auto& s : registry.CollectScalars()) by_name[s.name] = s;

  ASSERT_TRUE(by_name.count("test_ops_total"));
  EXPECT_EQ(by_name["test_ops_total"].value, 42);
  EXPECT_TRUE(by_name["test_ops_total"].monotonic);
  ASSERT_TRUE(by_name.count("test_depth"));
  EXPECT_EQ(by_name["test_depth"].value, -7);
  EXPECT_FALSE(by_name["test_depth"].monotonic);
  // Histograms flatten to monotonic _count/_sum scalars.
  ASSERT_TRUE(by_name.count("test_lat_us_count"));
  EXPECT_EQ(by_name["test_lat_us_count"].value, 2);
  EXPECT_TRUE(by_name["test_lat_us_count"].monotonic);
  ASSERT_TRUE(by_name.count("test_lat_us_sum"));
  EXPECT_EQ(by_name["test_lat_us_sum"].value, 40);
}

TEST(MetricsHistoryTest, RatesDifferenceTheWindow) {
  MetricsRegistry registry;
  auto c = registry.RegisterCounter("test_ops_total", "ops");
  auto g = registry.RegisterGauge("test_depth", "depth");
  MetricsHistory history(&registry, FastOpts());

  c->Increment(10);
  g->Set(5);
  history.SampleNow();
  c->Increment(90);
  g->Set(3);
  history.SampleNow();

  const auto rates = history.Rates(std::chrono::milliseconds(60000));
  std::map<std::string, MetricsHistory::Rate> by_name;
  for (const auto& r : rates) by_name[r.name] = r;
  ASSERT_TRUE(by_name.count("test_ops_total"));
  EXPECT_EQ(by_name["test_ops_total"].latest, 100);
  EXPECT_EQ(by_name["test_ops_total"].delta, 90);
  EXPECT_TRUE(by_name["test_ops_total"].monotonic);
  EXPECT_GT(by_name["test_ops_total"].per_second, 0.0);
  ASSERT_TRUE(by_name.count("test_depth"));
  EXPECT_EQ(by_name["test_depth"].latest, 3);
  EXPECT_EQ(by_name["test_depth"].delta, -2);
  EXPECT_FALSE(by_name["test_depth"].monotonic);

  const std::string text =
      history.RenderRatesText(std::chrono::milliseconds(60000));
  EXPECT_NE(text.find("test_ops_total latest=100 delta=90"),
            std::string::npos);
  const std::string json =
      history.RenderRatesJson(std::chrono::milliseconds(60000));
  EXPECT_NE(json.find("\"name\": \"test_ops_total\""), std::string::npos);
  EXPECT_NE(json.find("\"delta\": 90"), std::string::npos);
}

TEST(MetricsHistoryTest, RingRetainsNewestCapacity) {
  MetricsRegistry registry;
  auto c = registry.RegisterCounter("test_ops_total", "ops");
  MetricsHistory history(&registry);
  const size_t cap = history.capacity();
  for (size_t i = 0; i < cap + 3; ++i) {
    c->Increment();
    history.SampleNow();
  }
  const auto samples = history.Samples();
  ASSERT_EQ(samples.size(), cap);
  EXPECT_EQ(samples.front().seq, 4u);
  EXPECT_EQ(samples.back().seq, cap + 3);
  EXPECT_EQ(history.sample_count(), cap + 3);
}

// The ring is sized from the period: a fast sampler (the CLI's
// `--stats-dump-ms 50`) still retains a sample a full rate window old.
TEST(MetricsHistoryTest, CapacityCoversTheRateWindow) {
  MetricsRegistry registry;
  for (const int period_ms : {50, 1000}) {
    MetricsHistory::Options o;
    o.period = std::chrono::milliseconds(period_ms);
    MetricsHistory history(&registry, o);
    EXPECT_GE((history.capacity() - 1) * o.period,
              MetricsHistory::kRateWindow)
        << period_ms;
  }
  MetricsHistory default_history(&registry);
  EXPECT_EQ(default_history.capacity(), 128u);  // ~2 min at 1 s.
}

TEST(MetricsHistoryTest, EmptyAndSingleSampleHaveNoRates) {
  MetricsRegistry registry;
  MetricsHistory history(&registry, FastOpts());
  EXPECT_TRUE(history.Rates().empty());
  history.SampleNow();
  EXPECT_TRUE(history.Rates().empty());  // Needs two points to difference.
}

TEST(MetricsHistoryTest, SamplerThreadCollectsOnCadence) {
  MetricsRegistry registry;
  auto c = registry.RegisterCounter("test_ops_total", "ops");
  MetricsHistory history(&registry, FastOpts());
  history.Start();
  history.Start();  // Idempotent.
  c->Increment(5);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (history.sample_count() < 3 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_GE(history.sample_count(), 3u);
  history.Stop();
  history.Stop();  // Idempotent.
  const auto count_after_stop = history.sample_count();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(history.sample_count(), count_after_stop);
}

TEST(MetricsHistoryTest, WriteLastSampleToFd) {
  MetricsRegistry registry;
  auto c = registry.RegisterCounter("test_ops_total", "ops");
  c->Increment(123);
  MetricsHistory history(&registry, FastOpts());
  history.SampleNow();
  FILE* f = std::tmpfile();
  ASSERT_NE(f, nullptr);
  history.WriteLastSampleToFd(fileno(f));
  std::fflush(f);
  std::rewind(f);
  char buf[8192] = {0};
  const size_t n = std::fread(buf, 1, sizeof(buf) - 1, f);
  std::fclose(f);
  const std::string out(buf, n);
  EXPECT_NE(out.find("metrics sample #1"), std::string::npos);
  EXPECT_NE(out.find("test_ops_total 123"), std::string::npos);
}

TEST(MetricsHistoryTest, SinkGetsSelfContainedJsonLines) {
  MetricsRegistry registry;
  auto c = registry.RegisterCounter("test_ops_total", "ops");
  c->Increment(9);
  std::vector<std::string> lines;
  MetricsHistory::Options o;
  o.period = std::chrono::milliseconds(60000);
  o.sink = [&lines](const std::string& s) { lines.push_back(s); };
  MetricsHistory history(&registry, o);
  history.Start();  // The baseline sample is not streamed.
  EXPECT_TRUE(lines.empty());
  history.Stop();  // Streams the final line without waiting out the period.
  history.Stop();  // Idempotent: no second final line.
  ASSERT_EQ(lines.size(), 1u);
  const std::string& line = lines[0];
  EXPECT_EQ(line.rfind("{\"ts_ms\": ", 0), 0u);  // Starts the envelope.
  // `seq` is the sample's own ordinal: the baseline was #1.
  EXPECT_EQ(history.sample_count(), 2u);
  EXPECT_NE(line.find(", \"seq\": 2, "), std::string::npos);
  EXPECT_NE(line.find("\"counters\""), std::string::npos);
  EXPECT_NE(line.find("\"test_ops_total\": 9"), std::string::npos);
  EXPECT_EQ(line.back(), '\n');
  // One line per snapshot: exactly one newline, at the end.
  EXPECT_EQ(line.find('\n'), line.size() - 1);
}

TEST(MetricsHistoryTest, SinkStreamsEveryPeriodicSample) {
  MetricsRegistry registry;
  std::mutex mu;
  std::vector<std::string> lines;
  MetricsHistory::Options o = FastOpts();
  o.sink = [&](const std::string& s) {
    std::lock_guard<std::mutex> lock(mu);
    lines.push_back(s);
  };
  MetricsHistory history(&registry, o);
  history.Start();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (history.sample_count() < 4 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  history.Stop();
  // Every sample after the baseline was streamed, in order: seq 2..n.
  std::lock_guard<std::mutex> lock(mu);
  ASSERT_GE(lines.size(), 3u);
  ASSERT_EQ(lines.size(), history.sample_count() - 1);
  for (size_t i = 0; i < lines.size(); ++i) {
    EXPECT_NE(lines[i].find(", \"seq\": " + std::to_string(i + 2) + ", "),
              std::string::npos)
        << lines[i].substr(0, 40);
  }
}

TEST(MetricsCatalogTest, PoolRegistersCompressionGauges) {
  MetricsRegistry registry;
  auto pager = Pager::OpenMemory();
  BufferPool pool(pager.get(), 64, /*partitions=*/0, &registry);
  const std::string prom = registry.RenderPrometheus();
  // The leaf-compression IoStats counters must stay visible as registry
  // gauges — the docs/observability.md catalog documents exactly these
  // names. The read path has one engine, so no engine-specific series.
  for (const char* name :
       {"swst_pool_pages_compressed", "swst_pool_compression_saved_bytes"}) {
    EXPECT_NE(prom.find(name), std::string::npos) << name;
  }
  EXPECT_EQ(prom.find("uring"), std::string::npos);
}

}  // namespace
}  // namespace obs
}  // namespace swst
