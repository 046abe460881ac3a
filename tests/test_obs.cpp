// Observability subsystem tests: registry semantics, scoped-timer
// nesting, JSONL record schema, disabled-mode no-op behaviour, CLI flag
// parsing, and thread safety under the PR-1 thread pool.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/sink.hpp"
#include "util/thread_pool.hpp"

namespace gddr::obs {
namespace {

// The registry is process-global; every test starts from a clean enabled
// slate and leaves it disabled and empty for the next one.
class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Registry::instance().reset();
    Registry::instance().enable();
  }
  void TearDown() override {
    Registry::instance().disable();
    Registry::instance().reset();
  }
};

const std::uint64_t* find_counter(const Snapshot& snap,
                                  const std::string& name) {
  for (const auto& [n, v] : snap.counters) {
    if (n == name) return &v;
  }
  return nullptr;
}

// Busy-waits until the steady clock has advanced by `us` so a ScopedTimer
// span has a guaranteed minimum length.  A sleep would do the same job
// but is banned in tests (tools/lint.py): sleeping for synchronisation
// breeds flakes, and on the timer tests a spin additionally guarantees
// the elapsed time regardless of scheduler granularity.
void spin_at_least(std::chrono::microseconds us) {
  const auto until = std::chrono::steady_clock::now() + us;
  while (std::chrono::steady_clock::now() < until) {
  }
}

// ---------------- registry semantics ----------------

TEST_F(ObsTest, CountersAccumulate) {
  count("a/b");
  count("a/b", 4);
  count("a/c");
  const Snapshot snap = Registry::instance().snapshot();
  ASSERT_EQ(snap.counters.size(), 2U);
  // Snapshots are sorted by name.
  EXPECT_EQ(snap.counters[0].first, "a/b");
  EXPECT_EQ(snap.counters[0].second, 5U);
  EXPECT_EQ(snap.counters[1].first, "a/c");
  EXPECT_EQ(snap.counters[1].second, 1U);
}

TEST_F(ObsTest, GaugesKeepLastValue) {
  gauge("lr", 0.001);
  gauge("lr", 0.0005);
  const Snapshot snap = Registry::instance().snapshot();
  ASSERT_EQ(snap.gauges.size(), 1U);
  EXPECT_DOUBLE_EQ(snap.gauges[0].second, 0.0005);
}

TEST_F(ObsTest, HistogramBucketsAndOverflow) {
  Registry::instance().define_histogram("h", {1.0, 10.0, 100.0});
  observe("h", 0.5);    // bucket <= 1
  observe("h", 1.0);    // boundary counts into its bound's bucket
  observe("h", 7.0);    // <= 10
  observe("h", 1000.0);  // +inf overflow
  const Snapshot snap = Registry::instance().snapshot();
  ASSERT_EQ(snap.histograms.size(), 1U);
  const HistogramSnapshot& h = snap.histograms[0].second;
  ASSERT_EQ(h.counts.size(), 4U);
  EXPECT_EQ(h.counts[0], 2U);
  EXPECT_EQ(h.counts[1], 1U);
  EXPECT_EQ(h.counts[2], 0U);
  EXPECT_EQ(h.counts[3], 1U);
  EXPECT_EQ(h.count, 4U);
  EXPECT_DOUBLE_EQ(h.sum, 1008.5);
}

TEST_F(ObsTest, HistogramQuantileInterpolatesWithinBuckets) {
  HistogramSnapshot h;
  h.upper_bounds = {10.0, 20.0, 40.0};
  h.counts = {10, 10, 0, 0};  // uniform mass over (0,10] and (10,20]
  h.count = 20;

  // Rank 10 (q=0.5) is the top of the first bucket; rank 15 (q=0.75) sits
  // halfway through the second.
  EXPECT_DOUBLE_EQ(histogram_quantile(h, 0.5), 10.0);
  EXPECT_DOUBLE_EQ(histogram_quantile(h, 0.75), 15.0);
  EXPECT_DOUBLE_EQ(histogram_quantile(h, 1.0), 20.0);
  EXPECT_DOUBLE_EQ(histogram_quantile(h, 0.0), 0.0);

  // A rank in the +inf overflow bucket clamps to the largest finite bound
  // instead of fabricating a value.
  h.counts = {0, 0, 0, 5};
  h.count = 5;
  EXPECT_DOUBLE_EQ(histogram_quantile(h, 0.99), 40.0);
}

TEST_F(ObsTest, HistogramQuantileRejectsDegenerateInput) {
  HistogramSnapshot empty;
  empty.upper_bounds = {1.0};
  empty.counts = {0, 0};
  EXPECT_TRUE(std::isnan(histogram_quantile(empty, 0.5)));

  HistogramSnapshot h;
  h.upper_bounds = {1.0};
  h.counts = {1, 0};
  h.count = 1;
  EXPECT_TRUE(std::isnan(histogram_quantile(h, -0.1)));
  EXPECT_TRUE(std::isnan(histogram_quantile(h, 1.1)));
  EXPECT_FALSE(std::isnan(histogram_quantile(h, 0.99)));
}

TEST_F(ObsTest, ObserveWithoutDefinitionUsesDefaultBuckets) {
  observe("auto", 3.0);
  const Snapshot snap = Registry::instance().snapshot();
  ASSERT_EQ(snap.histograms.size(), 1U);
  EXPECT_EQ(snap.histograms[0].second.upper_bounds,
            Registry::default_buckets());
  EXPECT_EQ(snap.histograms[0].second.count, 1U);
}

TEST_F(ObsTest, FirstHistogramDefinitionWins) {
  Registry::instance().define_histogram("h", {1.0, 2.0});
  Registry::instance().define_histogram("h", {5.0});
  const Snapshot snap = Registry::instance().snapshot();
  ASSERT_EQ(snap.histograms.size(), 1U);
  EXPECT_EQ(snap.histograms[0].second.upper_bounds.size(), 2U);
}

TEST_F(ObsTest, ResetDropsEverything) {
  count("c");
  gauge("g", 1.0);
  observe("h", 1.0);
  { ScopedTimer t("t"); }
  Registry::instance().reset();
  const Snapshot snap = Registry::instance().snapshot();
  EXPECT_TRUE(snap.counters.empty());
  EXPECT_TRUE(snap.gauges.empty());
  EXPECT_TRUE(snap.timers.empty());
  EXPECT_TRUE(snap.histograms.empty());
  EXPECT_TRUE(Registry::instance().enabled());
}

// ---------------- scoped timers ----------------

TEST_F(ObsTest, ScopedTimerRecordsSpans) {
  for (int i = 0; i < 3; ++i) {
    ScopedTimer t("outer");
    spin_at_least(std::chrono::microseconds(2000));
  }
  const Snapshot snap = Registry::instance().snapshot();
  ASSERT_EQ(snap.timers.size(), 1U);
  const TimerSnapshot& t = snap.timers[0].second;
  EXPECT_EQ(t.count, 3U);
  EXPECT_GE(t.min_s, 0.001);
  EXPECT_GE(t.total_s, 3 * t.min_s - 1e-9);
  EXPECT_GE(t.max_s, t.min_s);
}

TEST_F(ObsTest, NestedTimersRecordUnderBothLabels) {
  {
    ScopedTimer outer("train/update");
    spin_at_least(std::chrono::microseconds(2000));
    {
      ScopedTimer inner("train/update/backward");
      spin_at_least(std::chrono::microseconds(2000));
    }
  }
  const Snapshot snap = Registry::instance().snapshot();
  ASSERT_EQ(snap.timers.size(), 2U);
  double outer_total = 0.0;
  double inner_total = 0.0;
  for (const auto& [name, t] : snap.timers) {
    if (name == "train/update") outer_total = t.total_s;
    if (name == "train/update/backward") inner_total = t.total_s;
  }
  EXPECT_GT(inner_total, 0.0);
  // The outer span covers the inner one.
  EXPECT_GE(outer_total, inner_total);
}

TEST_F(ObsTest, StopIsIdempotentAndReturnsSeconds) {
  ScopedTimer t("once");
  spin_at_least(std::chrono::microseconds(1000));
  const double first = t.stop();
  EXPECT_GT(first, 0.0);
  EXPECT_EQ(t.stop(), 0.0);
  const Snapshot snap = Registry::instance().snapshot();
  ASSERT_EQ(snap.timers.size(), 1U);
  EXPECT_EQ(snap.timers[0].second.count, 1U);
}

// ---------------- disabled mode ----------------

TEST_F(ObsTest, DisabledModeRecordsNothing) {
  Registry::instance().disable();
  count("c");
  gauge("g", 1.0);
  observe("h", 2.0);
  { ScopedTimer t("t"); }
  Registry::instance().enable();
  const Snapshot snap = Registry::instance().snapshot();
  EXPECT_TRUE(snap.counters.empty());
  EXPECT_TRUE(snap.gauges.empty());
  EXPECT_TRUE(snap.timers.empty());
  EXPECT_TRUE(snap.histograms.empty());
}

TEST_F(ObsTest, TimerConstructedWhileDisabledStaysInert) {
  Registry::instance().disable();
  ScopedTimer t("late");
  Registry::instance().enable();
  EXPECT_EQ(t.stop(), 0.0);  // enabled later, but armed at construction
  EXPECT_TRUE(Registry::instance().snapshot().timers.empty());
}

// ---------------- JSONL records ----------------

TEST_F(ObsTest, RecordContainsSchemaAndAllMetricTypes) {
  count("mcf/cache/hit", 12);
  gauge("train/loss/policy", -0.25);
  observe("lp/pivots_per_solve", 17.0);
  { ScopedTimer t("train/collect"); }
  const std::string line = make_record(3, Registry::instance().snapshot());
  EXPECT_NE(line.find("\"schema\":\"gddr.metrics.v1\""), std::string::npos);
  EXPECT_NE(line.find("\"iter\":3"), std::string::npos);
  EXPECT_NE(line.find("\"mcf/cache/hit\":12"), std::string::npos);
  EXPECT_NE(line.find("\"train/loss/policy\":-0.25"), std::string::npos);
  EXPECT_NE(line.find("\"train/collect\":{\"count\":1"), std::string::npos);
  EXPECT_NE(line.find("\"lp/pivots_per_solve\""), std::string::npos);
  EXPECT_EQ(line.find('\n'), std::string::npos);
  // Balanced braces — cheap structural sanity without a JSON parser.
  int depth = 0;
  bool in_string = false;
  for (std::size_t i = 0; i < line.size(); ++i) {
    const char c = line[i];
    if (c == '"' && (i == 0 || line[i - 1] != '\\')) in_string = !in_string;
    if (in_string) continue;
    if (c == '{') ++depth;
    if (c == '}') --depth;
    ASSERT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
  EXPECT_FALSE(in_string);
}

TEST_F(ObsTest, NonFiniteGaugesSerialiseAsNull) {
  gauge("bad", std::numeric_limits<double>::infinity());
  const std::string line = make_record(0, Registry::instance().snapshot());
  EXPECT_NE(line.find("\"bad\":null"), std::string::npos);
  EXPECT_EQ(line.find("inf"), std::string::npos);
}

TEST_F(ObsTest, JsonlSinkAppendsCompleteLines) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "gddr_obs_sink.jsonl")
          .string();
  // A file left by an earlier run is replaced, not appended to.
  {
    std::ofstream stale(path);
    stale << "{\"stale\":true}\n{\"torn";
  }
  JsonlSink sink(path);
  count("iters");
  sink.append(make_record(0, Registry::instance().snapshot()));
  count("iters");
  sink.append(make_record(1, Registry::instance().snapshot()));
  EXPECT_EQ(sink.lines_written(), 2U);

  const auto read_lines = [&] {
    std::ifstream in(path);
    EXPECT_TRUE(in.good());
    std::vector<std::string> lines;
    for (std::string line; std::getline(in, line);) lines.push_back(line);
    return lines;
  };
  std::vector<std::string> lines = read_lines();
  ASSERT_EQ(lines.size(), 2U);
  EXPECT_NE(lines[0].find("\"iter\":0"), std::string::npos);
  EXPECT_NE(lines[0].find("\"iters\":1"), std::string::npos);
  EXPECT_NE(lines[1].find("\"iter\":1"), std::string::npos);
  EXPECT_NE(lines[1].find("\"iters\":2"), std::string::npos);  // cumulative

  // A long run: every record lands as one complete line, in order.
  for (int i = 2; i < 1000; ++i) {
    sink.append(make_record(i, Registry::instance().snapshot()));
  }
  EXPECT_EQ(sink.lines_written(), 1000U);
  lines = read_lines();
  ASSERT_EQ(lines.size(), 1000U);
  for (int i = 0; i < 1000; ++i) {
    const std::string& line = lines[static_cast<std::size_t>(i)];
    EXPECT_EQ(line.rfind("{\"schema\":\"gddr.metrics.v1\",\"iter\":" +
                             std::to_string(i) + ",",
                         0),
              0U)
        << "line " << i;
    EXPECT_EQ(line.back(), '}') << "line " << i;
  }
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  std::remove(path.c_str());
}

TEST_F(ObsTest, SummaryRendersAllSections) {
  count("mcf/cache/hit", 7);
  gauge("train/loss/policy", 0.5);
  observe("lp/pivots_per_solve", 3.0);
  { ScopedTimer t("train/collect"); }
  const std::string summary = render_summary(Registry::instance().snapshot());
  EXPECT_NE(summary.find("train/collect"), std::string::npos);
  EXPECT_NE(summary.find("mcf/cache/hit"), std::string::npos);
  EXPECT_NE(summary.find("train/loss/policy"), std::string::npos);
  EXPECT_NE(summary.find("lp/pivots_per_solve"), std::string::npos);
  EXPECT_TRUE(render_summary(Snapshot{}).empty());
}

// ---------------- CLI flag parsing ----------------

TEST_F(ObsTest, ConsumeMetricsFlagParsesAndRemoves) {
  std::vector<std::string> storage{"prog", "--metrics", "m.jsonl",
                                   "--metrics-every=5", "other"};
  std::vector<char*> argv;
  for (auto& s : storage) argv.push_back(s.data());
  int argc = static_cast<int>(argv.size());
  const MetricsOptions opts = consume_metrics_flag(argc, argv.data());
  EXPECT_EQ(opts.path, "m.jsonl");
  EXPECT_EQ(opts.every, 5);
  ASSERT_EQ(argc, 2);
  EXPECT_STREQ(argv[0], "prog");
  EXPECT_STREQ(argv[1], "other");
}

TEST_F(ObsTest, ConsumeMetricsFlagRejectsBadCadence) {
  std::vector<std::string> storage{"prog", "--metrics-every", "0"};
  std::vector<char*> argv;
  for (auto& s : storage) argv.push_back(s.data());
  int argc = static_cast<int>(argv.size());
  EXPECT_THROW(consume_metrics_flag(argc, argv.data()),
               std::invalid_argument);
}

TEST_F(ObsTest, ApplyEnablesWhenPathPresent) {
  Registry::instance().disable();
  MetricsOptions off;
  EXPECT_FALSE(apply(off));
  EXPECT_FALSE(Registry::instance().enabled());
  MetricsOptions on;
  on.path = "x.jsonl";
  EXPECT_TRUE(apply(on));
  EXPECT_TRUE(Registry::instance().enabled());
}

// ---------------- thread safety ----------------

TEST_F(ObsTest, ConcurrentRecordingIsLossless) {
  constexpr int kTasks = 64;
  constexpr int kPerTask = 250;
  util::ThreadPool pool(4);
  util::parallel_for(&pool, kTasks, [&](std::size_t i) {
    for (int k = 0; k < kPerTask; ++k) {
      count("par/counter");
      observe("par/hist", static_cast<double>(k));
      gauge("par/gauge/" + std::to_string(i), static_cast<double>(k));
      ScopedTimer t("par/timer");
    }
  });
  const Snapshot snap = Registry::instance().snapshot();
  const std::uint64_t* c = find_counter(snap, "par/counter");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(*c, static_cast<std::uint64_t>(kTasks) * kPerTask);
  ASSERT_EQ(snap.histograms.size(), 1U);
  EXPECT_EQ(snap.histograms[0].second.count,
            static_cast<std::uint64_t>(kTasks) * kPerTask);
  ASSERT_EQ(snap.timers.size(), 1U);
  EXPECT_EQ(snap.timers[0].second.count,
            static_cast<std::uint64_t>(kTasks) * kPerTask);
  EXPECT_EQ(snap.gauges.size(), static_cast<std::size_t>(kTasks));
}

}  // namespace
}  // namespace gddr::obs
