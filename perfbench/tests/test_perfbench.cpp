// Tests of the benchmark's own logic: the tail-percentile rule, due-time
// latency accounting, failure counting and the seed -> inputs generators.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <future>
#include <thread>
#include <vector>

#include "inputs.hpp"
#include "mcf/cache.hpp"
#include "open_loop.hpp"
#include "serve_path.hpp"
#include "stats.hpp"
#include "util/fault.hpp"

namespace gddr::perfbench {
namespace {

TEST(TailPercentile, HighestLadderEntryWithTenSamplesBeyond) {
  EXPECT_EQ(tail_percentile(0), 0.0);
  EXPECT_EQ(tail_percentile(19), 0.0);
  EXPECT_EQ(tail_percentile(20), 50.0);
  EXPECT_EQ(tail_percentile(99), 50.0);
  EXPECT_EQ(tail_percentile(100), 90.0);
  EXPECT_EQ(tail_percentile(199), 90.0);
  EXPECT_EQ(tail_percentile(200), 95.0);
  EXPECT_EQ(tail_percentile(1000), 99.0);
  EXPECT_EQ(tail_percentile(2000), 99.5);
  EXPECT_EQ(tail_percentile(10000), 99.9);
  EXPECT_EQ(tail_percentile(20000), 99.95);
  EXPECT_EQ(tail_percentile(100000), 99.99);
  EXPECT_EQ(tail_percentile(10000000), 99.99);
}

TEST(TailPercentile, AlwaysLeavesTenSamplesBeyond) {
  for (std::size_t n = 20; n < 50000; n += 37) {
    const double p = tail_percentile(n);
    EXPECT_GE(static_cast<double>(n) * (1.0 - p / 100.0), 10.0 - 1e-9) << n;
  }
}

TEST(WindowedTail, OneStalledWindowDoesNotMoveTheMedian) {
  std::vector<double> values;
  for (int w = 0; w < 5; ++w) {
    for (int i = 0; i < 1000; ++i) values.push_back(i % 100);
  }
  double p = 0.0;
  const double calm = windowed_tail(values, 1000, &p);
  EXPECT_EQ(p, 99.0);
  for (int i = 0; i < 50; ++i) values[2000 + i] = 1e6;  // a stall
  EXPECT_EQ(windowed_tail(values, 1000, &p), calm);
  windowed_tail(values, 200, &p);
  EXPECT_EQ(p, 95.0);
  // Too short for three windows: one window over the whole sample.
  const std::vector<double> short_run(values.begin(), values.begin() + 2500);
  windowed_tail(short_run, 1000, &p);
  EXPECT_EQ(p, tail_percentile(2500));
}

TEST(Quantile, InterpolatesLinearly) {
  EXPECT_TRUE(std::isnan(quantile({}, 0.5)));
  EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(quantile({0.0, 10.0}, 0.25), 2.5);
  const Quartiles q = quartiles({1.0, 2.0, 3.0, 4.0, 5.0});
  EXPECT_EQ(q.q1, 2.0);
  EXPECT_EQ(q.median, 3.0);
  EXPECT_EQ(q.q3, 4.0);
}

TEST(OpenLoop, LatencyIsTimedFromTheDueTimeThroughAGeneratorStall) {
  using namespace std::chrono_literals;
  std::vector<double> offsets;
  for (int i = 0; i < 12; ++i) offsets.push_back(i * 1e-3);  // every 1 ms
  CompletionLog completions(offsets.size());
  constexpr std::size_t kStalled = 4;
  const OpenLoopRun run = run_open_loop(
      offsets, [](std::size_t) {},
      [&](std::size_t i) {
        if (i == kStalled) std::this_thread::sleep_for(30ms);
        completions.mark(i, Clock::now());  // served instantly
      });
  const std::vector<double> latency =
      due_latencies_us(run, offsets, completions);
  // The stalled request and the ones due during the stall are all late
  // by what is left of the stall when they fall due.
  EXPECT_GE(latency[kStalled], 30000.0);
  EXPECT_GE(latency[kStalled + 1], 29000.0);
  EXPECT_GE(latency[kStalled + 5], 25000.0);
  EXPECT_GE(run.lag_us[kStalled + 1], 29000.0);
  // Requests before the stall were on time.
  EXPECT_LT(latency[0], 5000.0);
}

TEST(OpenLoop, UncompletedRequestMissesEveryLimit) {
  const std::vector<double> offsets{0.0, 1e-3};
  CompletionLog completions(offsets.size());
  const OpenLoopRun run = run_open_loop(
      offsets, [](std::size_t) {},
      [&](std::size_t i) {
        if (i == 0) completions.mark(i, Clock::now());
      });
  const std::vector<double> latency =
      due_latencies_us(run, offsets, completions);
  EXPECT_TRUE(std::isfinite(latency[0]));
  EXPECT_TRUE(std::isinf(latency[1]));
  EXPECT_EQ(median({latency[0], latency[1], 1e9}), 1e9);
}

TEST(Failures, ShedDegradedAndFptasCountRungOneDoesNot) {
  EXPECT_FALSE(serve_failed(false, serve::Rung::kGnnPolicy));
  EXPECT_TRUE(serve_failed(true, serve::Rung::kGnnPolicy));
  EXPECT_TRUE(serve_failed(false, serve::Rung::kLastKnownGood));
  EXPECT_TRUE(serve_failed(false, serve::Rung::kInverseCapacity));
  EXPECT_TRUE(serve_failed(false, serve::Rung::kShortestPath));
  EXPECT_TRUE(serve_failed(false, serve::Rung::kDropTraffic));
}

TEST(Failures, FptasOptimumIsCountedByTheLpCache) {
  const core::Scenario scenario =
      serving_scenario(serving_graph(ServeGraph::kAbilene), 1, 4);
  const traffic::DemandMatrix& demand = scenario.test_sequences[0][0];
  mcf::OptimalCache cache;
  util::FaultInjector::instance().arm("lp_solve@1+");
  (void)cache.u_max(scenario.graph, demand);
  util::FaultInjector::instance().disarm();
  EXPECT_EQ(cache.approx_solves(), 1U);
  EXPECT_EQ(cache.exact_solves(), 0U);
  (void)cache.u_max(scenario.graph, scenario.test_sequences[0][1]);
  EXPECT_EQ(cache.approx_solves(), 1U);
  EXPECT_EQ(cache.exact_solves(), 1U);
}

TEST(OpenLoopLedger, ShedRequestStaysShedWhenItsAddressIsReused) {
  const core::Scenario scenario =
      serving_scenario(serving_graph(ServeGraph::kAbilene), 1, 5);
  const RequestStream stream(scenario, kMemory);
  serve::EngineConfig config = engine_config(scenario, 0, 8);  // inline
  config.queue_capacity = 1;
  config.shed_policy = serve::ShedPolicy::kRejectNewest;
  serve::Engine engine(nullptr, config);  // static rungs only
  OpenLoopLedger ledger(2);
  engine.set_decision_observer(
      [&ledger](const serve::RouteRequest& request,
                const serve::DecisionRecord& record) {
        ledger.observe(request, record);
      });

  serve::RouteRequest first = stream.make(0);
  serve::RouteRequest second = stream.make(1);
  ledger.expect(first, 0);
  ledger.expect(second, 1);
  std::future<serve::ServeOutcome> served = engine.submit(std::move(first));
  std::future<serve::ServeOutcome> shed = engine.submit(std::move(second));
  engine.poll();
  EXPECT_FALSE(served.get().shed);
  EXPECT_TRUE(shed.get().shed);
  EXPECT_TRUE(ledger.done(0));
  EXPECT_FALSE(ledger.done(1));
  ledger.end_round();

  // The shed request's buffer is gone; a later closed-loop request may be
  // allocated at its address.  Registered, it would fill slot 1.
  const serve::RouteRequest reuse = stream.make(2);
  ledger.expect(reuse, 1);
  ledger.end_round();
  serve::DecisionRecord record;
  record.rung = serve::Rung::kGnnPolicy;
  ledger.observe(reuse, record);
  EXPECT_FALSE(ledger.done(1));
}

TEST(Inputs, OpenLoopScheduleIsDeterministicAndSized) {
  const std::vector<double> a = open_loop_offsets(1000.0, 2.0, 8, 42);
  const std::vector<double> b = open_loop_offsets(1000.0, 2.0, 8, 42);
  const std::vector<double> c = open_loop_offsets(1000.0, 2.0, 8, 43);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(a.size(), 2000U);
  EXPECT_EQ(c.size(), 2000U);
  EXPECT_TRUE(std::is_sorted(a.begin(), a.end()));
  EXPECT_GE(a.front(), 0.0);
  EXPECT_LT(a.back(), 2.0 + 8.0 / 1000.0);
}

TEST(Inputs, SubSeedsAreDistinctStreams) {
  EXPECT_EQ(sub_seed(5, 1), sub_seed(5, 1));
  EXPECT_NE(sub_seed(5, 1), sub_seed(5, 2));
  EXPECT_NE(sub_seed(5, 1), sub_seed(6, 1));
}

bool same_traffic(const core::Scenario& a, const core::Scenario& b) {
  if (a.train_sequences.size() != b.train_sequences.size() ||
      a.test_sequences.size() != b.test_sequences.size()) {
    return false;
  }
  for (std::size_t s = 0; s < a.test_sequences.size(); ++s) {
    for (std::size_t t = 0; t < a.test_sequences[s].size(); ++t) {
      if (a.test_sequences[s][t].raw() != b.test_sequences[s][t].raw()) {
        return false;
      }
    }
  }
  return true;
}

TEST(Inputs, TrainingScenariosAreDeterministicPerSeed) {
  for (const TrainKind kind :
       {TrainKind::kAbileneCyclic, TrainKind::kNsfnetFresh}) {
    const core::Scenario a = training_scenario(kind, 9);
    const core::Scenario b = training_scenario(kind, 9);
    const core::Scenario c = training_scenario(kind, 10);
    EXPECT_TRUE(same_traffic(a, b));
    EXPECT_FALSE(same_traffic(a, c));
    EXPECT_EQ(a.node_feature_scale, b.node_feature_scale);
    const std::size_t tests =
        kind == TrainKind::kNsfnetFresh ? 3 : kCyclicTestSequences;
    EXPECT_EQ(a.test_sequences.size(), tests);
  }
  const core::Scenario fresh = training_scenario(TrainKind::kNsfnetFresh, 1);
  EXPECT_EQ(fresh.train_sequences.size(), 200U);
  // Non-repeating: no matrix of a sequence occurs twice in it.
  const traffic::DemandSequence& seq = fresh.train_sequences.front();
  for (std::size_t i = 0; i < seq.size(); ++i) {
    for (std::size_t j = i + 1; j < seq.size(); ++j) {
      EXPECT_NE(seq[i].raw(), seq[j].raw());
    }
  }
}

TEST(Inputs, Ba100GraphIsFixedAcrossSeeds) {
  const auto make = [](std::uint64_t seed) {
    return serving_scenario(serving_graph(ServeGraph::kBa100),
                            serving_sequences(ServeGraph::kBa100), seed);
  };
  const core::Scenario a = make(1);
  const core::Scenario b = make(2);
  EXPECT_EQ(a.graph.num_nodes(), 100);
  EXPECT_EQ(a.graph.num_edges(), 394);
  EXPECT_EQ(mcf::graph_fingerprint(a.graph), mcf::graph_fingerprint(b.graph));
  EXPECT_FALSE(same_traffic(a, b));
  // The policy's input scales do not follow the traffic seed.
  EXPECT_EQ(a.node_feature_scale, b.node_feature_scale);
  EXPECT_EQ(a.flat_feature_scale, b.flat_feature_scale);
  EXPECT_TRUE(same_traffic(a, make(1)));
}

TEST(Inputs, RequestStreamCarriesItsOwnHistory) {
  const core::Scenario scenario =
      serving_scenario(serving_graph(ServeGraph::kAbilene), 3, 3);
  const RequestStream stream(scenario, kMemory);
  const std::size_t sequences = scenario.test_sequences.size();
  const std::size_t length = scenario.test_sequences.front().size();
  EXPECT_EQ(stream.distinct(), sequences * (length - kMemory));
  for (const std::size_t i : {0UL, 7UL, stream.distinct() + 2}) {
    const serve::RouteRequest r = stream.make(i);
    // Time-major: consecutive requests come from different sequences.
    const std::size_t pos = i % stream.distinct();
    const traffic::DemandSequence& seq =
        scenario.test_sequences[pos % sequences];
    const std::size_t t = kMemory + pos / sequences;
    ASSERT_EQ(r.history.size(), static_cast<std::size_t>(kMemory));
    EXPECT_EQ(r.demand.raw(), seq[t].raw());
    for (int k = 0; k < kMemory; ++k) {
      EXPECT_EQ(r.history[k].raw(), seq[t - kMemory + k].raw());
    }
    EXPECT_EQ(r.graph, &scenario.graph);
  }
}

TEST(Inputs, WorkloadsAreNamedAndDistinct) {
  EXPECT_EQ(all_workloads().size(), 2U);
  EXPECT_EQ(workload("abilene").serve_graph, ServeGraph::kAbilene);
  EXPECT_EQ(workload("abilene").train, TrainKind::kAbileneCyclic);
  EXPECT_EQ(workload("ba100-nsfnet").serve_graph, ServeGraph::kBa100);
  EXPECT_EQ(workload("ba100-nsfnet").train, TrainKind::kNsfnetFresh);
  EXPECT_THROW(workload("nope"), std::invalid_argument);
}

}  // namespace
}  // namespace gddr::perfbench
