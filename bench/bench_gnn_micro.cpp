// Microbenchmark: policy forward/backward cost, GNN vs MLP.
//
// Supports the paper's "no learning-time overhead" claim (§VIII, Figure 7
// discussion) with direct per-inference measurements, and quantifies the
// parameter-count scaling argument of §IX: the GNN's parameter count is
// topology-independent while the MLP's grows with |V|^2 and |E|.
//
// The tape is hoisted out of the timing loop and reset per iteration, so
// the numbers measure the steady state the trainer actually runs in: the
// workspace arena recycles every value/grad buffer and iterations perform
// no heap allocation.
//
// Two modes:
//   (default)  Google-Benchmark suite.
//   --json     CI smoke: asserts the optimized kernels reproduce the
//              naive reference exactly (== on every element, including
//              across 1/2/4 pool workers), asserts the arena reaches a
//              steady state (zero new allocations, a flat pool), times the
//              single-observation forward+backward hot loop (GeantLike)
//              and the PPO update's stacked minibatch-64 forward+backward
//              (Abilene), and writes BENCH_gnn_micro.json.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <exception>
#include <string>
#include <vector>

#include "core/policies.hpp"
#include "core/routing_env.hpp"
#include "core/scenario.hpp"
#include "nn/kernels.hpp"
#include "nn/optimizer.hpp"
#include "nn/tape.hpp"
#include "rl/forward.hpp"
#include "rl/ppo.hpp"
#include "topo/zoo.hpp"
#include "util/fs.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace gddr;
using namespace gddr::core;

Scenario tiny_scenario(const std::string& topology) {
  util::Rng rng(1);
  ScenarioParams p;
  p.sequence_length = 12;
  p.cycle_length = 4;
  p.train_sequences = 1;
  p.test_sequences = 1;
  return make_scenario(topo::by_name(topology), p, rng);
}

void BM_GnnForward(benchmark::State& state, const std::string& topology) {
  const Scenario scenario = tiny_scenario(topology);
  util::Rng prng(2);
  GnnPolicyConfig cfg;
  cfg.memory = 5;
  GnnPolicy policy(cfg, prng);
  const auto obs = RoutingEnv::build_observation(
      scenario, scenario.train_sequences[0], 5, 5);
  nn::Tape tape;
  for (auto _ : state) {
    tape.reset();
    benchmark::DoNotOptimize(policy.action_mean(tape, obs));
  }
  state.SetLabel(topology + " params=" +
                 std::to_string(policy.num_parameters()));
}

void BM_GnnForwardBackward(benchmark::State& state,
                           const std::string& topology) {
  const Scenario scenario = tiny_scenario(topology);
  util::Rng prng(2);
  GnnPolicyConfig cfg;
  cfg.memory = 5;
  GnnPolicy policy(cfg, prng);
  const auto params = policy.parameters();
  const auto obs = RoutingEnv::build_observation(
      scenario, scenario.train_sequences[0], 5, 5);
  nn::Tape tape;
  for (auto _ : state) {
    tape.reset();
    const auto mean = policy.action_mean(tape, obs);
    const auto loss = tape.mean_all(tape.square(mean));
    nn::zero_grads(params);
    tape.backward(loss);
  }
  state.SetLabel(topology);
}

void BM_MlpForward(benchmark::State& state, const std::string& topology) {
  const Scenario scenario = tiny_scenario(topology);
  util::Rng prng(2);
  const int n = scenario.graph.num_nodes();
  MlpPolicy policy(5 * n * n, scenario.graph.num_edges(), MlpPolicyConfig{},
                   prng);
  const auto obs = RoutingEnv::build_observation(
      scenario, scenario.train_sequences[0], 5, 5);
  nn::Tape tape;
  for (auto _ : state) {
    tape.reset();
    benchmark::DoNotOptimize(policy.action_mean(tape, obs));
  }
  state.SetLabel(topology + " params=" +
                 std::to_string(policy.num_parameters()));
}

// A PPO minibatch as the trainer's update sees it: `count` samples over
// the scenario's demand-history positions, each acting at its mean.
std::vector<rl::StepSample> make_minibatch(const Scenario& scenario,
                                           rl::Policy& policy, int count) {
  std::vector<rl::StepSample> samples;
  const int positions = static_cast<int>(scenario.train_sequences[0].size()) - 5;
  for (int i = 0; i < count; ++i) {
    rl::StepSample s;
    s.obs = RoutingEnv::build_observation(
        scenario, scenario.train_sequences[0], 5 + i % positions, 5);
    const rl::PolicyForward fwd = rl::forward_policy(policy, s.obs);
    s.action = fwd.mean;
    s.log_prob = rl::action_log_prob(s.action, fwd.mean, fwd.log_std);
    s.value = fwd.value;
    s.advantage = (i % 3) - 1.0;
    s.return_ = fwd.value + 0.1 * (i % 5);
    samples.push_back(std::move(s));
  }
  return samples;
}

// The PPO update's hot loop: one stacked loss, forward and backward.
void BM_PpoMinibatch(benchmark::State& state, const std::string& topology) {
  const Scenario scenario = tiny_scenario(topology);
  util::Rng prng(2);
  GnnPolicyConfig cfg;
  cfg.memory = 5;
  GnnPolicy policy(cfg, prng);
  const auto params = policy.parameters();
  const auto samples = make_minibatch(scenario, policy, 64);
  std::vector<const rl::StepSample*> batch;
  for (const auto& s : samples) batch.push_back(&s);
  const rl::PpoConfig ppo;
  nn::Tape tape;
  for (auto _ : state) {
    tape.reset();
    const rl::MinibatchLoss loss =
        rl::ppo_minibatch_loss(tape, policy, batch, ppo);
    nn::zero_grads(params);
    tape.backward(loss.total);
  }
  state.SetLabel(topology + " minibatch=64");
}

BENCHMARK_CAPTURE(BM_GnnForward, small, std::string("SmallRing"));
BENCHMARK_CAPTURE(BM_GnnForward, abilene, std::string("Abilene"));
BENCHMARK_CAPTURE(BM_GnnForward, geant, std::string("GeantLike"));
BENCHMARK_CAPTURE(BM_GnnForwardBackward, abilene, std::string("Abilene"));
BENCHMARK_CAPTURE(BM_GnnForwardBackward, geant, std::string("GeantLike"));
BENCHMARK_CAPTURE(BM_PpoMinibatch, abilene, std::string("Abilene"));
BENCHMARK_CAPTURE(BM_MlpForward, small, std::string("SmallRing"));
BENCHMARK_CAPTURE(BM_MlpForward, abilene, std::string("Abilene"));
BENCHMARK_CAPTURE(BM_MlpForward, geant, std::string("GeantLike"));

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Checks every element of the optimized kernels against the naive
// reference (exact ==), serially and through pools of 2 and 4 workers.
// Returns false and prints the first offending shape on mismatch.
bool kernels_match_reference() {
  // Shapes chosen to cover the GNN's hot sizes plus tails: odd dims,
  // k not a multiple of the unroll, single rows/cols.
  const int shapes[][3] = {{74, 66, 32}, {74, 32, 1},  {24, 66, 32},
                           {200, 64, 64}, {1, 32, 32}, {7, 5, 3},
                           {33, 17, 9},   {1, 1, 1}};
  util::ThreadPool pool2(2);
  util::ThreadPool pool4(4);
  util::ThreadPool* pools[] = {nullptr, &pool2, &pool4};
  for (const auto& s : shapes) {
    const int m = s[0];
    const int k = s[1];
    const int n = s[2];
    std::vector<float> a(static_cast<std::size_t>(m) * k);
    std::vector<float> b(static_cast<std::size_t>(k) * n);
    std::vector<float> g(static_cast<std::size_t>(m) * n);
    for (std::size_t i = 0; i < a.size(); ++i) {
      a[i] = 0.01F * static_cast<float>(i % 17) - 0.05F;
    }
    for (std::size_t i = 0; i < b.size(); ++i) {
      b[i] = 0.02F * static_cast<float>(i % 13) - 0.1F;
    }
    for (std::size_t i = 0; i < g.size(); ++i) {
      g[i] = 0.03F * static_cast<float>(i % 11) - 0.15F;
    }
    std::vector<float> c_ref(static_cast<std::size_t>(m) * n);
    nn::kernels::ref::matmul_nn(m, k, n, a.data(), b.data(), c_ref.data());
    std::vector<float> gx_ref(static_cast<std::size_t>(m) * k, 0.25F);
    nn::kernels::ref::matmul_nt_acc(m, n, k, g.data(), b.data(),
                                    gx_ref.data());
    std::vector<float> gw_ref(static_cast<std::size_t>(k) * n, 0.25F);
    nn::kernels::ref::matmul_tn_acc(m, k, n, a.data(), g.data(),
                                    gw_ref.data());
    for (util::ThreadPool* pool : pools) {
      std::vector<float> c(static_cast<std::size_t>(m) * n);
      nn::kernels::matmul_nn(m, k, n, a.data(), b.data(), c.data(), pool);
      std::vector<float> gx(static_cast<std::size_t>(m) * k, 0.25F);
      nn::kernels::matmul_nt_acc(m, n, k, g.data(), b.data(), gx.data(),
                                 pool);
      std::vector<float> gw(static_cast<std::size_t>(k) * n, 0.25F);
      nn::kernels::matmul_tn_acc(m, k, n, a.data(), g.data(), gw.data(),
                                 pool);
      if (std::memcmp(c.data(), c_ref.data(), c.size() * sizeof(float)) !=
              0 ||
          std::memcmp(gx.data(), gx_ref.data(),
                      gx.size() * sizeof(float)) != 0 ||
          std::memcmp(gw.data(), gw_ref.data(),
                      gw.size() * sizeof(float)) != 0) {
        std::fprintf(stderr,
                     "FAIL: kernel mismatch vs reference at %dx%dx%d "
                     "(workers=%zu)\n",
                     m, k, n, pool == nullptr ? 1 : pool->size());
        return false;
      }
    }
  }
  return true;
}

int run_json_smoke() {
  std::printf("=== GNN micro smoke: kernel correctness + steady state ===\n");

  const bool kernels_ok = kernels_match_reference();
  std::printf("optimized kernels == naive reference (1/2/4 workers): %s\n",
              kernels_ok ? "yes" : "NO — MISMATCH");

  struct HotLoop {
    int iters = 0;
    double us_per_iter = 0.0;
    std::uint64_t misses = 0;  // arena misses after warm-up
    long pooled_growth = 0;    // change in pooled buffers after warm-up
    std::uint64_t reuse = 0;
    std::size_t bytes = 0;
  };
  // Warms `step` up until the tape's arena has seen the full shape
  // population, then times `iters` more and counts fresh allocations and
  // the growth of the arena's free lists (both must stay at zero).
  const auto run_hot_loop = [&](nn::Tape& tape, int warmup, int iters,
                                const auto& step) {
    for (int i = 0; i < warmup; ++i) step();
    const std::uint64_t misses_before = tape.arena_misses();
    const std::uint64_t reuse_before = tape.arena_reuse();
    const std::size_t pooled_before = tape.arena_pooled();
    const double start = now_seconds();
    for (int i = 0; i < iters; ++i) step();
    HotLoop r;
    r.iters = iters;
    r.us_per_iter = (now_seconds() - start) / iters * 1e6;
    r.misses = tape.arena_misses() - misses_before;
    r.reuse = tape.arena_reuse() - reuse_before;
    r.pooled_growth = static_cast<long>(tape.arena_pooled()) -
                      static_cast<long>(pooled_before);
    r.bytes = tape.arena_bytes();
    return r;
  };
  const auto steady = [](const HotLoop& r) {
    return r.misses == 0 && r.pooled_growth == 0;
  };
  const auto report = [&](const char* what, const HotLoop& r) {
    std::printf("%s: %.1f us/iter\n", what, r.us_per_iter);
    std::printf("  arena steady state: %llu new allocations, pool %+ld "
                "buffers over %d iters (%llu buffer reuses), bytes=%llu: "
                "%s\n",
                static_cast<unsigned long long>(r.misses), r.pooled_growth,
                r.iters, static_cast<unsigned long long>(r.reuse),
                static_cast<unsigned long long>(r.bytes),
                steady(r) ? "ok" : "NO — GROWING PER ITERATION");
  };

  util::Rng prng(2);
  GnnPolicyConfig cfg;
  cfg.memory = 5;
  GnnPolicy policy(cfg, prng);
  const auto params = policy.parameters();

  // Single-observation forward+backward (GeantLike), the serving and
  // collection shape.
  const Scenario geant = tiny_scenario("GeantLike");
  const auto obs = RoutingEnv::build_observation(
      geant, geant.train_sequences[0], 5, 5);
  nn::Tape tape;
  const HotLoop single = run_hot_loop(tape, 10, 100, [&] {
    tape.reset();
    const auto mean = policy.action_mean(tape, obs);
    const auto loss = tape.mean_all(tape.square(mean));
    nn::zero_grads(params);
    tape.backward(loss);
  });
  report("forward+backward (GeantLike)", single);

  // The PPO update's stacked minibatch (Abilene, 64 samples): one loss,
  // one forward and one backward over the union graph.  Fewer
  // iterations: each is ~60x the single-graph pass, and the sanitizer
  // legs run this smoke too.
  const Scenario abilene = tiny_scenario("Abilene");
  const auto samples = make_minibatch(abilene, policy, 64);
  std::vector<const rl::StepSample*> batch;
  for (const auto& s : samples) batch.push_back(&s);
  const rl::PpoConfig ppo;
  nn::Tape update_tape;
  const HotLoop minibatch = run_hot_loop(update_tape, 3, 20, [&] {
    update_tape.reset();
    const rl::MinibatchLoss loss =
        rl::ppo_minibatch_loss(update_tape, policy, batch, ppo);
    nn::zero_grads(params);
    update_tape.backward(loss.total);
  });
  report("PPO minibatch-64 stacked forward+backward (Abilene)", minibatch);

  const bool arena_ok = steady(single) && steady(minibatch);
  char json[2048];
  std::snprintf(
      json, sizeof(json),
      "{\n"
      "  \"kernels_match_reference\": %s,\n"
      "  \"worker_counts_checked\": [1, 2, 4],\n"
      "  \"forward_backward_us\": %.3f,\n"
      "  \"forward_backward_iters\": %d,\n"
      "  \"topology\": \"GeantLike\",\n"
      "  \"arena_steady_state_misses\": %llu,\n"
      "  \"arena_reuse_per_100_iters\": %llu,\n"
      "  \"arena_bytes\": %llu,\n"
      "  \"minibatch_forward_backward_us\": %.3f,\n"
      "  \"minibatch_forward_backward_iters\": %d,\n"
      "  \"minibatch_size\": 64,\n"
      "  \"minibatch_topology\": \"Abilene\",\n"
      "  \"minibatch_arena_steady_state_misses\": %llu,\n"
      "  \"minibatch_arena_pool_growth\": %ld,\n"
      "  \"minibatch_arena_bytes\": %llu\n"
      "}\n",
      kernels_ok ? "true" : "false", single.us_per_iter, single.iters,
      static_cast<unsigned long long>(single.misses),
      static_cast<unsigned long long>(single.reuse),
      static_cast<unsigned long long>(single.bytes), minibatch.us_per_iter,
      minibatch.iters, static_cast<unsigned long long>(minibatch.misses),
      minibatch.pooled_growth,
      static_cast<unsigned long long>(minibatch.bytes));
  try {
    util::write_file_atomic("BENCH_gnn_micro.json", json);
    std::printf("wrote BENCH_gnn_micro.json\n");
  } catch (const std::exception& ex) {
    std::fprintf(stderr, "could not write BENCH_gnn_micro.json: %s\n",
                 ex.what());
  }

  const bool ok = kernels_ok && arena_ok;
  if (!ok) std::fprintf(stderr, "FAIL: gnn micro smoke\n");
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) return run_json_smoke();
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
