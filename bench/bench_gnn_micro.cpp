// Microbenchmark: policy forward/backward cost, GNN vs MLP, and the
// tape-free inference path against the tape.
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
//              (Abilene), and times the serving policy's forwards on
//              SmallRing, Abilene, GeantLike and BA100 (graph seed 100):
//              a one-observation evaluate_batch on the tape (all three
//              heads) against infer(Heads::kMean) and infer(Heads::kAll).
//              Exits 1 unless every kernel and every forward is
//              bit-identical and the arena is steady; timings are
//              reported, never gated.  Writes BENCH_gnn_micro.json
//              (schema "gddr.bench_gnn_micro.v2": git sha, build type,
//              nproc, reps, median/q1/q3 per row).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/experiment.hpp"
#include "core/policies.hpp"
#include "core/routing_env.hpp"
#include "core/scenario.hpp"
#include "nn/kernels.hpp"
#include "nn/optimizer.hpp"
#include "nn/tape.hpp"
#include "rl/forward.hpp"
#include "rl/ppo.hpp"
#include "topo/generators.hpp"
#include "topo/zoo.hpp"
#include "util/fs.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

#ifndef GDDR_GIT_SHA
#define GDDR_GIT_SHA "unknown"
#endif
#ifndef GDDR_BUILD_TYPE
#define GDDR_BUILD_TYPE "unknown"
#endif

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

// The tape forward of one observation: a one-observation evaluate_batch
// (action mean, log-std and value).
void BM_GnnForward(benchmark::State& state, const std::string& topology) {
  const Scenario scenario = tiny_scenario(topology);
  util::Rng prng(2);
  GnnPolicyConfig cfg;
  cfg.memory = 5;
  GnnPolicy policy(cfg, prng);
  const auto obs = RoutingEnv::build_observation(
      scenario, scenario.train_sequences[0], 5, 5);
  const std::vector<const rl::Observation*> one{&obs};
  nn::Tape tape;
  for (auto _ : state) {
    tape.reset();
    benchmark::DoNotOptimize(policy.evaluate_batch(tape, one));
  }
  state.SetLabel(topology + " params=" +
                 std::to_string(policy.num_parameters()));
}

void BM_GnnInferMean(benchmark::State& state, const std::string& topology) {
  const Scenario scenario = tiny_scenario(topology);
  util::Rng prng(2);
  GnnPolicyConfig cfg;
  cfg.memory = 5;
  const GnnPolicy policy(cfg, prng);
  const auto obs = RoutingEnv::build_observation(
      scenario, scenario.train_sequences[0], 5, 5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(policy.infer(obs, rl::Heads::kMean));
  }
  state.SetLabel(topology);
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
  const std::vector<const rl::Observation*> one{&obs};
  nn::Tape tape;
  for (auto _ : state) {
    tape.reset();
    const auto means = policy.evaluate_batch(tape, one).means;
    const auto loss = tape.mean_all(tape.square(means));
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
  const std::vector<const rl::Observation*> one{&obs};
  nn::Tape tape;
  for (auto _ : state) {
    tape.reset();
    benchmark::DoNotOptimize(policy.evaluate_batch(tape, one));
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
BENCHMARK_CAPTURE(BM_GnnInferMean, small, std::string("SmallRing"));
BENCHMARK_CAPTURE(BM_GnnInferMean, abilene, std::string("Abilene"));
BENCHMARK_CAPTURE(BM_GnnInferMean, geant, std::string("GeantLike"));
BENCHMARK_CAPTURE(BM_GnnForwardBackward, abilene, std::string("Abilene"));
BENCHMARK_CAPTURE(BM_GnnForwardBackward, geant, std::string("GeantLike"));
BENCHMARK_CAPTURE(BM_PpoMinibatch, abilene, std::string("Abilene"));
BENCHMARK_CAPTURE(BM_MlpForward, small, std::string("SmallRing"));
BENCHMARK_CAPTURE(BM_MlpForward, abilene, std::string("Abilene"));
BENCHMARK_CAPTURE(BM_MlpForward, geant, std::string("GeantLike"));

struct Quartiles {
  double q1 = 0.0;
  double median = 0.0;
  double q3 = 0.0;
};

// Linear-interpolated quartiles of `x`.
Quartiles quartiles(std::vector<double> x) {
  std::sort(x.begin(), x.end());
  const auto at = [&](double q) {
    const double pos = q * static_cast<double>(x.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, x.size() - 1);
    return x[lo] + (pos - static_cast<double>(lo)) * (x[hi] - x[lo]);
  };
  return {at(0.25), at(0.5), at(0.75)};
}

std::string quartiles_json(const char* key, const Quartiles& q) {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "\"%s\": {\"median\": %.3f, \"q1\": %.3f, \"q3\": %.3f}", key,
                q.median, q.q1, q.q3);
  return buf;
}

// Microseconds per call of `calls` back-to-back calls of f.
template <class F>
double time_us(int calls, F&& f) {
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < calls; ++i) f();
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - t0)
             .count() /
         calls;
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
                     m, k, n,
                     pool == nullptr ? std::size_t{1}
                                     : static_cast<std::size_t>(pool->size()));
        return false;
      }
    }
  }
  return true;
}

// A tape hot loop: forward (+ backward) per iteration on a long-lived
// tape, `reps` timed repetitions of `iters_per_rep` iterations after a
// warm-up.  The arena counters cover every timed iteration.
struct HotLoop {
  int iters = 0;
  Quartiles us_per_iter;
  std::uint64_t misses = 0;  // arena misses after warm-up
  long pooled_growth = 0;    // change in pooled buffers after warm-up
  std::uint64_t reuse = 0;
  std::size_t bytes = 0;

  bool steady() const { return misses == 0 && pooled_growth == 0; }
};

template <class Step>
HotLoop run_hot_loop(nn::Tape& tape, int warmup, int reps, int iters_per_rep,
                     const Step& step) {
  for (int i = 0; i < warmup; ++i) step();
  const std::uint64_t misses_before = tape.arena_misses();
  const std::uint64_t reuse_before = tape.arena_reuse();
  const std::size_t pooled_before = tape.arena_pooled();
  std::vector<double> us;
  for (int r = 0; r < reps; ++r) us.push_back(time_us(iters_per_rep, step));
  HotLoop h;
  h.iters = reps * iters_per_rep;
  h.us_per_iter = quartiles(us);
  h.misses = tape.arena_misses() - misses_before;
  h.reuse = tape.arena_reuse() - reuse_before;
  h.pooled_growth = static_cast<long>(tape.arena_pooled()) -
                    static_cast<long>(pooled_before);
  h.bytes = tape.arena_bytes();
  return h;
}

void report(const char* what, const HotLoop& h) {
  std::printf("%s: %.1f us/iter (q1 %.1f, q3 %.1f)\n", what,
              h.us_per_iter.median, h.us_per_iter.q1, h.us_per_iter.q3);
  std::printf("  arena steady state: %llu new allocations, pool %+ld "
              "buffers over %d iters (%llu buffer reuses), bytes=%llu: %s\n",
              static_cast<unsigned long long>(h.misses), h.pooled_growth,
              h.iters, static_cast<unsigned long long>(h.reuse),
              static_cast<unsigned long long>(h.bytes),
              h.steady() ? "ok" : "NO — GROWING PER ITERATION");
}

std::string hot_loop_json(const char* name, const char* topology,
                          const HotLoop& h) {
  char head[192];
  std::snprintf(head, sizeof(head),
                "  \"%s\": {\"topology\": \"%s\", \"iters\": %d, ", name,
                topology, h.iters);
  char tail[256];
  std::snprintf(tail, sizeof(tail),
                ", \"arena_steady_state_misses\": %llu, "
                "\"arena_pool_growth\": %ld, \"arena_reuse\": %llu, "
                "\"arena_bytes\": %llu}",
                static_cast<unsigned long long>(h.misses), h.pooled_growth,
                static_cast<unsigned long long>(h.reuse),
                static_cast<unsigned long long>(h.bytes));
  return head + quartiles_json("us_per_iter", h.us_per_iter) + tail;
}

// A one-observation evaluate_batch on a long-lived tape (reset per call):
// the reference infer() is timed and diffed against.
rl::PolicyForward tape_evaluate_one(rl::Policy& policy, nn::Tape& tape,
                                    const rl::Observation& obs) {
  tape.reset();
  const rl::Policy::BatchEvaluation eval = policy.evaluate_batch(tape, {&obs});
  rl::PolicyForward fwd;
  const auto mv = tape.value(eval.means).data();
  const auto lv = tape.value(eval.log_std).data();
  fwd.mean.assign(mv.begin(), mv.end());
  fwd.log_std.assign(lv.begin(), lv.end());
  fwd.value = tape.value(eval.values).at(0, 0);
  return fwd;
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

bool same_bits(const rl::PolicyForward& a, const rl::PolicyForward& b) {
  return same_bits(a.mean, b.mean) && same_bits(a.log_std, b.log_std) &&
         std::memcmp(&a.value, &b.value, sizeof a.value) == 0;
}

// Tape against tape-free forwards of the serving policy on one graph.
struct InferRow {
  std::string graph;
  int nodes = 0;
  int edges = 0;
  int calls_per_rep = 0;
  bool mean_bit_identical = false;
  bool all_bit_identical = false;
  Quartiles tape_evaluate_batch_us;  // one-observation evaluate_batch
  Quartiles infer_mean_us;           // infer(Heads::kMean)
  Quartiles infer_all_us;            // infer(Heads::kAll)
};

InferRow measure_infer(const std::string& name, const Scenario& scenario,
                       int reps, double& sink) {
  util::Rng prng(7);
  GnnPolicy policy(experiment_gnn_config(5), prng);
  const auto obs = RoutingEnv::build_observation(
      scenario, scenario.train_sequences[0], 5, 5);
  nn::Tape tape;

  InferRow row;
  row.graph = name;
  row.nodes = scenario.graph.num_nodes();
  row.edges = scenario.graph.num_edges();
  const rl::PolicyForward reference = tape_evaluate_one(policy, tape, obs);
  row.mean_bit_identical =
      same_bits(reference.mean, policy.infer(obs, rl::Heads::kMean).mean);
  row.all_bit_identical =
      same_bits(reference, policy.infer(obs, rl::Heads::kAll));

  const auto tape_all = [&] {
    sink += tape_evaluate_one(policy, tape, obs).value;
  };
  const auto infer_mean = [&] {
    sink += policy.infer(obs, rl::Heads::kMean).mean.front();
  };
  const auto infer_all = [&] {
    sink += policy.infer(obs, rl::Heads::kAll).value;
  };
  // About 5 ms per timed repetition of the slowest path.
  tape_all();
  infer_all();
  const double once = time_us(1, tape_all);
  row.calls_per_rep =
      std::clamp(static_cast<int>(std::ceil(5000.0 / once)), 1, 2000);
  std::vector<double> us[3];
  for (int rep = 0; rep < reps; ++rep) {
    // Rotate which path goes first so drift does not favour one.
    for (int k = 0; k < 3; ++k) {
      const int path = (rep + k) % 3;
      const int calls = row.calls_per_rep;
      switch (path) {
        case 0:
          us[0].push_back(time_us(calls, tape_all));
          break;
        case 1:
          us[1].push_back(time_us(calls, infer_mean));
          break;
        default:
          us[2].push_back(time_us(calls, infer_all));
          break;
      }
    }
  }
  row.tape_evaluate_batch_us = quartiles(us[0]);
  row.infer_mean_us = quartiles(us[1]);
  row.infer_all_us = quartiles(us[2]);
  return row;
}

std::string infer_row_json(const InferRow& r) {
  char head[320];
  std::snprintf(head, sizeof(head),
                "    {\"graph\": \"%s\", \"nodes\": %d, \"edges\": %d, "
                "\"calls_per_rep\": %d, \"mean_bit_identical\": %s, "
                "\"all_bit_identical\": %s, ",
                r.graph.c_str(), r.nodes, r.edges, r.calls_per_rep,
                r.mean_bit_identical ? "true" : "false",
                r.all_bit_identical ? "true" : "false");
  char ratios[160];
  std::snprintf(ratios, sizeof(ratios),
                ", \"infer_mean_over_tape_evaluate_batch\": %.3f, "
                "\"infer_all_over_tape_evaluate_batch\": %.3f}",
                r.infer_mean_us.median / r.tape_evaluate_batch_us.median,
                r.infer_all_us.median / r.tape_evaluate_batch_us.median);
  return head +
         quartiles_json("tape_evaluate_batch_us", r.tape_evaluate_batch_us) +
         ", " + quartiles_json("infer_mean_us", r.infer_mean_us) + ", " +
         quartiles_json("infer_all_us", r.infer_all_us) + ratios;
}

// Timed repetitions per row; each row also reports its quartiles.
constexpr int kReps = 15;

int run_json_smoke() {
  std::printf("=== GNN micro smoke: kernel correctness + steady state ===\n");

  const bool kernels_ok = kernels_match_reference();
  std::printf("optimized kernels == naive reference (1/2/4 workers): %s\n",
              kernels_ok ? "yes" : "NO — MISMATCH");

  util::Rng prng(2);
  GnnPolicyConfig cfg;
  cfg.memory = 5;
  GnnPolicy policy(cfg, prng);
  const auto params = policy.parameters();

  // Single-observation forward+backward (GeantLike).
  const Scenario geant = tiny_scenario("GeantLike");
  const auto obs = RoutingEnv::build_observation(
      geant, geant.train_sequences[0], 5, 5);
  const std::vector<const rl::Observation*> one{&obs};
  nn::Tape tape;
  const HotLoop single = run_hot_loop(tape, 10, kReps, 7, [&] {
    tape.reset();
    const auto means = policy.evaluate_batch(tape, one).means;
    const auto loss = tape.mean_all(tape.square(means));
    nn::zero_grads(params);
    tape.backward(loss);
  });
  report("forward+backward (GeantLike)", single);

  // The PPO update's stacked minibatch (Abilene, 64 samples): one loss,
  // one forward and one backward over the union graph.  One iteration
  // per repetition: each is ~60x the single-graph pass, and the sanitizer
  // legs run this smoke too.
  const Scenario abilene = tiny_scenario("Abilene");
  const auto samples = make_minibatch(abilene, policy, 64);
  std::vector<const rl::StepSample*> batch;
  for (const auto& s : samples) batch.push_back(&s);
  const rl::PpoConfig ppo;
  nn::Tape update_tape;
  const HotLoop minibatch = run_hot_loop(update_tape, 3, kReps, 1, [&] {
    update_tape.reset();
    const rl::MinibatchLoss loss =
        rl::ppo_minibatch_loss(update_tape, policy, batch, ppo);
    nn::zero_grads(params);
    update_tape.backward(loss.total);
  });
  report("PPO minibatch-64 stacked forward+backward (Abilene)", minibatch);

  // Tape against tape-free forwards of the serving policy.
  std::vector<std::pair<std::string, Scenario>> graphs;
  for (const char* name : {"SmallRing", "Abilene", "GeantLike"}) {
    graphs.emplace_back(name, tiny_scenario(name));
  }
  {
    // Graph seed 100 makes BA100 the serving benchmark's graph.
    util::Rng graph_rng(100);
    util::Rng rng(1);
    ScenarioParams p;
    p.sequence_length = 12;
    p.cycle_length = 4;
    p.train_sequences = 1;
    p.test_sequences = 1;
    graphs.emplace_back(
        "BA100",
        make_scenario(topo::barabasi_albert(100, 2, graph_rng), p, rng));
  }
  double sink = 0.0;
  std::vector<InferRow> rows;
  bool bits_ok = true;
  std::printf("%-10s %5s %5s %6s %19s %19s %19s %s\n", "graph", "nodes",
              "edges", "calls", "tape eval(1) us", "infer(mean) us",
              "infer(all) us", "bits");
  for (const auto& [name, scenario] : graphs) {
    rows.push_back(measure_infer(name, scenario, kReps, sink));
    const InferRow& r = rows.back();
    const bool identical = r.mean_bit_identical && r.all_bit_identical;
    bits_ok = bits_ok && identical;
    std::printf(
        "%-10s %5d %5d %6d %8.1f (%4.0f-%4.0f) %8.1f (%4.0f-%4.0f) "
        "%8.1f (%4.0f-%4.0f) %s\n",
        r.graph.c_str(), r.nodes, r.edges, r.calls_per_rep,
        r.tape_evaluate_batch_us.median, r.tape_evaluate_batch_us.q1,
        r.tape_evaluate_batch_us.q3, r.infer_mean_us.median,
        r.infer_mean_us.q1, r.infer_mean_us.q3, r.infer_all_us.median,
        r.infer_all_us.q1, r.infer_all_us.q3,
        identical ? "identical" : "DIFFER");
  }
  std::printf("(checksum %.6g)\n", sink);

  const bool arena_ok = single.steady() && minibatch.steady();
  const bool ok = kernels_ok && arena_ok && bits_ok;
  std::string json = "{\n  \"schema\": \"gddr.bench_gnn_micro.v2\",\n";
  json += "  \"git_sha\": \"" GDDR_GIT_SHA "\",\n";
  json += "  \"build_type\": \"" GDDR_BUILD_TYPE "\",\n";
  json += "  \"nproc\": " +
          std::to_string(std::thread::hardware_concurrency()) + ",\n";
  json += "  \"reps\": " + std::to_string(kReps) + ",\n";
  json += std::string("  \"kernels_match_reference\": ") +
          (kernels_ok ? "true" : "false") + ",\n";
  json += "  \"worker_counts_checked\": [1, 2, 4],\n";
  json += hot_loop_json("forward_backward", "GeantLike", single) + ",\n";
  json += hot_loop_json("minibatch_forward_backward", "Abilene", minibatch) +
          ",\n";
  json += "  \"minibatch_size\": 64,\n";
  json += "  \"infer_rows\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    json += infer_row_json(rows[i]);
    json += i + 1 < rows.size() ? ",\n" : "\n";
  }
  json += "  ],\n";
  json += std::string("  \"ok\": ") + (ok ? "true" : "false") + "\n}\n";
  try {
    util::write_file_atomic("BENCH_gnn_micro.json", json);
    std::printf("wrote BENCH_gnn_micro.json\n");
  } catch (const std::exception& ex) {
    std::fprintf(stderr, "could not write BENCH_gnn_micro.json: %s\n",
                 ex.what());
    return 1;
  }

  if (!bits_ok) {
    std::fprintf(stderr,
                 "FAIL: tape and tape-free forwards differ (see table)\n");
  }
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
