// Parallel-engine smoke benchmark: measures the wall-clock speedup of the
// two parallel phases (vectorised experience collection and per-unit
// evaluation) at 1 vs 4 workers, and checks the determinism contract —
// the 4-worker run must be bit-identical to the serial one.
//
// Writes the measurements to BENCH_parallel.json in the working directory
// (schema "gddr.bench_parallel.v1": git sha, build type and nproc name the
// source and host) and exits 1 on any determinism violation.  Every worker
// reads the scenario's shared demand sequences, so the TSan build of this
// bench also checks that reads of shared traffic are race-free.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <exception>
#include <memory>
#include <thread>
#include <vector>

#include "nn/kernels.hpp"
#include "util/fs.hpp"

#include "core/evaluate.hpp"
#include "obs/sink.hpp"
#include "core/experiment.hpp"
#include "core/policies.hpp"
#include "core/routing_env.hpp"
#include "rl/rollout.hpp"
#include "rl/vec_env.hpp"
#include "routing/baselines.hpp"
#include "topo/zoo.hpp"
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

constexpr int kVecEnvs = 4;
constexpr int kStepsPerEnv = 48;
constexpr int kEvalTestSequences = 8;

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct CollectRun {
  rl::RolloutBuffer buffer;
  double seconds = 0.0;
};

// Fresh identical setup per run (same seeds, fresh LP cache) so the two
// worker counts do the same work and their buffers are comparable.
CollectRun run_collection(const Scenario& scenario, int workers) {
  util::ThreadPool pool(workers);
  EnvConfig env_cfg;
  env_cfg.memory = 5;
  const auto envs = make_vec_envs({scenario}, env_cfg, /*seed=*/11, kVecEnvs);
  std::vector<rl::Env*> env_ptrs;
  for (const auto& env : envs) env_ptrs.push_back(env.get());
  util::Rng prng(13);
  GnnPolicy policy(experiment_gnn_config(env_cfg.memory), prng);
  rl::VecEnvCollector collector(policy, env_ptrs, /*seed=*/17, &pool);

  CollectRun run;
  const double start = now_seconds();
  collector.collect(kStepsPerEnv, /*reward_scale=*/1.0, run.buffer);
  run.seconds = now_seconds() - start;
  return run;
}

bool buffers_identical(const rl::RolloutBuffer& a, const rl::RolloutBuffer& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const rl::StepSample& x = a.samples()[i];
    const rl::StepSample& y = b.samples()[i];
    if (x.action != y.action || x.log_prob != y.log_prob ||
        x.value != y.value || x.reward != y.reward || x.done != y.done ||
        x.truncated != y.truncated ||
        x.bootstrap_value != y.bootstrap_value ||
        x.obs.flat != y.obs.flat) {
      return false;
    }
  }
  return true;
}

struct EvalRun {
  EvalResult result;
  double seconds = 0.0;
};

// The pool-sharded matmul kernels under the tape carry the same
// determinism contract as the phases above: any worker count must
// reproduce the serial bytes exactly.  Checks all three variants on a
// shape large enough to cross the parallel gates.
bool kernels_bit_identical_across_workers() {
  const int m = 64;
  const int k = 64;
  const int n = 64;
  std::vector<float> a(static_cast<std::size_t>(m) * k);
  std::vector<float> b(static_cast<std::size_t>(k) * n);
  std::vector<float> g(static_cast<std::size_t>(m) * n);
  for (std::size_t i = 0; i < a.size(); ++i) {
    a[i] = 0.01F * static_cast<float>(i % 23) - 0.1F;
  }
  for (std::size_t i = 0; i < b.size(); ++i) {
    b[i] = 0.02F * static_cast<float>(i % 19) - 0.15F;
  }
  for (std::size_t i = 0; i < g.size(); ++i) {
    g[i] = 0.03F * static_cast<float>(i % 17) - 0.2F;
  }
  std::vector<float> c_serial(static_cast<std::size_t>(m) * n);
  std::vector<float> gx_serial(static_cast<std::size_t>(m) * k, 0.0F);
  std::vector<float> gw_serial(static_cast<std::size_t>(k) * n, 0.0F);
  nn::kernels::matmul_nn(m, k, n, a.data(), b.data(), c_serial.data());
  nn::kernels::matmul_nt_acc(m, n, k, g.data(), b.data(), gx_serial.data());
  nn::kernels::matmul_tn_acc(m, k, n, a.data(), g.data(), gw_serial.data());
  for (const std::size_t workers : {2U, 4U}) {
    util::ThreadPool pool(workers);
    std::vector<float> c(c_serial.size());
    std::vector<float> gx(gx_serial.size(), 0.0F);
    std::vector<float> gw(gw_serial.size(), 0.0F);
    nn::kernels::matmul_nn(m, k, n, a.data(), b.data(), c.data(), &pool);
    nn::kernels::matmul_nt_acc(m, n, k, g.data(), b.data(), gx.data(),
                               &pool);
    nn::kernels::matmul_tn_acc(m, k, n, a.data(), g.data(), gw.data(),
                               &pool);
    if (std::memcmp(c.data(), c_serial.data(),
                    c.size() * sizeof(float)) != 0 ||
        std::memcmp(gx.data(), gx_serial.data(),
                    gx.size() * sizeof(float)) != 0 ||
        std::memcmp(gw.data(), gw_serial.data(),
                    gw.size() * sizeof(float)) != 0) {
      return false;
    }
  }
  return true;
}

EvalRun run_evaluation(const Scenario& scenario, int workers) {
  util::ThreadPool pool(workers);
  mcf::OptimalCache cache;  // fresh: both runs solve the same LPs
  EvalRun run;
  const double start = now_seconds();
  run.result = evaluate_fixed(
      {scenario}, /*memory=*/5, cache,
      [](const graph::DiGraph& g) {
        const std::vector<double> w(static_cast<size_t>(g.num_edges()), 1.0);
        return routing::softmin_routing(g, w);
      },
      &pool);
  run.seconds = now_seconds() - start;
  return run;
}

}  // namespace

int main(int argc, char** argv) {
  std::setvbuf(stdout, nullptr, _IONBF, 0);
  const int workers = util::consume_workers_flag(argc, argv);
  const obs::MetricsOptions metrics = obs::consume_metrics_flag(argc, argv);
  obs::apply(metrics);
  const int parallel_workers = workers > 1 ? workers : 4;
  const unsigned hardware = std::thread::hardware_concurrency();
  std::printf("=== Parallel engine: speedup and determinism smoke ===\n");
  std::printf("comparing 1 worker vs %d workers (%u hardware threads)\n",
              parallel_workers, hardware);
  if (hardware < 2) {
    std::printf("note: single-core host — wall-clock speedup > 1 is not "
                "attainable; this run still verifies determinism and "
                "measures threading overhead.\n");
  }

  util::Rng rng(20210202);
  ScenarioParams params = experiment_scenario_params();
  const Scenario train_scenario =
      make_scenario(topo::abilene_heterogeneous(), params, rng);
  params.test_sequences = kEvalTestSequences;
  util::Rng rng2(20210505);
  const Scenario eval_scenario =
      make_scenario(topo::abilene_heterogeneous(), params, rng2);

  std::printf("\n[0/2] matmul kernels, 1 vs 2 vs 4 workers...\n");
  const bool kernels_identical = kernels_bit_identical_across_workers();
  std::printf("  outputs bit-identical: %s\n",
              kernels_identical ? "yes" : "NO — DETERMINISM VIOLATION");

  std::printf("\n[1/2] vectorised collection: %d envs x %d steps...\n",
              kVecEnvs, kStepsPerEnv);
  const CollectRun collect_serial = run_collection(train_scenario, 1);
  const CollectRun collect_parallel =
      run_collection(train_scenario, parallel_workers);
  const bool collect_identical =
      buffers_identical(collect_serial.buffer, collect_parallel.buffer);
  const double collect_speedup =
      collect_parallel.seconds > 0.0
          ? collect_serial.seconds / collect_parallel.seconds
          : 0.0;
  std::printf("  1 worker: %.3fs, %d workers: %.3fs  ->  %.2fx speedup\n",
              collect_serial.seconds, parallel_workers,
              collect_parallel.seconds, collect_speedup);
  std::printf("  buffers bit-identical: %s\n",
              collect_identical ? "yes" : "NO — DETERMINISM VIOLATION");

  std::printf("\n[2/2] parallel evaluation: %d test sequences...\n",
              kEvalTestSequences);
  const EvalRun eval_serial = run_evaluation(eval_scenario, 1);
  const EvalRun eval_parallel = run_evaluation(eval_scenario, parallel_workers);
  const bool eval_identical =
      eval_serial.result.mean_ratio == eval_parallel.result.mean_ratio &&
      eval_serial.result.stddev == eval_parallel.result.stddev &&
      eval_serial.result.steps == eval_parallel.result.steps;
  const double eval_speedup =
      eval_parallel.seconds > 0.0 ? eval_serial.seconds / eval_parallel.seconds
                                  : 0.0;
  std::printf("  1 worker: %.3fs, %d workers: %.3fs  ->  %.2fx speedup\n",
              eval_serial.seconds, parallel_workers, eval_parallel.seconds,
              eval_speedup);
  std::printf("  mean ratio %.6f vs %.6f, bit-identical: %s\n",
              eval_serial.result.mean_ratio, eval_parallel.result.mean_ratio,
              eval_identical ? "yes" : "NO — DETERMINISM VIOLATION");

  const double best_speedup = std::max(collect_speedup, eval_speedup);
  char json[2048];
  std::snprintf(
      json, sizeof(json),
      "{\n"
        "  \"schema\": \"gddr.bench_parallel.v1\",\n"
        "  \"git_sha\": \"" GDDR_GIT_SHA "\",\n"
        "  \"build_type\": \"" GDDR_BUILD_TYPE "\",\n"
        "  \"nproc\": %u,\n"
        "  \"workers\": %d,\n"
        "  \"kernels_bit_identical\": %s,\n"
        "  \"vec_envs\": %d,\n"
        "  \"collection\": {\n"
        "    \"steps_per_env\": %d,\n"
        "    \"serial_seconds\": %.6f,\n"
        "    \"parallel_seconds\": %.6f,\n"
        "    \"speedup\": %.3f,\n"
        "    \"bit_identical\": %s\n"
        "  },\n"
        "  \"evaluation\": {\n"
        "    \"test_sequences\": %d,\n"
        "    \"serial_seconds\": %.6f,\n"
        "    \"parallel_seconds\": %.6f,\n"
        "    \"speedup\": %.3f,\n"
        "    \"bit_identical\": %s,\n"
        "    \"mean_ratio\": %.9f\n"
        "  },\n"
        "  \"best_speedup\": %.3f,\n"
        "  \"meets_2x_target\": %s,\n"
        "  \"note\": \"%s\"\n"
        "}\n",
        hardware, parallel_workers, kernels_identical ? "true" : "false",
        kVecEnvs, kStepsPerEnv,
        collect_serial.seconds, collect_parallel.seconds, collect_speedup,
        collect_identical ? "true" : "false", kEvalTestSequences,
        eval_serial.seconds, eval_parallel.seconds, eval_speedup,
        eval_identical ? "true" : "false", eval_serial.result.mean_ratio,
        best_speedup, best_speedup >= 2.0 ? "true" : "false",
      hardware >= 2
          ? "speedup measured against the inline serial path"
          : "single-core host: speedup > 1 unattainable; run verifies "
            "determinism and bounds threading overhead");
  try {
    gddr::util::write_file_atomic("BENCH_parallel.json", json);
    std::printf("\nwrote BENCH_parallel.json (best speedup %.2fx)\n",
                best_speedup);
  } catch (const std::exception& ex) {
    std::fprintf(stderr, "could not write BENCH_parallel.json: %s\n",
                 ex.what());
  }

  const std::string metrics_summary = obs::finish(metrics);
  if (!metrics_summary.empty()) std::printf("%s\n", metrics_summary.c_str());

  const bool ok = collect_identical && eval_identical && kernels_identical;
  if (!ok) std::fprintf(stderr, "FAIL: determinism contract violated\n");
  return ok ? 0 : 1;
}
