// gddr_perfbench: the GDDR repository benchmark.
//
//   gddr_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                  [--git-sha <sha>]
//
// Runs one workload (see inputs.hpp) from inputs generated from --seed,
// checks the outputs, and prints a self-describing record line followed by
// the result line: {"correct", "attempted", "failed", "metrics"} with the
// end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).
// A failed check prints no result line and exits 1; bad usage exits 2.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/experiment.hpp"
#include "inputs.hpp"
#include "serve_path.hpp"
#include "stats.hpp"
#include "train_path.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_CXX_FLAGS
#define PERFBENCH_CXX_FLAGS "unknown"
#endif

namespace {

using namespace gddr;
using namespace gddr::perfbench;

// Requests per tail window: 200 gives p95 by the ten-beyond rule.  Host
// stalls of a few milliseconds recur every few hundred milliseconds on a
// shared host; windows this short keep most of them stall-free, so the
// median window shows the system rather than its neighbours.
constexpr std::size_t kTailWindow = 200;

// An unoptimised build measures a different program than the one users
// run.  (CMakeLists.txt refuses GDDR_CHECK and sanitizer builds.)
const char* unsuitable_build() {
#if !defined(__OPTIMIZE__)
  return "the build is not optimised";
#else
  return nullptr;
#endif
}

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  std::string git_sha = "unknown";
};

bool parse_args(int argc, char** argv, Args& args) {
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != nullptr && *end == '\0' && !value.empty();
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (end == nullptr || *end != '\0') args.seconds = 0.0;
    } else if (key == "--trace") {
      args.trace = value == "0" ? 0 : value == "1" ? 1 : -1;
    } else if (key == "--git-sha") {
      args.git_sha = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args.workload.empty() && have_seed &&
         args.seconds > 0.0 && args.seconds <= 600.0 && args.trace >= 0;
}

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
  // Median and quartiles of the samples the value summarises (the value
  // itself for n == 1).
  double median = 0.0;
  double q1 = 0.0;
  double q3 = 0.0;
  long n = 1;
};

Metric single(std::string name, std::string unit, double value) {
  return {std::move(name), std::move(unit), value, value, value, value, 1};
}

Metric summary(std::string name, std::string unit,
               const std::vector<double>& samples, double value) {
  const Quartiles q = quartiles(samples);
  return {std::move(name), std::move(unit), value, q.median, q.q1, q.q3,
          static_cast<long>(samples.size())};
}

Metric med(std::string name, std::string unit,
           const std::vector<double>& samples) {
  return summary(std::move(name), std::move(unit), samples, median(samples));
}

// Host contention only ever slows work down, and on a shared host it comes
// and goes in phases of seconds, so the timed figures are read at the fast
// end of their samples, which follows the uncontended speed as long as
// some of the run went free; a change to the code moves every sample.
//
// Training: the 90th percentile of per-iteration rates.  Over 18 Abilene
// runs it spread from run to run about half as much as the median (IQR
// 0.11 against 0.21 of the median).
double free_rate(const std::vector<double>& rates) {
  return quantile(rates, 0.9);
}

// Serving, with a sample per round: the fastest quarter.
double free_latency(const std::vector<double>& latencies) {
  return quartiles(latencies).q1;
}
double free_throughput(const std::vector<double>& rates) {
  return quartiles(rates).q3;
}

// JSON has no infinity: a latency that never ended (shed request) is
// written as 1e300 so it still misses every limit.
std::string num(double v) {
  if (!std::isfinite(v)) v = v < 0 ? -1e300 : 1e300;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

double frac(long part, long whole) {
  return whole > 0 ? static_cast<double>(part) / static_cast<double>(whole)
                   : 0.0;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

int run(const Args& args) {
  const WorkloadSpec& spec = workload(args.workload);
  const bool traced = args.trace == 1;
  const unsigned cores = std::max(1U, std::thread::hardware_concurrency());
  // Engine workers plus the generator (this thread) leave one core spare:
  // on a shared host a stolen core then slows the run down instead of
  // stalling a worker outright.
  const int workers = std::clamp(static_cast<int>(cores) - 2, 1, 2);
  std::vector<std::string> errors;

  TrainPlan train_plan;
  train_plan.kind = spec.train;
  train_plan.traffic_seed = sub_seed(args.seed, 3);
  TrainPlan traced_plan = train_plan;
  traced_plan.traced = true;
  traced_plan.setup_reps = 1;
  const int iterations = iterations_for(spec, args.seconds);

  ServePlan serve_plan;
  serve_plan.workers = workers;
  serve_plan.closed_seconds = spec.closed_share * args.seconds;
  serve_plan.open_seconds = spec.open_share * args.seconds;
  serve_plan.open_rate = spec.open_rate;
  serve_plan.schedule_seed = sub_seed(args.seed, 2);
  serve_plan.replay_samples = spec.replay_samples;
  serve_plan.max_batch = spec.max_batch;
  serve_plan.traced = traced;

  util::Rng policy_rng(kPolicySeed);
  core::GnnPolicy untrained(core::experiment_gnn_config(kMemory), policy_rng);
  // A seeded, untrained policy serves.  Training runs inline between the
  // serving rounds, while the engine's workers idle, so that its iterations
  // sample the whole run as the serving phases do.
  const core::Scenario serve_scenario = serving_scenario(
      serving_graph(spec.serve_graph), serving_sequences(spec.serve_graph),
      sub_seed(args.seed, 1));
  TrainSession session(train_plan);
  serve_plan.scenario = &serve_scenario;
  serve_plan.policy = &untrained;
  constexpr int kGaps = kServeRounds - 1;
  serve_plan.between_rounds = [&](int r) {
    session.time_setup();
    session.iterate(iterations * (r + 1) / kGaps - iterations * r / kGaps);
  };
  const ServeResult serve_result = run_serving(serve_plan);
  const TrainResult train_result = session.finish();
  std::optional<TrainResult> traced_train;
  if (traced) {
    TrainSession traced_session(traced_plan);
    traced_session.iterate(iterations);
    traced_train = traced_session.finish();
  }
  const double rss_mb = peak_rss_mb();
  errors.insert(errors.end(), serve_result.errors.begin(),
                serve_result.errors.end());

  const double eval_ratio = train_result.eval.mean_ratio;
  if (!std::isfinite(eval_ratio) || eval_ratio < 1.0 - 1e-9) {
    errors.push_back("eval_ratio " + num(eval_ratio) +
                     " is not a finite ratio >= 1 (the LP is a lower bound)");
  }
  if (!(serve_result.u_max_mean > 0.0) ||
      !std::isfinite(serve_result.u_max_mean)) {
    errors.push_back("u_max_mean is not a positive finite mean");
  }

  if (traced && traced_train->eval.mean_ratio != eval_ratio) {
    errors.push_back("eval_ratio differs between the untraced (" +
                     num(eval_ratio) + ") and traced (" +
                     num(traced_train->eval.mean_ratio) + ") runs");
  }

  const long train_attempted = train_result.steps + train_result.eval.steps;
  const long attempted = serve_result.attempted + train_attempted;
  // Training fails per env step: every approximate (FPTAS) optimum and
  // every non-finite watchdog event.
  const long failed = serve_result.failed + train_result.approx_solves +
                      train_result.nonfinite_events;

  std::vector<Metric> metrics;
  const std::vector<double>& lat = serve_result.latency_us;
  double tail_p = 0.0;
  const double tail_us = windowed_tail(lat, kTailWindow, &tail_p);
  if (!traced) {
    const std::vector<double>& p50s = serve_result.round_p50_us;
    const std::vector<double>& closed = serve_result.closed_rates;
    metrics.push_back(
        summary("decide_p50_us", "us", p50s, free_latency(p50s)));
    metrics.push_back(
        summary("decisions_per_s", "1/s", closed, free_throughput(closed)));
    metrics.push_back(single("u_max_mean", "ratio", serve_result.u_max_mean));
    metrics.push_back(summary("train_steps_per_s", "1/s",
                              train_result.steps_per_s,
                              free_rate(train_result.steps_per_s)));
    metrics.push_back(single("eval_ratio", "ratio", eval_ratio));
    std::vector<double> setup = serve_result.setup_s;
    const double train_setup = median(train_result.setup_s);
    for (double& s : setup) s += train_setup;
    metrics.push_back(med("setup_s", "s", setup));
    metrics.push_back(single("peak_rss_mb", "MB", rss_mb));
  } else {
    const StageTimes& st = serve_result.stages;
    const TrainResult& tt = *traced_train;
    const std::vector<double>& wait = serve_result.queue_wait_us;
    const graph::DiGraph& g = serve_plan.scenario->graph;
    const double table_mb = static_cast<double>(g.num_nodes()) *
                            g.num_nodes() * g.num_edges() * 8.0 / 1e6;
    const long lookups = tt.cache_hits + tt.cache_misses;
    // Tracing cost: the serial decide with obs::Registry on against off,
    // and the traced training against the untraced one.
    const double overhead = st.decide_traced_us / st.decide_us - 1.0;
    const double train_overhead =
        free_rate(train_result.steps_per_s) / free_rate(tt.steps_per_s) - 1.0;
    metrics.push_back(summary("decide_tail_us", "us", lat, tail_us));
    metrics.push_back(med("serve.queue_wait_us.p50", "us", wait));
    metrics.push_back(summary("serve.queue_wait_us.tail", "us", wait,
                              windowed_tail(wait, kTailWindow, nullptr)));
    metrics.push_back(
        single("serve.batch_size_mean", "count", serve_result.batch_size_mean));
    metrics.push_back(single(
        "serve.shed_frac", "frac",
        frac(serve_result.shed, serve_result.open_requests)));
    metrics.push_back(
        med("serve.service_us.p50", "us", serve_result.service_us));
    metrics.push_back(single(
        "serve.degraded_frac", "frac",
        frac(serve_result.degraded, serve_result.open_requests)));
    metrics.push_back(single("serve.decide_serial_us", "us", st.decide_us));
    metrics.push_back(
        single("serve.topo_cache.acquire_us", "us", st.acquire_us));
    metrics.push_back(single("serve.sanitize_us", "us", st.sanitize_us));
    metrics.push_back(
        single("serve.unattributed_us", "us", st.unattributed_us));
    metrics.push_back(
        single("serve.topo_cache.miss_ms", "ms", st.cache_miss_ms));
    metrics.push_back(single("serve.topo_cache.hit_ratio", "ratio",
                             serve_result.topo_hit_ratio));
    metrics.push_back(single("core.observation_us", "us", st.observation_us));
    metrics.push_back(single("core.env_step_us", "us", tt.env_step_us));
    metrics.push_back(single("rl.forward_policy_us", "us", st.forward_us));
    metrics.push_back(single("rl.collect_s", "s", tt.collect_s));
    metrics.push_back(single("rl.update_s", "s", tt.update_s));
    metrics.push_back(single("nn.backward_s", "s", tt.backward_s));
    metrics.push_back(single("routing.softmin_us", "us", st.softmin_us));
    metrics.push_back(single("routing.validate_us", "us", st.validate_us));
    metrics.push_back(single("routing.simulate_us", "us", st.simulate_us));
    metrics.push_back(single("routing.table_mb", "MB", table_mb));
    metrics.push_back(single("mcf.solve_ms.p50", "ms", tt.solve_ms));
    metrics.push_back(single("mcf.solve_s", "s", tt.solve_s));
    metrics.push_back(single("mcf.cache_hit_ratio", "ratio",
                             frac(tt.cache_hits, lookups)));
    metrics.push_back(single("mcf.cache_lookups", "count",
                             static_cast<double>(lookups)));
    metrics.push_back(single(
        "mcf.exact_frac", "ratio",
        frac(tt.exact_solves, tt.exact_solves + tt.approx_solves)));
    metrics.push_back(
        single("lp.pivots_per_solve", "count", tt.pivots_per_solve));
    const std::vector<double>& lag = serve_result.lag_us;
    metrics.push_back(summary("gen.lag_us.tail", "us", lag,
                              windowed_tail(lag, kTailWindow, nullptr)));
    metrics.push_back(single("trace.overhead_frac", "frac", overhead));
    metrics.push_back(
        single("trace.train_overhead_frac", "frac", train_overhead));
    metrics.push_back(single("failed_frac", "frac", frac(failed, attempted)));
  }

  for (const std::string& e : errors) {
    std::fprintf(stderr, "check failed: %s\n", e.c_str());
  }
  if (!errors.empty()) return 1;

  std::printf("workload %s  seed %llu  seconds %g  trace %d  workers %d\n",
              spec.name.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace, workers);
  std::printf("serving: %ld open-loop requests at %g/s (tail = p%g), %ld "
              "replayed bit-identical, %ld routings validated, u_max_mean "
              "%.17g\n",
              serve_result.open_requests, spec.open_rate, tail_p,
              serve_result.replayed, serve_result.validated,
              serve_result.u_max_mean);
  std::printf("open-loop latency us: p50 %.1f  p90 %.1f  p99 %.1f  p99.9 "
              "%.1f  max %.1f; generator lag p99 %.1f\n",
              quantile(lat, 0.5), quantile(lat, 0.9), quantile(lat, 0.99),
              quantile(lat, 0.999), quantile(lat, 1.0),
              quantile(serve_result.lag_us, 0.99));
  std::printf("per round: latency p50 us");
  for (const double v : serve_result.round_p50_us) std::printf(" %.1f", v);
  std::printf("; closed loop 1/s");
  for (const double v : serve_result.closed_rates) std::printf(" %.1f", v);
  std::printf("\n");
  std::printf("training: %d iterations, %ld steps, LP cache %ld hits / %ld "
              "misses, eval_ratio %.17g over %d test steps\n",
              iterations, train_result.steps,
              train_result.cache_hits, train_result.cache_misses, eval_ratio,
              train_result.eval.steps);
  for (const Metric& m : metrics) {
    std::printf("  %-28s %14.4f %-6s (median %.4f, q1 %.4f, q3 %.4f, n %ld)\n",
                m.name.c_str(), m.value, m.unit.c_str(), m.median, m.q1, m.q3,
                m.n);
  }

  // Self-describing record: build, host and per-metric spread.
  std::string record = "{\"schema\": \"gddr.perfbench.v1\", \"workload\": " +
                       quoted(spec.name) + ", \"seed\": " +
                       std::to_string(args.seed) + ", \"seconds\": " +
                       num(args.seconds) + ", \"trace\": " +
                       std::to_string(args.trace) + ", \"git_sha\": " +
                       quoted(args.git_sha) + ", \"build_type\": " +
                       quoted(PERFBENCH_BUILD_TYPE) + ", \"cxx_flags\": " +
                       quoted(PERFBENCH_CXX_FLAGS) + ", \"nproc\": " +
                       std::to_string(cores) + ", \"workers\": " +
                       std::to_string(workers) + ", \"tail_percentile\": " +
                       num(tail_p) + ", \"metrics\": {";
  std::string result = "{\"correct\": true, \"attempted\": " +
                       std::to_string(attempted) + ", \"failed\": " +
                       std::to_string(failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    const std::string sep = i == 0 ? "" : ", ";
    record += sep + quoted(m.name + "." + m.unit) + ": {\"value\": " +
              num(m.value) + ", \"median\": " + num(m.median) +
              ", \"q1\": " + num(m.q1) + ", \"q3\": " + num(m.q3) +
              ", \"reps\": " + std::to_string(m.n) + "}";
    result += sep + quoted(m.name) + ": {\"value\": " + num(m.value) +
              ", \"unit\": " + quoted(m.unit) + "}";
  }
  std::printf("%s}}\n%s}}\n", record.c_str(), result.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::setvbuf(stdout, nullptr, _IOLBF, 0);
  if (const char* why = unsuitable_build()) {
    std::fprintf(stderr, "gddr_perfbench: refusing to measure: %s\n", why);
    return 2;
  }
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: gddr_perfbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--git-sha <sha>]\n");
    return 2;
  }
  try {
    return run(args);
  } catch (const std::exception& ex) {
    std::fprintf(stderr, "gddr_perfbench: %s\n", ex.what());
    return 1;
  }
}
