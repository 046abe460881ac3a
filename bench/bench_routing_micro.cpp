// Microbenchmark: translate + simulate one demand matrix, the two-pass path
// (softmin_routing, then simulate) against the fused per-destination sweep
// (softmin_simulate), serial and sharded across destinations on 2 and 4
// shards (the caller plus 1 or 3 threads of a 3-thread pool).
//
// Graphs: Abilene (11 nodes), GeantLike (22) and Barabasi-Albert graphs of
// 25, 50, 100 (graph seed 100, the serving benchmark's BA100) and 500
// nodes.  Each row routes one dense bimodal demand matrix with the weights
// of random actions in [-1, 1].  Every repetition times the four variants
// back to back, rotating which goes first, over enough calls to last
// ~10 ms each.  The sharded rows are what softmin_simulate's |V| x |E|
// crossover (routing::sweep_shards) is read from; `auto_shards` is the
// shard count it picks on that pool.
//
// The run first checks that the fused sweep gives the two-pass routing
// table, loads, utilisations, delivered traffic and U_max bit for bit,
// and that so does the sharded sweep at 2, 3 and 4 shards and at one
// shard per destination; it exits 1 on any difference.  Timings are
// reported, never gated.
//
//   bench_routing_micro [--json] [--reps N] [--git-sha SHA]
//
// --json writes BENCH_routing_micro.json (schema
// "gddr.bench_routing_micro.v2") to the working directory.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "graph/digraph.hpp"
#include "routing/routing.hpp"
#include "routing/softmin.hpp"
#include "topo/generators.hpp"
#include "topo/zoo.hpp"
#include "traffic/demand.hpp"
#include "traffic/generators.hpp"
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
using Clock = std::chrono::steady_clock;

struct Case {
  std::string name;
  graph::DiGraph g;
};

std::vector<Case> cases() {
  std::vector<Case> out;
  out.push_back({"Abilene", topo::by_name("Abilene")});
  out.push_back({"GeantLike", topo::by_name("GeantLike")});
  for (const int n : {25, 50, 100, 500}) {
    // Graph seed 100 makes BA100 the serving benchmark's graph.
    util::Rng graph_rng(100);
    out.push_back({"BA" + std::to_string(n),
                   topo::barabasi_albert(n, 2, graph_rng)});
  }
  return out;
}

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

bool same_bits(std::span<const double> a, std::span<const double> b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size_bytes()) == 0);
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

// A fused result and a two-pass (or another fused) result agree bit for
// bit.
bool identical(const graph::DiGraph& g, const routing::SoftminSimulation& fused,
               const routing::Routing& routing,
               const routing::SimulationResult& sim) {
  for (graph::NodeId t = 0; t < g.num_nodes(); ++t) {
    if (!same_bits(fused.routing.dest_ratios(t), routing.dest_ratios(t))) {
      return false;
    }
  }
  return same_bits(fused.sim.link_load, sim.link_load) &&
         same_bits(fused.sim.link_utilisation, sim.link_utilisation) &&
         same_bits(fused.sim.delivered, sim.delivered) &&
         same_bits(fused.sim.u_max, sim.u_max);
}

// The timed shard counts.
constexpr int kShardCounts[] = {2, 4};
constexpr int kShardRows = static_cast<int>(std::size(kShardCounts));

struct Row {
  std::string name;
  int nodes = 0;
  int edges = 0;
  int calls_per_rep = 0;
  int auto_shards = 1;
  bool bit_identical = false;
  bool sharded_bit_identical = false;
  Quartiles two_pass_us;
  Quartiles fused_us;
  Quartiles sharded_us[kShardRows];
};

template <class F>
double time_us(int calls, F&& f) {
  const Clock::time_point t0 = Clock::now();
  for (int i = 0; i < calls; ++i) f();
  return std::chrono::duration<double, std::micro>(Clock::now() - t0)
             .count() /
         calls;
}

Row measure(const Case& c, int reps, util::ThreadPool& pool, double& sink) {
  const graph::DiGraph& g = c.g;
  util::Rng rng(7);
  std::vector<double> actions(static_cast<std::size_t>(g.num_edges()));
  for (double& a : actions) a = rng.uniform(-1.0, 1.0);
  const std::vector<double> weights = routing::weights_from_actions(actions);
  const traffic::DemandMatrix dm =
      traffic::bimodal_matrix(g.num_nodes(), traffic::BimodalParams{}, rng);
  const routing::SoftminOptions options;

  const auto two_pass = [&] {
    const routing::Routing r = routing::softmin_routing(g, weights, options);
    sink += routing::simulate(g, r, dm).u_max;
  };
  const auto sharded = [&](int shards) {
    return routing::softmin_simulate_sharded(g, weights, options, dm, &pool,
                                             shards);
  };
  // Variant 0 is the two-pass path, 1 the serial fused sweep, 2.. the
  // sharded sweep at kShardCounts.
  const auto run = [&](int variant) {
    if (variant == 0) {
      two_pass();
    } else if (variant == 1) {
      sink += routing::softmin_simulate(g, weights, options, dm).sim.u_max;
    } else {
      sink += sharded(kShardCounts[variant - 2]).sim.u_max;
    }
  };
  constexpr int kVariants = 2 + kShardRows;

  Row row;
  row.name = c.name;
  row.nodes = g.num_nodes();
  row.edges = g.num_edges();
  row.auto_shards = routing::sweep_shards(g, &pool);
  {
    const routing::Routing r = routing::softmin_routing(g, weights, options);
    const routing::SimulationResult sim = routing::simulate(g, r, dm);
    row.bit_identical = identical(
        g, routing::softmin_simulate(g, weights, options, dm), r, sim);
    row.sharded_bit_identical = true;
    for (const int shards : {2, 3, 4, g.num_nodes()}) {
      row.sharded_bit_identical =
          row.sharded_bit_identical && identical(g, sharded(shards), r, sim);
    }
  }
  const double once = time_us(1, two_pass);
  row.calls_per_rep =
      std::clamp(static_cast<int>(std::ceil(10000.0 / once)), 1, 5000);
  std::vector<double> us[kVariants];
  for (int rep = 0; rep < reps; ++rep) {
    for (int k = 0; k < kVariants; ++k) {
      const int variant = (rep + k) % kVariants;
      us[variant].push_back(
          time_us(row.calls_per_rep, [&] { run(variant); }));
    }
  }
  row.two_pass_us = quartiles(us[0]);
  row.fused_us = quartiles(us[1]);
  for (int i = 0; i < kShardRows; ++i) row.sharded_us[i] = quartiles(us[2 + i]);
  return row;
}

void append_quartiles(std::string& out, const char* key, const Quartiles& q) {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "\"%s\": {\"median\": %.3f, \"q1\": %.3f, \"q3\": %.3f}", key,
                q.median, q.q1, q.q3);
  out += buf;
}

std::string record(const std::vector<Row>& rows, int reps,
                   const std::string& git_sha, bool ok) {
  std::string out = "{\n  \"schema\": \"gddr.bench_routing_micro.v2\",\n";
  out += "  \"git_sha\": \"" + git_sha + "\",\n";
  out += "  \"build_type\": \"" GDDR_BUILD_TYPE "\",\n";
  out += "  \"nproc\": " +
         std::to_string(std::thread::hardware_concurrency()) + ",\n";
  out += "  \"reps\": " + std::to_string(reps) + ",\n";
  out += "  \"rows\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    char head[256];
    std::snprintf(head, sizeof(head),
                  "    {\"graph\": \"%s\", \"nodes\": %d, \"edges\": %d, "
                  "\"calls_per_rep\": %d, \"bit_identical\": %s, "
                  "\"sharded_bit_identical\": %s, \"auto_shards\": %d, ",
                  r.name.c_str(), r.nodes, r.edges, r.calls_per_rep,
                  r.bit_identical ? "true" : "false",
                  r.sharded_bit_identical ? "true" : "false", r.auto_shards);
    out += head;
    append_quartiles(out, "two_pass_us", r.two_pass_us);
    out += ", ";
    append_quartiles(out, "fused_us", r.fused_us);
    char ratio[64];
    std::snprintf(ratio, sizeof(ratio), ", \"fused_over_two_pass\": %.3f",
                  r.fused_us.median / r.two_pass_us.median);
    out += ratio;
    out += ", \"sharded_us\": [";
    for (int k = 0; k < kShardRows; ++k) {
      char shard[200];
      const Quartiles& q = r.sharded_us[k];
      std::snprintf(shard, sizeof(shard),
                    "%s{\"shards\": %d, \"median\": %.3f, \"q1\": %.3f, "
                    "\"q3\": %.3f, \"over_fused\": %.3f}",
                    k == 0 ? "" : ", ", kShardCounts[k], q.median, q.q1, q.q3,
                    q.median / r.fused_us.median);
      out += shard;
    }
    out += "]}";
    out += i + 1 < rows.size() ? ",\n" : "\n";
  }
  out += "  ],\n";
  out += std::string("  \"ok\": ") + (ok ? "true" : "false") + "\n}\n";
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bool json = false;
  int reps = 15;
  std::string git_sha = GDDR_GIT_SHA;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json") {
      json = true;
    } else if (arg == "--reps" && i + 1 < argc) {
      reps = std::atoi(argv[++i]);
    } else if (arg == "--git-sha" && i + 1 < argc) {
      git_sha = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: bench_routing_micro [--json] [--reps N] "
                   "[--git-sha SHA]\n");
      return 2;
    }
  }
  if (reps < 1) {
    std::fprintf(stderr, "--reps must be positive\n");
    return 2;
  }

  double sink = 0.0;
  std::vector<Row> rows;
  bool ok = true;
  util::ThreadPool pool(3);
  std::printf("%-10s %6s %6s %6s %20s %20s %20s %20s %5s %s\n", "graph",
              "nodes", "edges", "calls", "two-pass us (q1-q3)",
              "fused us (q1-q3)", "2 shards us (q1-q3)",
              "4 shards us (q1-q3)", "auto", "bits");
  for (const Case& c : cases()) {
    rows.push_back(measure(c, reps, pool, sink));
    const Row& r = rows.back();
    ok = ok && r.bit_identical && r.sharded_bit_identical;
    std::printf("%-10s %6d %6d %6d", r.name.c_str(), r.nodes, r.edges,
                r.calls_per_rep);
    for (const Quartiles* q : {&r.two_pass_us, &r.fused_us, &r.sharded_us[0],
                               &r.sharded_us[1]}) {
      std::printf(" %8.1f (%4.0f-%4.0f)", q->median, q->q1, q->q3);
    }
    std::printf(" %5d %s\n", r.auto_shards,
                !r.bit_identical           ? "DIFFER (fused)"
                : !r.sharded_bit_identical ? "DIFFER (sharded)"
                                           : "identical");
  }
  std::printf("(checksum %.6g)\n", sink);

  if (json) {
    try {
      util::write_file_atomic("BENCH_routing_micro.json",
                              record(rows, reps, git_sha, ok));
      std::printf("wrote BENCH_routing_micro.json\n");
    } catch (const std::exception& ex) {
      std::fprintf(stderr, "could not write BENCH_routing_micro.json: %s\n",
                   ex.what());
      return 1;
    }
  }
  if (!ok) {
    std::fprintf(stderr,
                 "FAIL: fused, sharded and two-pass results differ (see "
                 "table)\n");
    return 1;
  }
  return 0;
}
