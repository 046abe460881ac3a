// Differential tests: the destination-based production routing against the
// per-(source, destination) reference in routing/reference.hpp.
//
// A seeded random-topology family (Erdos-Renyi, Watts-Strogatz and
// Barabasi-Albert graphs at 5-100 nodes, plus capacity-skewed and
// disconnected variants) and the topology catalogue drive two kinds of
// paired checks:
//  * builders — every destination-based builder's ratios equal the
//    reference per-pair ratios at every traffic-carrying (s,t,v), and
//    production simulate() reproduces the per-pair simulate's U_max and
//    link loads to 1e-12 relative;
//  * checkers — validate, validate_for_serving and strict simulate give the
//    per-pair verdict on the same ratios broadcast to every source, for
//    clean and deliberately corrupted routings.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

#include "graph/algorithms.hpp"
#include "mcf/optimal.hpp"
#include "routing/baselines.hpp"
#include "routing/reference.hpp"
#include "routing/routing.hpp"
#include "routing/softmin.hpp"
#include "topo/generators.hpp"
#include "topo/zoo.hpp"
#include "util/rng.hpp"

namespace gddr::routing {
namespace {

using graph::DiGraph;
using graph::EdgeId;
using graph::NodeId;
using reference::PairRouting;
using traffic::DemandMatrix;

struct GraphCase {
  std::string name;
  DiGraph g;
};

// Disjoint union of `a` and `b` plus one isolated vertex: many pairs are
// unreachable in both directions.
DiGraph disjoint_union(const DiGraph& a, const DiGraph& b) {
  DiGraph u(a.num_nodes() + b.num_nodes() + 1);
  for (const auto& e : a.edges()) u.add_edge(e.src, e.dst, e.capacity);
  for (const auto& e : b.edges()) {
    u.add_edge(e.src + a.num_nodes(), e.dst + a.num_nodes(), e.capacity);
  }
  return u;
}

std::vector<GraphCase> graph_family() {
  util::Rng rng(20240);
  const topo::CapacityModel skewed{{10.0, 100.0, 1000.0, 10000.0}};
  std::vector<GraphCase> cases;
  cases.push_back({"er5", topo::erdos_renyi(5, 0.4, rng)});
  cases.push_back({"er12", topo::erdos_renyi(12, 0.3, rng)});
  cases.push_back({"er30", topo::erdos_renyi(30, 0.12, rng)});
  cases.push_back({"er100", topo::erdos_renyi(100, 0.04, rng)});
  cases.push_back({"ws8", topo::watts_strogatz(8, 4, 0.2, rng)});
  cases.push_back({"ws24", topo::watts_strogatz(24, 4, 0.3, rng)});
  cases.push_back({"ws60", topo::watts_strogatz(60, 4, 0.2, rng)});
  cases.push_back({"ba6", topo::barabasi_albert(6, 2, rng)});
  cases.push_back({"ba25", topo::barabasi_albert(25, 2, rng)});
  cases.push_back({"ba100", topo::barabasi_albert(100, 2, rng)});
  cases.push_back({"er16-skewed", topo::erdos_renyi(16, 0.25, rng, skewed)});
  cases.push_back({"ba40-skewed", topo::barabasi_albert(40, 2, rng, skewed)});
  cases.push_back({"split-er7-ba9",
                   disjoint_union(topo::erdos_renyi(7, 0.4, rng),
                                  topo::barabasi_albert(9, 2, rng))});
  // Dropping random directed edges leaves some pairs reachable one way
  // only.
  const DiGraph ws = topo::watts_strogatz(16, 4, 0.2, rng);
  std::vector<bool> drop(static_cast<std::size_t>(ws.num_edges()));
  for (auto&& d : drop) d = rng.uniform(0.0, 1.0) < 0.3;
  cases.push_back({"ws16-cut", ws.without_edges(drop)});
  return cases;
}

// reachable[s][t]: some s -> t path exists.
std::vector<std::vector<bool>> reachability(const DiGraph& g) {
  const auto n = static_cast<std::size_t>(g.num_nodes());
  std::vector<std::vector<bool>> reach(n, std::vector<bool>(n, false));
  const auto unit = graph::unit_weights(g);
  for (NodeId t = 0; t < g.num_nodes(); ++t) {
    const auto sp = graph::dijkstra_to(g, t, unit);
    for (NodeId s = 0; s < g.num_nodes(); ++s) {
      reach[static_cast<std::size_t>(s)][static_cast<std::size_t>(t)] =
          sp.dist[static_cast<std::size_t>(s)] != graph::kInfDist;
    }
  }
  return reach;
}

// Demand on a `density` fraction of the connected pairs.
DemandMatrix random_demand(const DiGraph& g,
                           const std::vector<std::vector<bool>>& reach,
                           double density, util::Rng& rng) {
  DemandMatrix dm(g.num_nodes());
  for (NodeId s = 0; s < g.num_nodes(); ++s) {
    for (NodeId t = 0; t < g.num_nodes(); ++t) {
      if (s == t ||
          !reach[static_cast<std::size_t>(s)][static_cast<std::size_t>(t)]) {
        continue;
      }
      if (rng.uniform(0.0, 1.0) < density) {
        dm.set(s, t, rng.uniform(1.0, 1000.0));
      }
    }
  }
  return dm;
}

std::vector<double> random_weights(const DiGraph& g, util::Rng& rng) {
  std::vector<double> w(static_cast<std::size_t>(g.num_edges()));
  for (auto& x : w) x = rng.uniform(0.5, 3.0);
  return w;
}

// Vertices carrying flow (s,t): reachable from s through positive ratios.
std::vector<bool> traffic_carrying(const DiGraph& g,
                                   std::span<const double> ratios, NodeId s) {
  std::vector<bool> carries(static_cast<std::size_t>(g.num_nodes()), false);
  std::vector<NodeId> stack{s};
  carries[static_cast<std::size_t>(s)] = true;
  while (!stack.empty()) {
    const NodeId v = stack.back();
    stack.pop_back();
    for (EdgeId e : g.out_edges(v)) {
      const NodeId u = g.edge(e).dst;
      if (ratios[static_cast<std::size_t>(e)] > 0.0 &&
          !carries[static_cast<std::size_t>(u)]) {
        carries[static_cast<std::size_t>(u)] = true;
        stack.push_back(u);
      }
    }
  }
  return carries;
}

// Row t of `prod` against flow (s,t) of `ref`, for every (s,t) with t in
// `dests`: equal at the out-edges of every vertex carrying the flow, and a
// source that cannot reach t forwards nothing toward it.
void expect_ratios_match(const DiGraph& g, const Routing& prod,
                         const PairRouting& ref,
                         const std::vector<std::vector<bool>>& reach,
                         const std::vector<NodeId>& dests,
                         const std::string& label) {
  for (const NodeId t : dests) {
    for (NodeId s = 0; s < g.num_nodes(); ++s) {
      if (s == t) continue;
      const auto row = prod.dest_ratios(t);
      const auto flow = ref.flow_ratios(s, t);
      if (!reach[static_cast<std::size_t>(s)][static_cast<std::size_t>(t)]) {
        for (EdgeId e : g.out_edges(s)) {
          ASSERT_EQ(row[static_cast<std::size_t>(e)], 0.0)
              << label << " severed flow (" << s << "," << t << ")";
        }
        continue;
      }
      // Equal ratios at the carrying vertices imply the reference's own
      // positive-ratio search from s finds the same vertex set.  (The
      // reference may still hold ratios at DAG vertices that only a
      // floored, zero-ratio edge leads to; no traffic reaches them.)
      const auto carries = traffic_carrying(g, row, s);
      for (NodeId v = 0; v < g.num_nodes(); ++v) {
        if (v == t || !carries[static_cast<std::size_t>(v)]) continue;
        for (EdgeId e : g.out_edges(v)) {
          const auto i = static_cast<std::size_t>(e);
          ASSERT_NEAR(row[i], flow[i], 1e-12)
              << label << " flow (" << s << "," << t << ") vertex " << v
              << " edge " << e;
        }
      }
    }
  }
}

void expect_close(double a, double b, const std::string& what) {
  EXPECT_LE(std::abs(a - b), 1e-12 * std::abs(b)) << what << ": " << a
                                                  << " vs " << b;
}

void expect_same_simulation(const SimulationResult& prod,
                            const SimulationResult& ref,
                            const std::string& label) {
  expect_close(prod.u_max, ref.u_max, label + " u_max");
  expect_close(prod.delivered, ref.delivered, label + " delivered");
  ASSERT_EQ(prod.link_load.size(), ref.link_load.size());
  for (std::size_t e = 0; e < ref.link_load.size(); ++e) {
    expect_close(prod.link_load[e], ref.link_load[e],
                 label + " load on edge " + std::to_string(e));
  }
}

// Production simulate vs per-pair simulate of (a) the same ratios
// broadcast to every source — exactly the table the per-source fan-out
// builders used to produce — and (b) `ref`, when given.
void expect_simulations_match(const DiGraph& g, const Routing& prod,
                              const PairRouting* ref, const DemandMatrix& dm,
                              const std::string& label) {
  const auto sim = simulate(g, prod, dm);
  expect_same_simulation(
      sim, reference::simulate(g, reference::broadcast(prod), dm),
      label + " vs broadcast");
  if (ref != nullptr) {
    expect_same_simulation(sim, reference::simulate(g, *ref, dm),
                           label + " vs per-pair");
  }
}

std::vector<NodeId> all_nodes(const DiGraph& g) {
  std::vector<NodeId> nodes(static_cast<std::size_t>(g.num_nodes()));
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    nodes[static_cast<std::size_t>(v)] = v;
  }
  return nodes;
}

class RoutingDifferential : public ::testing::TestWithParam<int> {};

TEST_P(RoutingDifferential, DownhillSoftminMatchesPerPairTranslation) {
  const auto cases = graph_family();
  const GraphCase& c = cases[static_cast<std::size_t>(GetParam())];
  const DiGraph& g = c.g;
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) + 7000);
  const auto reach = reachability(g);
  // Random weights, then unit weights: distance ties exercise the
  // downhill filter's tie tolerance.
  for (const bool ties : {false, true}) {
    const auto w = ties ? graph::unit_weights(g) : random_weights(g, rng);
    SoftminOptions options;
    options.gamma = rng.uniform(0.5, 6.0);
    const Routing prod = softmin_routing(g, w, options);
    const PairRouting ref = reference::softmin_routing_generic(
        g, w, options, PruneMode::kDistanceToSink);
    const std::string label = c.name + (ties ? " unit-w" : " random-w");
    expect_ratios_match(g, prod, ref, reach, all_nodes(g), label);
    for (const double density : {0.08, 1.0}) {
      const DemandMatrix dm = random_demand(g, reach, density, rng);
      expect_simulations_match(g, prod, &ref, dm,
                               label + " density " + std::to_string(density));
    }
  }
}

TEST_P(RoutingDifferential, PerDestinationSoftminMatchesPerPairTranslation) {
  const auto cases = graph_family();
  const GraphCase& c = cases[static_cast<std::size_t>(GetParam())];
  const DiGraph& g = c.g;
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) + 8000);
  const auto reach = reachability(g);
  std::vector<std::vector<double>> rows(static_cast<std::size_t>(g.num_nodes()));
  for (auto& row : rows) {
    // Some destinations keep the unit-weight fallback (empty row).
    if (rng.uniform(0.0, 1.0) < 0.8) row = random_weights(g, rng);
  }
  const Routing prod = softmin_routing_per_destination(g, rows, {});
  // The per-pair reference translates one weight vector for every pair,
  // so it is run once per sampled destination with that destination's row.
  const int samples = g.num_nodes() <= 30 ? g.num_nodes() : 3;
  for (int i = 0; i < samples; ++i) {
    const NodeId t =
        g.num_nodes() <= 30
            ? i
            : static_cast<NodeId>(rng.uniform_index(
                  static_cast<std::uint64_t>(g.num_nodes())));
    const auto& row = rows[static_cast<std::size_t>(t)];
    const PairRouting ref = reference::softmin_routing_generic(
        g, row.empty() ? graph::unit_weights(g) : row, {},
        PruneMode::kDistanceToSink);
    expect_ratios_match(g, prod, ref, reach, {t},
                        c.name + " dest " + std::to_string(t));
  }
  for (const double density : {0.08, 1.0}) {
    expect_simulations_match(g, prod, nullptr,
                             random_demand(g, reach, density, rng),
                             c.name + " per-destination");
  }
}

TEST_P(RoutingDifferential, BaselinesSimulateLikePerPair) {
  const auto cases = graph_family();
  const GraphCase& c = cases[static_cast<std::size_t>(GetParam())];
  const DiGraph& g = c.g;
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) + 9000);
  const auto reach = reachability(g);
  const auto w = random_weights(g, rng);
  for (const double density : {0.08, 1.0}) {
    const DemandMatrix dm = random_demand(g, reach, density, rng);
    expect_simulations_match(g, shortest_path_routing(g, w), nullptr, dm,
                             c.name + " shortest-path");
    expect_simulations_match(g, ecmp_routing(g, graph::unit_weights(g)),
                             nullptr, dm, c.name + " ECMP");
    expect_simulations_match(g, min_mean_utilisation_routing(g), nullptr, dm,
                             c.name + " min-mean-util");
  }
  // The LP-derived routing, on graphs small enough for the dense simplex.
  if (g.num_nodes() <= 16) {
    const DemandMatrix dm = random_demand(g, reach, 0.3, rng);
    mcf::SolveOptions exact;
    exact.allow_fptas_fallback = false;
    const mcf::OptimalResult opt = mcf::solve_optimal(g, dm, exact);
    ASSERT_TRUE(opt.feasible) << c.name;
    expect_simulations_match(g, routing_from_dest_flows(g, opt.flow_by_dest),
                             nullptr, dm, c.name + " LP-derived");
  }
}

TEST(RoutingDifferentialCatalogue, DownhillSoftminMatchesPerPairTranslation) {
  util::Rng rng(6100);
  for (const auto& name : topo::catalogue_names()) {
    const DiGraph g = topo::by_name(name);
    const auto reach = reachability(g);
    const auto w = random_weights(g, rng);
    const Routing prod = softmin_routing(g, w);
    const PairRouting ref = reference::softmin_routing_generic(
        g, w, SoftminOptions{}, PruneMode::kDistanceToSink);
    expect_ratios_match(g, prod, ref, reach, all_nodes(g), name);
    expect_simulations_match(g, prod, &ref,
                             random_demand(g, reach, 0.25, rng), name);
  }
}

INSTANTIATE_TEST_SUITE_P(Family, RoutingDifferential,
                         ::testing::Range(0, static_cast<int>(
                                                 graph_family().size())));

// ---------------- verdict parity ----------------

struct Verdicts {
  bool valid = false;
  bool serving = false;
  bool simulates = false;
};

Verdicts production_verdicts(const DiGraph& g, const Routing& r,
                             const DemandMatrix& dm) {
  Verdicts v;
  std::string error;
  v.valid = validate(g, r, dm, &error);
  v.serving = validate_for_serving(g, r, dm, &error);
  try {
    simulate(g, r, dm);
    v.simulates = true;
  } catch (const std::runtime_error&) {
  }
  return v;
}

Verdicts reference_verdicts(const DiGraph& g, const PairRouting& r,
                            const DemandMatrix& dm) {
  Verdicts v;
  std::string error;
  v.valid = reference::validate(g, r, dm, &error);
  v.serving = reference::validate_for_serving(g, r, dm, &error);
  try {
    reference::simulate(g, r, dm);
    v.simulates = true;
  } catch (const std::runtime_error&) {
  }
  return v;
}

enum class Corruption { kNaN, kOutOfRange, kOutOfDestination, kLeakOrLoop };

// Plants one corruption of `kind` in row t of `r`.
void corrupt(const DiGraph& g, Routing& r, NodeId t, Corruption kind,
             util::Rng& rng) {
  auto row = r.mutable_dest_ratios(t);
  const auto pick = [&](std::size_t n) {
    return static_cast<std::size_t>(
        rng.uniform_index(static_cast<std::uint64_t>(n)));
  };
  const auto random_edge = [&] {
    return static_cast<EdgeId>(pick(static_cast<std::size_t>(g.num_edges())));
  };
  switch (kind) {
    case Corruption::kNaN:
      row[static_cast<std::size_t>(random_edge())] =
          std::numeric_limits<double>::quiet_NaN();
      break;
    case Corruption::kOutOfRange:
      row[static_cast<std::size_t>(random_edge())] =
          rng.uniform(0.0, 1.0) < 0.5 ? 1.5 : -0.25;
      break;
    case Corruption::kOutOfDestination: {
      const auto outs = g.out_edges(t);
      if (outs.empty()) break;
      row[static_cast<std::size_t>(outs[pick(outs.size())])] = 0.5;
      break;
    }
    case Corruption::kLeakOrLoop: {
      // Halve a positive ratio (a leaky row), or route an edge that points
      // back up the DAG (a loop) — either way at a random edge.
      const EdgeId e = random_edge();
      double& ratio = row[static_cast<std::size_t>(e)];
      if (ratio > 0.0) {
        ratio *= 0.5;
      } else {
        ratio = 1.0;
      }
      break;
    }
  }
}

TEST(RoutingVerdictParity, CorruptedRoutingsGetThePerPairVerdict) {
  util::Rng rng(4242);
  const auto cases = graph_family();
  int rejected[4] = {};
  int accepted[4] = {};
  for (const auto& c : cases) {
    if (c.g.num_nodes() > 30) continue;
    const DiGraph& g = c.g;
    const auto reach = reachability(g);
    const Routing clean = softmin_routing(g, random_weights(g, rng));
    for (int rep = 0; rep < 24; ++rep) {
      const auto kind = static_cast<Corruption>(rep % 4);
      Routing r = clean;
      const auto t = static_cast<NodeId>(
          rng.uniform_index(static_cast<std::uint64_t>(g.num_nodes())));
      corrupt(g, r, t, kind, rng);
      // Sparse demand often misses the corrupted destination or vertex,
      // so both accepting and rejecting verdicts occur.
      const DemandMatrix dm =
          random_demand(g, reach, rep % 3 == 0 ? 1.0 : 0.1, rng);
      const Verdicts prod = production_verdicts(g, r, dm);
      const Verdicts ref =
          reference_verdicts(g, reference::broadcast(r), dm);
      const std::string label =
          c.name + " rep " + std::to_string(rep) + " dest " +
          std::to_string(t);
      EXPECT_EQ(prod.valid, ref.valid) << label << " validate";
      EXPECT_EQ(prod.serving, ref.serving)
          << label << " validate_for_serving";
      EXPECT_EQ(prod.simulates, ref.simulates) << label << " simulate";
      const bool all_accept = prod.valid && prod.serving && prod.simulates;
      ++(all_accept ? accepted : rejected)[static_cast<int>(kind)];
    }
  }
  // Every corruption kind was both caught and (where no traffic saw it)
  // let through somewhere in the sweep, so the parity above is not vacuous.
  for (int k = 0; k < 4; ++k) {
    EXPECT_GT(rejected[k], 0) << "corruption kind " << k;
    EXPECT_GT(accepted[k], 0) << "corruption kind " << k;
  }
}

TEST(RoutingVerdictParity, IgnoresZeroDemandFlows) {
  // A corrupted row with no demand toward it is accepted by every checker,
  // per destination exactly as per pair.
  util::Rng rng(77);
  const DiGraph g = topo::erdos_renyi(10, 0.3, rng);
  const DemandMatrix zero(g.num_nodes());
  for (int k = 0; k < 4; ++k) {
    Routing r = softmin_routing(g, random_weights(g, rng));
    corrupt(g, r, 3, static_cast<Corruption>(k), rng);
    const Verdicts prod = production_verdicts(g, r, zero);
    const Verdicts ref = reference_verdicts(g, reference::broadcast(r), zero);
    EXPECT_TRUE(prod.valid && prod.serving && prod.simulates) << k;
    EXPECT_EQ(prod.valid, ref.valid);
    EXPECT_EQ(prod.serving, ref.serving);
    EXPECT_EQ(prod.simulates, ref.simulates);
  }
}

}  // namespace
}  // namespace gddr::routing
