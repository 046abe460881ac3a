#include "mcf/optimal.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "graph/algorithms.hpp"
#include "lp/simplex.hpp"
#include "mcf/fptas.hpp"
#include "mcf/mcf_invariants.hpp"
#include "util/contract.hpp"
#include "util/fault.hpp"

namespace gddr::mcf {

using graph::DiGraph;
using graph::EdgeId;
using graph::NodeId;
using traffic::DemandMatrix;

const char* to_string(SolveProvenance provenance) {
  switch (provenance) {
    case SolveProvenance::kExact:
      return "exact";
    case SolveProvenance::kApproximate:
      return "approximate";
    case SolveProvenance::kFailed:
      return "failed";
  }
  return "unknown";
}

std::vector<std::vector<double>> CongestionLp::flows(
    const lp::Solution& solution) const {
  std::vector<std::vector<double>> flow_by_dest(block_start.size());
  for (NodeId t : dests) {
    auto& row = flow_by_dest[static_cast<size_t>(t)];
    row.resize(static_cast<size_t>(num_edges));
    for (EdgeId e = 0; e < num_edges; ++e) {
      row[static_cast<size_t>(e)] =
          solution.x[static_cast<size_t>(x_var(t, e))];
    }
  }
  return flow_by_dest;
}

namespace {

// Crash pivots for `lp` (see CongestionLp::start); empty when a node cannot
// reach some destination with demand.
std::vector<lp::CrashPivot> shortest_path_tree_start(
    const DiGraph& g, const DemandMatrix& dm, const CongestionLp& lp) {
  const int n = g.num_nodes();
  const int ne = g.num_edges();
  if (ne == 0) return {};
  const auto hops = graph::unit_weights(g);
  std::vector<lp::CrashPivot> start;
  std::vector<double> load(static_cast<size_t>(ne), 0.0);
  std::vector<NodeId> deepest_first(static_cast<size_t>(n));
  std::vector<double> subtree(static_cast<size_t>(n));
  for (size_t block = 0; block < lp.dests.size(); ++block) {
    const NodeId t = lp.dests[block];
    const graph::ShortestPaths tree = graph::dijkstra_to(g, t, hops);
    for (NodeId v = 0; v < n; ++v) {
      if (tree.dist[static_cast<size_t>(v)] == graph::kInfDist) return {};
      deepest_first[static_cast<size_t>(v)] = v;
      subtree[static_cast<size_t>(v)] = v == t ? 0.0 : dm.at(v, t);
    }
    std::stable_sort(deepest_first.begin(), deepest_first.end(),
                     [&](NodeId a, NodeId b) {
                       return tree.dist[static_cast<size_t>(a)] >
                              tree.dist[static_cast<size_t>(b)];
                     });
    // Children precede their parent, so each subtree total is complete
    // when its root's tree edge takes it.
    const int first_row = static_cast<int>(block) * (n - 1);
    for (NodeId v : deepest_first) {
      if (v == t) continue;
      const EdgeId e = tree.parent_edge[static_cast<size_t>(v)];
      start.push_back({first_row + (v < t ? v : v - 1), lp.x_var(t, e)});
      load[static_cast<size_t>(e)] += subtree[static_cast<size_t>(v)];
      subtree[static_cast<size_t>(g.edge(e).dst)] +=
          subtree[static_cast<size_t>(v)];
    }
  }
  EdgeId busiest = 0;
  for (EdgeId e = 1; e < ne; ++e) {
    if (load[static_cast<size_t>(e)] * g.edge(busiest).capacity >
        load[static_cast<size_t>(busiest)] * g.edge(e).capacity) {
      busiest = e;
    }
  }
  const int capacity_rows = static_cast<int>(lp.dests.size()) * (n - 1);
  start.push_back({capacity_rows + busiest, lp.u_var});
  return start;
}

}  // namespace

CongestionLp build_congestion_lp(const DiGraph& g, const DemandMatrix& dm) {
  if (dm.num_nodes() != g.num_nodes()) {
    throw std::invalid_argument(
        "build_congestion_lp: demand/graph size mismatch");
  }
  const int n = g.num_nodes();
  const int ne = g.num_edges();
  CongestionLp lp;
  lp.num_edges = ne;
  lp.block_start.assign(static_cast<size_t>(n), -1);
  // Destinations that actually receive traffic.
  for (NodeId t = 0; t < n; ++t) {
    if (dm.in_sum(t) > 0.0) lp.dests.push_back(t);
  }
  if (lp.dests.empty()) return lp;

  lp.u_var = lp.program.add_variable(1.0);  // minimise U_max
  // x[t][e] laid out per destination block.
  for (NodeId t : lp.dests) {
    lp.block_start[static_cast<size_t>(t)] = lp.program.num_variables();
    for (EdgeId e = 0; e < ne; ++e) lp.program.add_variable(0.0);
  }

  // Conservation: net outflow of traffic-to-t at v equals D[v][t], v != t.
  for (NodeId t : lp.dests) {
    for (NodeId v = 0; v < n; ++v) {
      if (v == t) continue;
      std::vector<std::pair<int, double>> terms;
      for (EdgeId e : g.out_edges(v)) terms.emplace_back(lp.x_var(t, e), 1.0);
      for (EdgeId e : g.in_edges(v)) terms.emplace_back(lp.x_var(t, e), -1.0);
      lp.program.add_constraint(terms, lp::Relation::kEq, dm.at(v, t));
    }
  }
  // Capacity: total flow on e at most U * c(e).
  for (EdgeId e = 0; e < ne; ++e) {
    std::vector<std::pair<int, double>> terms;
    terms.emplace_back(lp.u_var, -g.edge(e).capacity);
    for (NodeId t : lp.dests) terms.emplace_back(lp.x_var(t, e), 1.0);
    lp.program.add_constraint(terms, lp::Relation::kLe, 0.0);
  }
  lp.start = shortest_path_tree_start(g, dm, lp);
  return lp;
}

OptimalResult solve_optimal(const DiGraph& g, const DemandMatrix& dm,
                            const SolveOptions& options) {
  if (dm.num_nodes() != g.num_nodes()) {
    throw std::invalid_argument("solve_optimal: demand/graph size mismatch");
  }
  const CongestionLp lp = build_congestion_lp(g, dm);

  OptimalResult result;
  result.flow_by_dest.assign(static_cast<size_t>(g.num_nodes()), {});
  if (lp.dests.empty()) {
    result.feasible = true;
    result.provenance = SolveProvenance::kExact;
    result.u_max = 0.0;
    return result;
  }

  // Fault injection (site lp_solve) simulates a simplex breakdown so
  // tests can exercise the fallback chain deterministically.
  lp::Solution sol;
  if (util::inject(util::FaultSite::kLpSolve)) {
    sol.status = lp::SolveStatus::kIterationLimit;
  } else {
    lp::LinearProgram::Options lp_options;
    lp_options.max_iterations = options.max_simplex_iterations;
    sol = lp.program.solve(lp_options, lp.start);
  }

  if (sol.status == lp::SolveStatus::kInfeasible) {
    // Unroutable demand: the FPTAS cannot route it either, so this is a
    // genuine failure, not a fallback case.
    result.feasible = false;
    result.provenance = SolveProvenance::kFailed;
    return result;
  }
  if (sol.status != lp::SolveStatus::kOptimal) {
    // Iteration budget exhausted, numerical stall or injected fault —
    // degrade to the Fleischer FPTAS.  It yields only U_max (no flow
    // decomposition), within a 1/(1 - 3*eps) factor of optimal.
    if (options.allow_fptas_fallback) {
      FptasOptions fptas;
      fptas.epsilon = options.fptas_epsilon;
      const double u_approx = approx_optimal_u_max(g, dm, fptas);
      if (std::isfinite(u_approx) && u_approx > 0.0) {
        result.feasible = true;
        result.provenance = SolveProvenance::kApproximate;
        result.u_max = u_approx;
        return result;
      }
    }
    result.feasible = false;
    result.provenance = SolveProvenance::kFailed;
    return result;
  }
  result.feasible = true;
  result.provenance = SolveProvenance::kExact;
  result.u_max = sol.x[static_cast<size_t>(lp.u_var)];
  result.flow_by_dest = lp.flows(sol);
  // The exact solution must route exactly the demand (conservation) and
  // report the busiest edge of its own decomposition as U_max.
  GDDR_VALIDATE(check_flow_conservation(g, dm, result, 1e-6,
                                        "mcf/optimal/conservation"));
  GDDR_VALIDATE(check_umax_consistency(g, result, 1e-6,
                                       "mcf/optimal/umax"));
  return result;
}

double solve_optimal_per_commodity(const DiGraph& g, const DemandMatrix& dm) {
  if (dm.num_nodes() != g.num_nodes()) {
    throw std::invalid_argument("per-commodity: demand/graph size mismatch");
  }
  const int n = g.num_nodes();
  const int ne = g.num_edges();

  struct Commodity {
    NodeId s;
    NodeId t;
    double d;
  };
  std::vector<Commodity> commodities;
  for (NodeId s = 0; s < n; ++s) {
    for (NodeId t = 0; t < n; ++t) {
      if (s != t && dm.at(s, t) > 0.0) {
        commodities.push_back({s, t, dm.at(s, t)});
      }
    }
  }
  if (commodities.empty()) return 0.0;

  lp::LinearProgram prog;
  const int u_var = prog.add_variable(1.0);
  std::vector<int> block(commodities.size());
  for (size_t i = 0; i < commodities.size(); ++i) {
    block[i] = prog.num_variables();
    for (EdgeId e = 0; e < ne; ++e) prog.add_variable(0.0);
  }
  auto fvar = [&](size_t i, EdgeId e) { return block[i] + e; };

  for (size_t i = 0; i < commodities.size(); ++i) {
    const auto& c = commodities[i];
    for (NodeId v = 0; v < n; ++v) {
      if (v == c.t) continue;  // sink absorption implied
      std::vector<std::pair<int, double>> terms;
      for (EdgeId e : g.out_edges(v)) terms.emplace_back(fvar(i, e), 1.0);
      for (EdgeId e : g.in_edges(v)) terms.emplace_back(fvar(i, e), -1.0);
      const double rhs = (v == c.s) ? c.d : 0.0;
      prog.add_constraint(terms, lp::Relation::kEq, rhs);
    }
  }
  for (EdgeId e = 0; e < ne; ++e) {
    std::vector<std::pair<int, double>> terms;
    terms.emplace_back(u_var, -g.edge(e).capacity);
    for (size_t i = 0; i < commodities.size(); ++i) {
      terms.emplace_back(fvar(i, e), 1.0);
    }
    prog.add_constraint(terms, lp::Relation::kLe, 0.0);
  }

  const lp::Solution sol = prog.solve();
  if (sol.status != lp::SolveStatus::kOptimal) {
    throw std::runtime_error("per-commodity LP not optimal: " +
                             lp::to_string(sol.status));
  }
  return sol.x[static_cast<size_t>(u_var)];
}

std::vector<double> edge_utilisation(const DiGraph& g,
                                     const OptimalResult& result) {
  std::vector<double> util(static_cast<size_t>(g.num_edges()), 0.0);
  for (const auto& row : result.flow_by_dest) {
    for (size_t e = 0; e < row.size(); ++e) util[e] += row[e];
  }
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    util[static_cast<size_t>(e)] /= g.edge(e).capacity;
  }
  return util;
}

}  // namespace gddr::mcf
