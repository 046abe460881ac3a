// Optimal multicommodity-flow congestion (paper §II-A, §V-A).
//
// The reward in the GDDR environment compares the agent's max link
// utilisation against the optimum U*_max achievable by any splittable
// routing of the demand matrix.  The paper computes U*_max with an LP on
// top of Google OR-Tools; here the LP is built on src/lp's simplex.
//
// Two formulations are provided:
//
//  * solve_optimal: destination-aggregated.  For each destination t a flow
//    variable x_t(e) carries *all* traffic destined to t on edge e; per-node
//    conservation injects D[v][t] at every v != t.  This is exact for
//    splittable min-max-utilisation MCF (commodities to the same sink can
//    be merged without changing link totals, and any merged flow can be
//    decomposed back per-source) and has |V||E| variables instead of
//    |V|^2|E|.  build_congestion_lp constructs it together with a crash
//    start: routing every destination's demand along a hop-count
//    shortest-path in-tree is a feasible basis, so the simplex skips
//    phase 1 and goes straight to optimising U_max.
//
//  * solve_optimal_per_commodity: the textbook per-(s,t) formulation from
//    the paper's §II-A, exponentially larger; used in tests to validate the
//    aggregated formulation.
#pragma once

#include <vector>

#include "graph/digraph.hpp"
#include "lp/simplex.hpp"
#include "traffic/demand.hpp"

namespace gddr::mcf {

// How a result was obtained — part of the solver fallback chain.  A
// simplex failure (iteration budget, numerical stall, injected fault) no
// longer aborts an experiment: solve_optimal degrades to the Fleischer
// FPTAS and tags the result so callers can distinguish an exact optimum
// from an approximation instead of receiving an exception.
enum class SolveProvenance {
  kExact,        // simplex reached a proven optimum
  kApproximate,  // FPTAS fallback; u_max within its (1 - 3eps) guarantee
  kFailed,       // neither solver produced a usable value
};

const char* to_string(SolveProvenance provenance);

struct SolveOptions {
  // Simplex iteration budget (0 = automatic from problem size).  When the
  // budget is exhausted the fallback chain engages.
  std::size_t max_simplex_iterations = 0;
  // Disable to make solve_optimal exact-only (callers that need
  // flow_by_dest, which the FPTAS cannot provide).
  bool allow_fptas_fallback = true;
  // Approximation parameter of the fallback (see mcf/fptas.hpp).
  double fptas_epsilon = 0.05;
};

struct OptimalResult {
  bool feasible = false;  // provenance != kFailed
  SolveProvenance provenance = SolveProvenance::kFailed;
  // Optimal max link utilisation; may exceed 1 when demand exceeds what
  // the network can carry without over-subscription.  Under kApproximate
  // provenance it lies in [U*, U* / (1 - 3*fptas_epsilon)].
  double u_max = 0.0;
  // flow_by_dest[t][e]: traffic destined to node t crossing edge e in the
  // optimal solution.  Destinations with zero demand have empty rows.
  // Empty under kApproximate provenance (the FPTAS yields only the value).
  std::vector<std::vector<double>> flow_by_dest;
};

// The destination-aggregated congestion LP (minimise U subject to
// per-destination conservation and sum_t x_t(e) <= U * c(e)) and the
// crash start solve_optimal hands the simplex.
struct CongestionLp {
  lp::LinearProgram program;
  // For every destination t with demand, the tree edge x_t(e_v) of the
  // hop-count shortest-path in-tree to t enters conservation row (t, v),
  // deepest nodes first; then U_max enters the capacity row of the edge
  // that tree routing loads most, which leaves every other capacity slack
  // c(e) * U - load(e) >= 0.  Empty when some node cannot reach a
  // destination with demand: the simplex then starts cold.
  std::vector<lp::CrashPivot> start;
  int u_var = -1;
  // Block layout: destinations with demand in block order, and the first
  // variable of each destination's block (-1 for a destination without
  // demand).  Rows follow the same order: conservation rows (t, v) for
  // each t in dests and v != t ascending, then one capacity row per edge.
  std::vector<graph::NodeId> dests;
  std::vector<int> block_start;
  int num_edges = 0;

  int x_var(graph::NodeId t, graph::EdgeId e) const {
    return block_start[static_cast<std::size_t>(t)] + e;
  }
  // flow_by_dest of an optimal solution: row t holds x_t(e) for every
  // destination with demand, other rows stay empty.
  std::vector<std::vector<double>> flows(const lp::Solution& solution) const;
};

CongestionLp build_congestion_lp(const graph::DiGraph& g,
                                 const traffic::DemandMatrix& dm);

// Destination-aggregated optimal congestion LP with FPTAS fallback.
// A genuinely infeasible LP (unroutable demand) is kFailed — no
// approximation can route it either.
OptimalResult solve_optimal(const graph::DiGraph& g,
                            const traffic::DemandMatrix& dm,
                            const SolveOptions& options = {});

// Per-commodity formulation (paper §II-A); test/cross-check use only.
// Returns the optimal U_max.
double solve_optimal_per_commodity(const graph::DiGraph& g,
                                   const traffic::DemandMatrix& dm);

// Per-edge utilisation of the optimal solution (|E| entries).
std::vector<double> edge_utilisation(const graph::DiGraph& g,
                                     const OptimalResult& result);

}  // namespace gddr::mcf
