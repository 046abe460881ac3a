#include "routing/softmin.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string_view>

#include "graph/algorithms.hpp"
#include "routing/routing_invariants.hpp"
#include "routing/sweep.hpp"
#include "util/contract.hpp"

namespace gddr::routing {

using graph::DiGraph;
using graph::EdgeId;
using graph::NodeId;
using traffic::DemandMatrix;

namespace {

// softmin(x) into `out` (same size as x, x non-empty, gamma > 0).
void softmin_into(std::span<const double> x, double gamma,
                  std::span<double> out) {
  const double lo = *std::min_element(x.begin(), x.end());
  double sum = 0.0;
  for (size_t i = 0; i < x.size(); ++i) {
    // exp(-0) is exactly 1, so the minimum needs no exp call.
    out[i] = x[i] == lo ? 1.0 : std::exp(-gamma * (x[i] - lo));
    sum += out[i];
  }
  for (double& v : out) v /= sum;
}

}  // namespace

std::vector<double> softmin(std::span<const double> x, double gamma) {
  if (x.empty()) throw std::invalid_argument("softmin: empty input");
  if (!(gamma > 0.0)) throw std::invalid_argument("softmin: gamma <= 0");
  std::vector<double> out(x.size());
  softmin_into(x, gamma, out);
  return out;
}

namespace {

constexpr double kTieTol = 1e-12;

// Buffers reused by every destination of one translation.
struct Workspace {
  graph::DijkstraWorkspace paths;
  // The current vertex's downhill out-edges, their softmin inputs and
  // their shares; sized to the largest out-degree.
  std::vector<EdgeId> out;
  std::vector<double> cost;
  std::vector<double> share;
  sweep::Buffers traffic;  // the destination's demand being swept
};

// Writes v's shares into `row` (row t): softmin(edge weight + distance to
// t) over v's downhill out-edges, those that strictly decrease the
// distance to t.  The downhill DAG depends only on t, and restricting it
// to s->t paths (the per-flow view) only removes edges at vertices
// unreachable from s, vertices that carry no traffic of flow (s,t) anyway,
// so one row serves every source.  Needs the final distances of v's
// downhill neighbours.
void write_shares(const DiGraph& g, [[maybe_unused]] NodeId t, NodeId v,
                  const std::vector<double>& weights,
                  const SoftminOptions& options, Workspace& ws,
                  std::span<double> row) {
  const auto& dist = ws.paths.dist();
  const double dv = dist[static_cast<size_t>(v)];
  size_t k = 0;
  for (EdgeId e : g.out_edges(v)) {
    const double du = dist[static_cast<size_t>(g.edge(e).dst)];
    // Downhill filter: strictly decreasing distance to the sink (an
    // unreachable neighbour's infinite distance never passes).  Written
    // without a branch: every edge is stored, and only a downhill one
    // advances k.
    ws.out[k] = e;
    ws.cost[k] = weights[static_cast<size_t>(e)] + du;
    k += dv > du + kTieTol ? 1 : 0;
  }
  if (k == 0) return;
  // One downhill edge takes everything: softmin gives it exactly 1, and
  // the floor cannot change that.
  if (k == 1) {
    row[static_cast<size_t>(ws.out[0])] = 1.0;
    return;
  }
  const std::span<const double> cost(ws.cost.data(), k);
  const std::span<double> ratios(ws.share.data(), k);
  softmin_into(cost, options.gamma, ratios);
  double sum = 0.0;
  for (double& r : ratios) {
    if (r < options.ratio_floor) r = 0.0;
    sum += r;
  }
  if (sum <= 0.0) {
    const auto best = static_cast<size_t>(
        std::min_element(cost.begin(), cost.end()) - cost.begin());
    std::fill(ratios.begin(), ratios.end(), 0.0);
    ratios[best] = 1.0;
    sum = 1.0;
  }
  // The renormalised shares form one splitting row; it must be
  // row-stochastic or downstream simulation loses traffic at v.
  GDDR_VALIDATE([&] {
    std::vector<double> shares(k);
    for (size_t i = 0; i < k; ++i) shares[i] = ratios[i] / sum;
    double row_sum = 0.0;
    if (!util::contract::row_stochastic(shares, 1e-9, &row_sum)) {
      util::contract::violate_invariant(
          "softmin shares are row-stochastic", "routing/softmin/row",
          util::contract::describe("dest", t, "vertex", v, "row_sum",
                                   row_sum));
    }
  }());
  // Each share is r / sum with r <= sum, so it lies in [0, 1].
  for (size_t i = 0; i < k; ++i) {
    const double share = ratios[i] / sum;
    if (share > 0.0) row[static_cast<size_t>(ws.out[i])] = share;
  }
}

// One destination t: a reverse Dijkstra toward t, then, in reverse settle
// order, each vertex's row-t shares and, when `dm` is given, the pull of
// t's demand into the vertex.  A share goes only to an edge toward a
// vertex that settled earlier (strictly smaller distance), so reverse
// settle order is a topological order of row t's positive-ratio edges:
// when a vertex pulls, the sources of its in-edges have their shares
// written and their traffic final.  No loop check is needed.  A vertex
// that cannot reach t never settles and gets no shares; demand injected
// there is never delivered, which the conservation check reports.
void sweep_destination(const DiGraph& g, NodeId t,
                       const std::vector<double>& weights,
                       const SoftminOptions& options, const DemandMatrix* dm,
                       Workspace& ws, SoftminSimulation& out,
                       double& injected) {
  const bool pulls =
      dm != nullptr && sweep::inject(*dm, t, ws.traffic, injected);
  ws.paths.run(g, t, weights, /*reverse=*/true);
  const std::span<double> row = out.routing.mutable_dest_ratios(t);
  const auto& order = ws.paths.settle_order();
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    if (*it != t) write_shares(g, t, *it, weights, options, ws, row);
    if (pulls) sweep::pull(g, row, t, *it, ws.traffic, out.sim.link_load);
  }
  if (pulls) out.sim.delivered += ws.traffic.through[static_cast<size_t>(t)];
}

// Translates every destination t with the weights `weights_for(t)` and,
// when `dm` is given, simulates it under strict SimulateOptions.  The
// weights must already be checked.
template <class WeightsFor>
SoftminSimulation translate(const DiGraph& g, const WeightsFor& weights_for,
                            const SoftminOptions& options,
                            const DemandMatrix* dm,
                            [[maybe_unused]] std::string_view label) {
  if (dm != nullptr && dm->num_nodes() != g.num_nodes()) {
    throw std::invalid_argument("softmin_simulate: demand size mismatch");
  }
  SoftminSimulation out{Routing(g.num_nodes(), g.num_edges()), {}};
  Workspace ws;
  size_t max_degree = 0;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    max_degree = std::max(max_degree, g.out_edges(v).size());
  }
  ws.out.resize(max_degree);
  ws.cost.resize(max_degree);
  ws.share.resize(max_degree);
  double injected = 0.0;
  if (dm != nullptr) {
    out.sim.link_load.assign(static_cast<size_t>(g.num_edges()), 0.0);
  }
  for (NodeId t = 0; t < g.num_nodes(); ++t) {
    sweep_destination(g, t, weights_for(t), options, dm, ws, out, injected);
  }
  GDDR_VALIDATE(check_softmin_routing(g, out.routing, 1e-9, label));
  if (dm != nullptr) sweep::finish(g, injected, SimulateOptions{}, out.sim);
  return out;
}

SoftminSimulation translate_one(const DiGraph& g,
                                const std::vector<double>& weights,
                                const SoftminOptions& options,
                                const DemandMatrix* dm) {
  if (weights.size() != static_cast<size_t>(g.num_edges())) {
    throw std::invalid_argument("softmin_routing: weight size mismatch");
  }
  graph::check_weights(g, weights);
  return translate(
      g, [&](NodeId) -> const std::vector<double>& { return weights; },
      options, dm, "routing/softmin/downhill");
}

SoftminSimulation translate_per_destination(
    const DiGraph& g, const std::vector<std::vector<double>>& weights_by_dest,
    const SoftminOptions& options, const DemandMatrix* dm) {
  if (weights_by_dest.size() != static_cast<size_t>(g.num_nodes())) {
    throw std::invalid_argument(
        "softmin_routing_per_destination: need one weight row per node");
  }
  for (const auto& row : weights_by_dest) {
    if (row.empty()) continue;
    if (row.size() != static_cast<size_t>(g.num_edges())) {
      throw std::invalid_argument(
          "softmin_routing_per_destination: weight row size mismatch");
    }
    graph::check_weights(g, row);
  }
  const std::vector<double> unit(static_cast<size_t>(g.num_edges()), 1.0);
  return translate(
      g,
      [&](NodeId t) -> const std::vector<double>& {
        const auto& row = weights_by_dest[static_cast<size_t>(t)];
        return row.empty() ? unit : row;
      },
      options, dm, "routing/softmin/per-destination");
}

}  // namespace

Routing softmin_routing(const DiGraph& g, const std::vector<double>& weights,
                        const SoftminOptions& options) {
  return translate_one(g, weights, options, nullptr).routing;
}

Routing softmin_routing(const DiGraph& g,
                        const std::vector<double>& weights) {
  return softmin_routing(g, weights, SoftminOptions{});
}

Routing softmin_routing_per_destination(
    const DiGraph& g, const std::vector<std::vector<double>>& weights_by_dest,
    const SoftminOptions& options) {
  return translate_per_destination(g, weights_by_dest, options, nullptr)
      .routing;
}

SoftminSimulation softmin_simulate(const DiGraph& g,
                                   const std::vector<double>& weights,
                                   const SoftminOptions& options,
                                   const DemandMatrix& dm) {
  return translate_one(g, weights, options, &dm);
}

SoftminSimulation softmin_simulate_per_destination(
    const DiGraph& g, const std::vector<std::vector<double>>& weights_by_dest,
    const SoftminOptions& options, const DemandMatrix& dm) {
  return translate_per_destination(g, weights_by_dest, options, &dm);
}

std::vector<double> weights_from_actions(std::span<const double> actions,
                                         double min_weight,
                                         double max_weight) {
  if (!(min_weight > 0.0) || !(max_weight > min_weight)) {
    throw std::invalid_argument("weights_from_actions: bad weight range");
  }
  std::vector<double> weights(actions.size());
  for (size_t i = 0; i < actions.size(); ++i) {
    const double a = std::clamp(actions[i], -1.0, 1.0);
    weights[i] = min_weight + (a + 1.0) * 0.5 * (max_weight - min_weight);
  }
  return weights;
}

}  // namespace gddr::routing
