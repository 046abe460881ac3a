#include "routing/softmin.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "graph/algorithms.hpp"
#include "routing/routing_invariants.hpp"
#include "util/contract.hpp"

namespace gddr::routing {

using graph::DiGraph;
using graph::EdgeId;
using graph::NodeId;

std::vector<double> softmin(std::span<const double> x, double gamma) {
  if (x.empty()) throw std::invalid_argument("softmin: empty input");
  if (!(gamma > 0.0)) throw std::invalid_argument("softmin: gamma <= 0");
  const double lo = *std::min_element(x.begin(), x.end());
  std::vector<double> out(x.size());
  double sum = 0.0;
  for (size_t i = 0; i < x.size(); ++i) {
    out[i] = std::exp(-gamma * (x[i] - lo));
    sum += out[i];
  }
  for (double& v : out) v /= sum;
  return out;
}

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Writes row t: the splitting ratios toward `t` under the downhill DAG
// induced by `weights`.  The downhill DAG depends only on the destination,
// and restricting it to s->t paths (the per-flow view) only removes edges
// at vertices unreachable from s — vertices that carry no traffic of flow
// (s,t) anyway — so one row serves every source.  Vertices that cannot
// reach t get no ratios.
void fill_destination_ratios(const DiGraph& g, NodeId t,
                             const std::vector<double>& weights,
                             const SoftminOptions& options,
                             Routing& routing) {
  constexpr double kTieTol = 1e-12;
  const auto sp = graph::dijkstra_to(g, t, weights);
  const auto& dist = sp.dist;
  std::vector<EdgeId> out;
  std::vector<double> cost;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (v == t || dist[static_cast<size_t>(v)] == kInf) continue;
    out.clear();
    cost.clear();
    for (EdgeId e : g.out_edges(v)) {
      const NodeId u = g.edge(e).dst;
      if (dist[static_cast<size_t>(u)] == kInf) continue;
      // Downhill filter: strictly decreasing distance to the sink.
      if (!(dist[static_cast<size_t>(v)] >
            dist[static_cast<size_t>(u)] + kTieTol)) {
        continue;
      }
      out.push_back(e);
      cost.push_back(weights[static_cast<size_t>(e)] +
                     dist[static_cast<size_t>(u)]);
    }
    if (out.empty()) continue;
    std::vector<double> ratios = softmin(cost, options.gamma);
    double sum = 0.0;
    for (double& r : ratios) {
      if (r < options.ratio_floor) r = 0.0;
      sum += r;
    }
    if (sum <= 0.0) {
      const size_t best = static_cast<size_t>(
          std::min_element(cost.begin(), cost.end()) - cost.begin());
      std::fill(ratios.begin(), ratios.end(), 0.0);
      ratios[best] = 1.0;
      sum = 1.0;
    }
    // The renormalised shares form one splitting row; it must be
    // row-stochastic or downstream simulation loses traffic at v.
    GDDR_VALIDATE([&] {
      std::vector<double> shares(out.size());
      for (size_t i = 0; i < out.size(); ++i) shares[i] = ratios[i] / sum;
      double row_sum = 0.0;
      if (!util::contract::row_stochastic(shares, 1e-9, &row_sum)) {
        util::contract::violate_invariant(
            "softmin shares are row-stochastic", "routing/softmin/row",
            util::contract::describe("dest", t, "vertex", v, "row_sum",
                                     row_sum));
      }
    }());
    for (size_t i = 0; i < out.size(); ++i) {
      const double share = ratios[i] / sum;
      if (share > 0.0) routing.set_ratio(t, out[i], share);
    }
  }
}

}  // namespace

Routing softmin_routing_per_destination(
    const DiGraph& g, const std::vector<std::vector<double>>& weights_by_dest,
    const SoftminOptions& options) {
  if (weights_by_dest.size() != static_cast<size_t>(g.num_nodes())) {
    throw std::invalid_argument(
        "softmin_routing_per_destination: need one weight row per node");
  }
  const std::vector<double> unit(static_cast<size_t>(g.num_edges()), 1.0);
  Routing routing(g.num_nodes(), g.num_edges());
  for (NodeId t = 0; t < g.num_nodes(); ++t) {
    const auto& row = weights_by_dest[static_cast<size_t>(t)];
    if (!row.empty() && row.size() != static_cast<size_t>(g.num_edges())) {
      throw std::invalid_argument(
          "softmin_routing_per_destination: weight row size mismatch");
    }
    fill_destination_ratios(g, t, row.empty() ? unit : row, options,
                            routing);
  }
  GDDR_VALIDATE(check_softmin_routing(g, routing, 1e-9,
                                      "routing/softmin/per-destination"));
  return routing;
}

Routing softmin_routing(const DiGraph& g, const std::vector<double>& weights,
                        const SoftminOptions& options) {
  if (weights.size() != static_cast<size_t>(g.num_edges())) {
    throw std::invalid_argument("softmin_routing: weight size mismatch");
  }
  Routing routing(g.num_nodes(), g.num_edges());
  for (NodeId t = 0; t < g.num_nodes(); ++t) {
    fill_destination_ratios(g, t, weights, options, routing);
  }
  GDDR_VALIDATE(
      check_softmin_routing(g, routing, 1e-9, "routing/softmin/downhill"));
  return routing;
}

Routing softmin_routing(const DiGraph& g,
                        const std::vector<double>& weights) {
  return softmin_routing(g, weights, SoftminOptions{});
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
