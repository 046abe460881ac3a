#include "routing/routing.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "graph/algorithms.hpp"
#include "graph/graph_invariants.hpp"
#include "util/contract.hpp"

namespace gddr::routing {

using graph::DiGraph;
using graph::EdgeId;
using graph::NodeId;
using traffic::DemandMatrix;

Routing::Routing(int num_nodes, int num_edges)
    : n_(num_nodes),
      ne_(num_edges),
      ratios_(static_cast<size_t>(num_nodes) * static_cast<size_t>(num_edges),
              0.0) {}

void Routing::set_ratio(int t, EdgeId e, double value) {
  if (value < -1e-12 || value > 1.0 + 1e-12) {
    throw std::invalid_argument("Routing::set_ratio: ratio outside [0,1]");
  }
  ratios_[index(t, e)] = std::clamp(value, 0.0, 1.0);
}

namespace {

// True when flow (s,t) has demand.  Written as !(d <= 0) so that a NaN
// demand counts, exactly as simulate() injects it.
bool has_demand(const DemandMatrix& dm, NodeId s, NodeId t) {
  return s != t && !(dm.at(s, t) <= 0.0);
}

bool has_demand_to(const DemandMatrix& dm, NodeId t) {
  for (NodeId s = 0; s < dm.num_nodes(); ++s) {
    if (has_demand(dm, s, t)) return true;
  }
  return false;
}

// Propagates the per-node injections bound for `t` through row t's
// positive edges, adding to `load`.  The row's edge subgraph must be
// acyclic; a topological sweep in distance order is not available (ratios
// are arbitrary), so Kahn's algorithm runs on the positive-ratio subgraph.
// `node_amount` holds the injections on entry and is consumed.  Returns
// the amount absorbed at t.
double propagate_destination(const DiGraph& g, std::span<const double> ratios,
                             NodeId t, std::vector<double>& node_amount,
                             std::vector<bool>& mask,
                             std::vector<double>& load, bool strict) {
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    mask[static_cast<size_t>(e)] = ratios[static_cast<size_t>(e)] > 0.0;
  }
  const auto order = graph::topological_order(g, mask);
  if (!order.has_value()) {
    if (strict) {
      throw std::runtime_error("simulate: destination " + std::to_string(t) +
                               " has a routing loop");
    }
    return 0.0;
  }
  // Kahn's output must be a valid topological order of the positive-ratio
  // subgraph or the sweep below drops/double-counts traffic.
  GDDR_VALIDATE(graph::check_topological_order(g, mask, *order,
                                               "routing/simulate/toposort"));
  double absorbed = 0.0;
  for (NodeId v : *order) {
    const double a = node_amount[static_cast<size_t>(v)];
    if (a <= 0.0) continue;
    if (v == t) {
      absorbed += a;
      continue;
    }
    for (EdgeId e : g.out_edges(v)) {
      const double r = ratios[static_cast<size_t>(e)];
      if (r <= 0.0) continue;
      const double sent = a * r;
      load[static_cast<size_t>(e)] += sent;
      node_amount[static_cast<size_t>(g.edge(e).dst)] += sent;
    }
  }
  return absorbed;
}

}  // namespace

SimulationResult simulate(const DiGraph& g, const Routing& routing,
                          const DemandMatrix& dm,
                          const SimulateOptions& options) {
  if (routing.num_nodes() != g.num_nodes() ||
      routing.num_edges() != g.num_edges() ||
      dm.num_nodes() != g.num_nodes()) {
    throw std::invalid_argument("simulate: size mismatch");
  }
  SimulationResult result;
  result.link_load.assign(static_cast<size_t>(g.num_edges()), 0.0);

  std::vector<double> node_amount(static_cast<size_t>(g.num_nodes()));
  std::vector<bool> mask(static_cast<size_t>(g.num_edges()));
  double injected = 0.0;
  for (NodeId t = 0; t < g.num_nodes(); ++t) {
    // Every source bound for t shares row t, so their demands merge into
    // one injection vector and one sweep.
    bool any = false;
    for (NodeId s = 0; s < g.num_nodes(); ++s) {
      const double d = s == t ? 0.0 : dm.at(s, t);
      if (d <= 0.0) {
        node_amount[static_cast<size_t>(s)] = 0.0;
        continue;
      }
      node_amount[static_cast<size_t>(s)] = d;
      injected += d;
      any = true;
    }
    if (!any) continue;
    result.delivered +=
        propagate_destination(g, routing.dest_ratios(t), t, node_amount, mask,
                              result.link_load, options.strict);
  }
  if (options.strict && injected > 0.0) {
    const double loss = std::abs(injected - result.delivered) / injected;
    if (loss > options.conservation_tolerance) {
      throw std::runtime_error(
          "simulate: conservation violated, delivered " +
          std::to_string(result.delivered) + " of " +
          std::to_string(injected));
    }
  }

  result.link_utilisation.assign(static_cast<size_t>(g.num_edges()), 0.0);
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    result.link_utilisation[static_cast<size_t>(e)] =
        result.link_load[static_cast<size_t>(e)] / g.edge(e).capacity;
    result.u_max =
        std::max(result.u_max, result.link_utilisation[static_cast<size_t>(e)]);
  }
  return result;
}

SimulationResult simulate(const DiGraph& g, const Routing& routing,
                          const DemandMatrix& dm) {
  return simulate(g, routing, dm, SimulateOptions{});
}

bool validate(const DiGraph& g, const Routing& routing,
              const DemandMatrix& dm, std::string* error) {
  auto fail = [&](const std::string& msg) {
    if (error != nullptr) *error = msg;
    return false;
  };
  const auto n = static_cast<size_t>(g.num_nodes());
  std::vector<bool> reaches(n);
  std::vector<NodeId> frontier;
  for (NodeId t = 0; t < g.num_nodes(); ++t) {
    if (!has_demand_to(dm, t)) continue;
    const auto ratios = routing.dest_ratios(t);
    // Constraint (2): absorption at the destination.
    for (EdgeId e : g.out_edges(t)) {
      if (ratios[static_cast<size_t>(e)] > 1e-9) {
        return fail("destination " + std::to_string(t) +
                    " forwards traffic out of the destination");
      }
    }
    // Constraint (1): conservation at vertices that carry traffic.  Which
    // vertices carry traffic depends on the upstream ratios, so search
    // positive-ratio edges from every source with demand to t (the search
    // tolerates cycles: validate() must not crash on invalid input).
    std::fill(reaches.begin(), reaches.end(), false);
    frontier.clear();
    for (NodeId s = 0; s < g.num_nodes(); ++s) {
      if (has_demand(dm, s, t)) {
        reaches[static_cast<size_t>(s)] = true;
        frontier.push_back(s);
      }
    }
    while (!frontier.empty()) {
      const NodeId v = frontier.back();
      frontier.pop_back();
      for (EdgeId e : g.out_edges(v)) {
        const NodeId u = g.edge(e).dst;
        if (ratios[static_cast<size_t>(e)] > 0.0 &&
            !reaches[static_cast<size_t>(u)]) {
          reaches[static_cast<size_t>(u)] = true;
          frontier.push_back(u);
        }
      }
    }
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      if (!reaches[static_cast<size_t>(v)] || v == t) continue;
      double sum = 0.0;
      for (EdgeId e : g.out_edges(v)) {
        sum += ratios[static_cast<size_t>(e)];
      }
      if (std::abs(sum - 1.0) > 1e-6) {
        return fail("destination " + std::to_string(t) + ": ratios at vertex " +
                    std::to_string(v) + " sum to " + std::to_string(sum));
      }
    }
  }
  if (error != nullptr) error->clear();
  return true;
}

bool validate_for_serving(const DiGraph& g, const Routing& routing,
                          const DemandMatrix& dm, std::string* error) {
  auto fail = [&](const std::string& msg) {
    if (error != nullptr) *error = msg;
    return false;
  };
  if (routing.num_nodes() != g.num_nodes() ||
      routing.num_edges() != g.num_edges() ||
      dm.num_nodes() != g.num_nodes()) {
    return fail("routing/demand size does not match the graph");
  }
  for (NodeId t = 0; t < g.num_nodes(); ++t) {
    if (!has_demand_to(dm, t)) continue;
    const auto ratios = routing.dest_ratios(t);
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      const double r = ratios[static_cast<size_t>(e)];
      // Written to also reject NaN (every comparison with NaN is false).
      // NaN ratios are the one corruption strict simulation cannot see:
      // a NaN load poisons `delivered`, and the conservation comparison
      // against NaN is silently false.
      if (!(r >= 0.0 && r <= 1.0)) {
        return fail("destination " + std::to_string(t) + " has ratio " +
                    std::to_string(r) + " on edge " + std::to_string(e));
      }
    }
    for (EdgeId e : g.out_edges(t)) {
      if (ratios[static_cast<size_t>(e)] > 1e-9) {
        return fail("destination " + std::to_string(t) +
                    " forwards traffic out of the destination");
      }
    }
  }
  if (error != nullptr) error->clear();
  return true;
}

}  // namespace gddr::routing
