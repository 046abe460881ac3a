#include "routing/reference.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <queue>
#include <stdexcept>

#include "graph/algorithms.hpp"
#include "graph/graph_invariants.hpp"
#include "routing/baselines.hpp"
#include "routing/routing_invariants.hpp"
#include "util/contract.hpp"

namespace gddr::routing::reference {

using graph::DiGraph;
using graph::EdgeId;
using graph::NodeId;
using traffic::DemandMatrix;

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Propagates `amount` units of flow (s,t) through the routing's positive
// edges, adding to `load`.  Returns the amount absorbed at t.
double propagate_flow(const DiGraph& g, const PairRouting& routing, NodeId s,
                      NodeId t, double amount, std::vector<double>& load,
                      bool strict) {
  const auto ratios = routing.flow_ratios(s, t);
  std::vector<bool> mask(static_cast<size_t>(g.num_edges()), false);
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    mask[static_cast<size_t>(e)] = ratios[static_cast<size_t>(e)] > 0.0;
  }
  const auto order = graph::topological_order(g, mask);
  if (!order.has_value()) {
    if (strict) {
      throw std::runtime_error("simulate: flow (" + std::to_string(s) + "," +
                               std::to_string(t) + ") has a routing loop");
    }
    return 0.0;
  }
  GDDR_VALIDATE(graph::check_topological_order(
      g, mask, *order, "routing/reference/simulate/toposort"));
  std::vector<double> node_amount(static_cast<size_t>(g.num_nodes()), 0.0);
  node_amount[static_cast<size_t>(s)] = amount;
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

// Reverse Dijkstra to `t` restricted to masked edges: dist[v] = weighted
// distance from v to t inside the pruned DAG.
std::vector<double> masked_dist_to(const DiGraph& g, NodeId t,
                                   const std::vector<double>& weights,
                                   const std::vector<bool>& mask) {
  const auto n = static_cast<size_t>(g.num_nodes());
  std::vector<double> dist(n, kInf);
  std::vector<bool> done(n, false);
  using Entry = std::pair<double, NodeId>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> pq;
  dist[static_cast<size_t>(t)] = 0.0;
  pq.emplace(0.0, t);
  while (!pq.empty()) {
    const auto [d, v] = pq.top();
    pq.pop();
    if (done[static_cast<size_t>(v)]) continue;
    done[static_cast<size_t>(v)] = true;
    for (EdgeId e : g.in_edges(v)) {
      if (!mask[static_cast<size_t>(e)]) continue;
      const NodeId u = g.edge(e).src;
      const double nd = d + weights[static_cast<size_t>(e)];
      if (nd < dist[static_cast<size_t>(u)]) {
        dist[static_cast<size_t>(u)] = nd;
        pq.emplace(nd, u);
      }
    }
  }
  return dist;
}

// Fixing the source turns a per-pair table into a destination-based one:
// row t of the result holds flow (s,t)'s ratios.  Used only by the
// GDDR_CHECK contract below.
[[maybe_unused]] Routing source_slice(const PairRouting& routing, NodeId s) {
  Routing out(routing.num_nodes(), routing.num_edges());
  for (NodeId t = 0; t < routing.num_nodes(); ++t) {
    if (t == s) continue;
    std::ranges::copy(routing.flow_ratios(s, t),
                      out.mutable_dest_ratios(t).begin());
  }
  return out;
}

}  // namespace

PairRouting::PairRouting(int num_nodes, int num_edges)
    : n_(num_nodes),
      ne_(num_edges),
      ratios_(static_cast<size_t>(num_nodes) * static_cast<size_t>(num_nodes) *
                  static_cast<size_t>(num_edges),
              0.0) {}

void PairRouting::set_ratio(int s, int t, EdgeId e, double value) {
  if (value < -1e-12 || value > 1.0 + 1e-12) {
    throw std::invalid_argument("PairRouting::set_ratio: ratio outside [0,1]");
  }
  ratios_[index(s, t) + static_cast<size_t>(e)] = std::clamp(value, 0.0, 1.0);
}

PairRouting broadcast(const Routing& routing) {
  PairRouting out(routing.num_nodes(), routing.num_edges());
  for (NodeId t = 0; t < routing.num_nodes(); ++t) {
    const auto row = routing.dest_ratios(t);
    for (NodeId s = 0; s < routing.num_nodes(); ++s) {
      if (s != t) std::ranges::copy(row, out.mutable_flow_ratios(s, t).begin());
    }
  }
  return out;
}

SimulationResult simulate(const DiGraph& g, const PairRouting& routing,
                          const DemandMatrix& dm,
                          const SimulateOptions& options) {
  if (routing.num_nodes() != g.num_nodes() ||
      routing.num_edges() != g.num_edges() ||
      dm.num_nodes() != g.num_nodes()) {
    throw std::invalid_argument("simulate: size mismatch");
  }
  SimulationResult result;
  result.link_load.assign(static_cast<size_t>(g.num_edges()), 0.0);
  double injected = 0.0;
  for (NodeId s = 0; s < g.num_nodes(); ++s) {
    for (NodeId t = 0; t < g.num_nodes(); ++t) {
      if (s == t) continue;
      const double d = dm.at(s, t);
      if (d <= 0.0) continue;
      injected += d;
      result.delivered += propagate_flow(g, routing, s, t, d,
                                         result.link_load, options.strict);
    }
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

SimulationResult simulate(const DiGraph& g, const PairRouting& routing,
                          const DemandMatrix& dm) {
  return simulate(g, routing, dm, SimulateOptions{});
}

bool validate(const DiGraph& g, const PairRouting& routing,
              const DemandMatrix& dm, std::string* error) {
  auto fail = [&](const std::string& msg) {
    if (error != nullptr) *error = msg;
    return false;
  };
  for (NodeId s = 0; s < g.num_nodes(); ++s) {
    for (NodeId t = 0; t < g.num_nodes(); ++t) {
      if (s == t || dm.at(s, t) <= 0.0) continue;
      const auto ratios = routing.flow_ratios(s, t);
      for (EdgeId e : g.out_edges(t)) {
        if (ratios[static_cast<size_t>(e)] > 1e-9) {
          return fail("flow (" + std::to_string(s) + "," + std::to_string(t) +
                      ") forwards traffic out of its destination");
        }
      }
      // Reachability from s through positive-ratio edges, by a fixed-point
      // sweep that tolerates cycles.
      std::vector<bool> reaches(static_cast<size_t>(g.num_nodes()), false);
      reaches[static_cast<size_t>(s)] = true;
      for (int pass = 0; pass < g.num_nodes(); ++pass) {
        bool changed = false;
        for (EdgeId e = 0; e < g.num_edges(); ++e) {
          if (ratios[static_cast<size_t>(e)] > 0.0) {
            const auto& ed = g.edge(e);
            if (reaches[static_cast<size_t>(ed.src)] &&
                !reaches[static_cast<size_t>(ed.dst)]) {
              reaches[static_cast<size_t>(ed.dst)] = true;
              changed = true;
            }
          }
        }
        if (!changed) break;
      }
      for (NodeId v = 0; v < g.num_nodes(); ++v) {
        if (!reaches[static_cast<size_t>(v)] || v == t) continue;
        double sum = 0.0;
        for (EdgeId e : g.out_edges(v)) sum += ratios[static_cast<size_t>(e)];
        if (std::abs(sum - 1.0) > 1e-6) {
          return fail("flow (" + std::to_string(s) + "," + std::to_string(t) +
                      ") ratios at vertex " + std::to_string(v) + " sum to " +
                      std::to_string(sum));
        }
      }
    }
  }
  if (error != nullptr) error->clear();
  return true;
}

bool validate_for_serving(const DiGraph& g, const PairRouting& routing,
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
  for (NodeId s = 0; s < g.num_nodes(); ++s) {
    for (NodeId t = 0; t < g.num_nodes(); ++t) {
      if (s == t || dm.at(s, t) <= 0.0) continue;
      const auto ratios = routing.flow_ratios(s, t);
      for (EdgeId e = 0; e < g.num_edges(); ++e) {
        const double r = ratios[static_cast<size_t>(e)];
        if (!(r >= 0.0 && r <= 1.0)) {
          return fail("flow (" + std::to_string(s) + "," + std::to_string(t) +
                      ") has ratio " + std::to_string(r) + " on edge " +
                      std::to_string(e));
        }
      }
      for (EdgeId e : g.out_edges(t)) {
        if (ratios[static_cast<size_t>(e)] > 1e-9) {
          return fail("flow (" + std::to_string(s) + "," + std::to_string(t) +
                      ") forwards traffic out of its destination");
        }
      }
    }
  }
  if (error != nullptr) error->clear();
  return true;
}

PairRouting softmin_routing_generic(const DiGraph& g,
                                    const std::vector<double>& weights,
                                    const SoftminOptions& options,
                                    PruneMode mode) {
  if (weights.size() != static_cast<size_t>(g.num_edges())) {
    throw std::invalid_argument(
        "softmin_routing_generic: weight size mismatch");
  }
  PairRouting routing(g.num_nodes(), g.num_edges());
  for (NodeId t = 0; t < g.num_nodes(); ++t) {
    // Pairs whose sink is unreachable can never carry traffic; skip them
    // (a demand on such a pair would make simulate() fail loudly anyway).
    const auto reach = graph::dijkstra_to(g, t, weights);
    for (NodeId s = 0; s < g.num_nodes(); ++s) {
      if (s == t || reach.dist[static_cast<size_t>(s)] == kInf) continue;
      // Convert to a DAG for this source-sink pair (paper Fig. 2 line 1).
      const auto mask = prune_dag(g, s, t, weights, mode);
      // Distance of each vertex to the sink on the pruned graph.
      const auto dist = masked_dist_to(g, t, weights, mask);
      for (NodeId v = 0; v < g.num_nodes(); ++v) {
        if (v == t || dist[static_cast<size_t>(v)] == kInf) continue;
        // Out-edge candidates: masked edges whose head still reaches t.
        std::vector<EdgeId> out;
        std::vector<double> cost;
        for (EdgeId e : g.out_edges(v)) {
          if (!mask[static_cast<size_t>(e)]) continue;
          const NodeId u = g.edge(e).dst;
          if (dist[static_cast<size_t>(u)] == kInf) continue;
          out.push_back(e);
          // Edge length + neighbour's distance (paper Fig. 2).
          cost.push_back(weights[static_cast<size_t>(e)] +
                         dist[static_cast<size_t>(u)]);
        }
        if (out.empty()) continue;  // no traffic can arrive here
        std::vector<double> ratios = softmin(cost, options.gamma);
        // Floor tiny ratios and renormalise.
        double sum = 0.0;
        for (double& r : ratios) {
          if (r < options.ratio_floor) r = 0.0;
          sum += r;
        }
        if (sum <= 0.0) {
          // Degenerate flooring: fall back to the single best edge.
          const size_t best = static_cast<size_t>(
              std::min_element(cost.begin(), cost.end()) - cost.begin());
          std::fill(ratios.begin(), ratios.end(), 0.0);
          ratios[best] = 1.0;
          sum = 1.0;
        }
        for (size_t i = 0; i < out.size(); ++i) {
          routing.set_ratio(s, t, out[i], ratios[i] / sum);
        }
      }
    }
  }
  // Source by source the per-pair table is destination-based, so the
  // production routing contract applies to every slice.
  GDDR_VALIDATE([&] {
    for (NodeId s = 0; s < g.num_nodes(); ++s) {
      check_softmin_routing(g, source_slice(routing, s), 1e-9,
                            "routing/softmin/generic");
    }
  }());
  return routing;
}

PairRouting uniform_multipath_routing(const DiGraph& g,
                                      const std::vector<double>& weights,
                                      int k) {
  if (k <= 0) throw std::invalid_argument("uniform_multipath: k <= 0");
  PairRouting routing(g.num_nodes(), g.num_edges());
  for (NodeId s = 0; s < g.num_nodes(); ++s) {
    for (NodeId t = 0; t < g.num_nodes(); ++t) {
      if (s == t) continue;
      const auto paths = graph::k_shortest_paths(g, s, t, weights, k);
      if (paths.empty()) continue;
      // Unit demand split evenly over the paths -> edge flows -> cancel any
      // inter-path cycles -> splitting ratios.
      std::vector<double> flow(static_cast<size_t>(g.num_edges()), 0.0);
      const double share = 1.0 / static_cast<double>(paths.size());
      for (const auto& path : paths) {
        for (size_t i = 0; i + 1 < path.size(); ++i) {
          const auto e = g.find_edge(path[i], path[i + 1]);
          flow[static_cast<size_t>(*e)] += share;
        }
      }
      flow = cancel_flow_cycles(g, flow);
      for (NodeId v = 0; v < g.num_nodes(); ++v) {
        if (v == t) continue;
        double out_total = 0.0;
        for (EdgeId e : g.out_edges(v)) {
          out_total += flow[static_cast<size_t>(e)];
        }
        if (out_total <= 1e-12) continue;
        for (EdgeId e : g.out_edges(v)) {
          const double r = flow[static_cast<size_t>(e)] / out_total;
          if (r > 0.0) routing.set_ratio(s, t, e, r);
        }
      }
    }
  }
  return routing;
}

}  // namespace gddr::routing::reference
