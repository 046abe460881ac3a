#include "mcf/fptas.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <vector>

#include "graph/algorithms.hpp"

namespace gddr::mcf {
namespace {

using graph::DiGraph;
using graph::EdgeId;
using graph::NodeId;
using traffic::DemandMatrix;

struct Commodity {
  NodeId s;
  NodeId t;
  double d;
};

// Max utilisation if every demand takes its unit-weight shortest path; a
// cheap constant-factor congestion estimate used to pre-scale demands so
// the phase count of the multiplicative-weights loop stays modest.
double shortest_path_u_max(const DiGraph& g, const DemandMatrix& dm) {
  std::vector<double> load(static_cast<size_t>(g.num_edges()), 0.0);
  const auto w = graph::unit_weights(g);
  for (NodeId s = 0; s < g.num_nodes(); ++s) {
    if (dm.out_sum(s) <= 0.0) continue;
    const auto sp = graph::dijkstra(g, s, w);
    for (NodeId t = 0; t < g.num_nodes(); ++t) {
      const double d = (s == t) ? 0.0 : dm.at(s, t);
      if (d <= 0.0) continue;
      NodeId v = t;
      while (v != s) {
        const EdgeId pe = sp.parent_edge[static_cast<size_t>(v)];
        if (pe == graph::kInvalidEdge) {
          throw std::runtime_error("fptas: demand pair unreachable");
        }
        load[static_cast<size_t>(pe)] += d;
        v = g.edge(pe).src;
      }
    }
  }
  double u = 0.0;
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    u = std::max(u, load[static_cast<size_t>(e)] / g.edge(e).capacity);
  }
  return u;
}

}  // namespace

double max_concurrent_flow(const DiGraph& g, const DemandMatrix& dm,
                           const FptasOptions& options) {
  if (dm.num_nodes() != g.num_nodes()) {
    throw std::invalid_argument("fptas: demand/graph size mismatch");
  }
  const double eps = options.epsilon;
  if (eps <= 0.0 || eps >= 0.5) {
    throw std::invalid_argument("fptas: epsilon must be in (0, 0.5)");
  }

  std::vector<Commodity> commodities;
  for (NodeId s = 0; s < g.num_nodes(); ++s) {
    for (NodeId t = 0; t < g.num_nodes(); ++t) {
      if (s != t && dm.at(s, t) > 0.0) commodities.push_back({s, t, dm.at(s, t)});
    }
  }
  if (commodities.empty()) return 0.0;

  // Pre-scale by the shortest-path utilisation U_sp >= U*: lambda* of the
  // scaled problem is then U_sp / U* >= 1, usually a small constant.  The
  // returned value is unscaled at the end.
  const double u_sp = shortest_path_u_max(g, dm);
  if (u_sp <= 0.0) return 0.0;
  const double scale = u_sp;  // scaled demand d' = d / u_sp
  for (auto& c : commodities) c.d /= scale;

  const auto m = static_cast<double>(g.num_edges());
  const double delta = (1.0 + eps) * std::pow((1.0 + eps) * m, -1.0 / eps);

  std::vector<double> length(static_cast<size_t>(g.num_edges()));
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    length[static_cast<size_t>(e)] = delta / g.edge(e).capacity;
  }
  auto total_length = [&] {
    double d = 0.0;
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      d += length[static_cast<size_t>(e)] * g.edge(e).capacity;
    }
    return d;
  };

  // Phase budget: when lambda* of the scaled problem is O(1) the standard
  // analysis bounds phases by O(log(m)/eps^2).  Shortest-path routing can
  // sit far above the optimum, though (parallel links, a fat detour), so
  // lambda*(scaled) may be large; when a budget of phases completes
  // without the lengths reaching 1, the demands double (Garg-Konemann),
  // which keeps the phase count at O(log(m)/eps^2 * log(lambda*)).
  // `routed` counts the completed phases in multiples of the scaled
  // demand.  The doubling cap only guards against pathological inputs.
  const int max_phases = static_cast<int>(std::ceil(
      4.0 * std::log(m + 2.0) / (eps * eps))) + 64;
  constexpr int kMaxDoublings = 64;
  double routed = 0.0;
  double multiple = 1.0;
  int phases_at_multiple = 0;
  int doublings = 0;

  while (total_length() < 1.0) {
    if (phases_at_multiple == max_phases) {
      if (++doublings > kMaxDoublings) break;
      multiple *= 2.0;
      phases_at_multiple = 0;
      for (auto& c : commodities) c.d *= 2.0;
    }
    for (const auto& c : commodities) {
      double remaining = c.d;
      while (remaining > 1e-15 && total_length() < 1.0) {
        const auto sp = graph::dijkstra(g, c.s, length);
        // Walk the edges Dijkstra chose back from t (with parallel links,
        // the node path alone does not name the link).
        double bottleneck = std::numeric_limits<double>::infinity();
        std::vector<EdgeId> path_edges;
        for (NodeId v = c.t; v != c.s;) {
          const EdgeId pe = sp.parent_edge[static_cast<size_t>(v)];
          if (pe == graph::kInvalidEdge) {
            throw std::runtime_error("fptas: commodity unreachable");
          }
          path_edges.push_back(pe);
          bottleneck = std::min(bottleneck, g.edge(pe).capacity);
          v = g.edge(pe).src;
        }
        const double send = std::min(remaining, bottleneck);
        remaining -= send;
        for (EdgeId e : path_edges) {
          length[static_cast<size_t>(e)] *=
              1.0 + eps * send / g.edge(e).capacity;
        }
      }
      if (total_length() >= 1.0) break;
    }
    if (total_length() < 1.0) {
      routed += multiple;
      ++phases_at_multiple;
    }
  }

  const double log_ratio = std::log((1.0 + eps) / delta) / std::log(1.0 + eps);
  const double lambda_scaled = routed / log_ratio;
  return lambda_scaled / scale;
}

double approx_optimal_u_max(const DiGraph& g, const DemandMatrix& dm,
                            const FptasOptions& options) {
  const double lambda = max_concurrent_flow(g, dm, options);
  if (lambda <= 0.0) return 0.0;
  return 1.0 / lambda;
}

}  // namespace gddr::mcf
