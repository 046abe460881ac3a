// Seeded random-topology family shared by the routing differential tests.
//
// Erdos-Renyi, Watts-Strogatz and Barabasi-Albert graphs at 5-100 nodes,
// plus capacity-skewed and disconnected variants, with helpers for
// reachability, random demand on connected pairs and random edge weights.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "graph/algorithms.hpp"
#include "graph/digraph.hpp"
#include "topo/generators.hpp"
#include "traffic/demand.hpp"
#include "util/rng.hpp"

namespace gddr::routing::family {

struct GraphCase {
  std::string name;
  graph::DiGraph g;
};

// Disjoint union of `a` and `b` plus one isolated vertex: many pairs are
// unreachable in both directions.
inline graph::DiGraph disjoint_union(const graph::DiGraph& a,
                                     const graph::DiGraph& b) {
  graph::DiGraph u(a.num_nodes() + b.num_nodes() + 1);
  for (const auto& e : a.edges()) u.add_edge(e.src, e.dst, e.capacity);
  for (const auto& e : b.edges()) {
    u.add_edge(e.src + a.num_nodes(), e.dst + a.num_nodes(), e.capacity);
  }
  return u;
}

inline std::vector<GraphCase> graph_family() {
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
  const graph::DiGraph ws = topo::watts_strogatz(16, 4, 0.2, rng);
  std::vector<bool> drop(static_cast<std::size_t>(ws.num_edges()));
  for (auto&& d : drop) d = rng.uniform(0.0, 1.0) < 0.3;
  cases.push_back({"ws16-cut", ws.without_edges(drop)});
  return cases;
}

inline int graph_family_size() {
  return static_cast<int>(graph_family().size());
}

// reachable[s][t]: some s -> t path exists.
inline std::vector<std::vector<bool>> reachability(const graph::DiGraph& g) {
  const auto n = static_cast<std::size_t>(g.num_nodes());
  std::vector<std::vector<bool>> reach(n, std::vector<bool>(n, false));
  const auto unit = graph::unit_weights(g);
  for (graph::NodeId t = 0; t < g.num_nodes(); ++t) {
    const auto sp = graph::dijkstra_to(g, t, unit);
    for (graph::NodeId s = 0; s < g.num_nodes(); ++s) {
      reach[static_cast<std::size_t>(s)][static_cast<std::size_t>(t)] =
          sp.dist[static_cast<std::size_t>(s)] != graph::kInfDist;
    }
  }
  return reach;
}

// Demand on a `density` fraction of the connected pairs.
inline traffic::DemandMatrix random_demand(
    const graph::DiGraph& g, const std::vector<std::vector<bool>>& reach,
    double density, util::Rng& rng) {
  traffic::DemandMatrix dm(g.num_nodes());
  for (graph::NodeId s = 0; s < g.num_nodes(); ++s) {
    for (graph::NodeId t = 0; t < g.num_nodes(); ++t) {
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

inline std::vector<double> random_weights(const graph::DiGraph& g,
                                          util::Rng& rng) {
  std::vector<double> w(static_cast<std::size_t>(g.num_edges()));
  for (auto& x : w) x = rng.uniform(0.5, 3.0);
  return w;
}

}  // namespace gddr::routing::family
