// Graph algorithms used throughout GDDR: weighted shortest paths (softmin
// routing distances, shortest-path baseline), traversal orders (flow
// simulation over per-flow DAGs), and connectivity checks (topology
// mutation must keep graphs strongly connected so every demand is
// routable).
#pragma once

#include <cstddef>
#include <limits>
#include <optional>
#include <vector>

#include "graph/digraph.hpp"

namespace gddr::graph {

inline constexpr double kInfDist = std::numeric_limits<double>::infinity();

// Result of a single-source shortest-path computation.
struct ShortestPaths {
  // dist[v]: distance from the source (or to the sink for the reverse
  // variant); kInfDist if unreachable.
  std::vector<double> dist;
  // parent_edge[v]: one edge on a shortest path toward v (kInvalidEdge for
  // the source / unreachable nodes).
  std::vector<EdgeId> parent_edge;
};

// Throws std::invalid_argument unless `weights` holds one non-negative
// (and non-NaN) weight per edge of `g`.
void check_weights(const DiGraph& g, const std::vector<double>& weights);

// Dijkstra state reused across runs: distances, parent edges, the settle
// order, and an indexed 4-ary min-heap with decrease-key.  The heap orders
// vertices by (distance, node id), the order in which a lazy-deletion heap
// of (distance, node) pairs settles them, so parent edges and settle order
// do not depend on the heap.  Distances do not depend on it either: each
// is the minimum over the vertex's neighbours of neighbour distance plus
// edge weight.
class DijkstraWorkspace {
 public:
  // Shortest paths from `origin`, or to it over in-edges when `reverse`.
  // `weights` must have passed check_weights; run() does not re-check.
  void run(const DiGraph& g, NodeId origin, const std::vector<double>& weights,
           bool reverse);

  const std::vector<double>& dist() const { return dist_; }
  const std::vector<EdgeId>& parent_edge() const { return parent_; }
  // Every reached vertex, in the order it was settled: non-decreasing
  // distance, ties broken by node id.  Read backwards, it is a topological
  // order of any edge set whose edges strictly decrease the distance.
  const std::vector<NodeId>& settle_order() const { return order_; }

 private:
  // A heap entry caches its vertex's distance, so sifting reads only the
  // heap array.
  struct Entry {
    double dist;
    NodeId node;
    bool operator<(const Entry& o) const {
      return dist < o.dist || (dist == o.dist && node < o.node);
    }
  };
  void sift_up(std::size_t i, Entry x);
  void sift_down(std::size_t i, Entry x);

  std::vector<double> dist_;
  std::vector<EdgeId> parent_;
  std::vector<NodeId> order_;
  std::vector<Entry> heap_;
  std::vector<std::size_t> slot_;  // heap index per vertex, or a sentinel
};

// Dijkstra from `src` using per-edge weights (size num_edges, all >= 0).
ShortestPaths dijkstra(const DiGraph& g, NodeId src,
                       const std::vector<double>& weights);

// Dijkstra on the reverse graph: dist[v] is the weighted distance from v to
// `dst`; parent_edge[v] is the first edge of a shortest v->dst path.
ShortestPaths dijkstra_to(const DiGraph& g, NodeId dst,
                          const std::vector<double>& weights);

// Unit weights (hop count) convenience.
std::vector<double> unit_weights(const DiGraph& g);

// Reconstructs the node sequence src..dst from a `dijkstra(g, src, ...)`
// result; empty if unreachable.
std::vector<NodeId> extract_path(const DiGraph& g, const ShortestPaths& sp,
                                 NodeId src, NodeId dst);

// Kahn topological order over the subgraph of edges where mask[e] is true.
// Returns nullopt if that subgraph has a cycle.
std::optional<std::vector<NodeId>> topological_order(
    const DiGraph& g, const std::vector<bool>& edge_mask);

// True if the masked subgraph contains a directed cycle.
bool has_cycle(const DiGraph& g, const std::vector<bool>& edge_mask);

// True if every node can reach every other node.
bool is_strongly_connected(const DiGraph& g);

// All-pairs shortest-path distances by repeated Dijkstra.
// result[s][t] = distance s -> t.
std::vector<std::vector<double>> all_pairs_distances(
    const DiGraph& g, const std::vector<double>& weights);

// For each node v, the outgoing edges of v that lie on *some* shortest
// path from v to `dst` (the ECMP DAG toward dst).  Empty set at `dst` and
// at nodes that cannot reach `dst`.
std::vector<std::vector<EdgeId>> shortest_path_dag_to(
    const DiGraph& g, NodeId dst, const std::vector<double>& weights);

// K shortest loopless paths src -> dst (Yen's algorithm); each path is a
// node sequence.  Used by the uniform-multipath baseline.
std::vector<std::vector<NodeId>> k_shortest_paths(
    const DiGraph& g, NodeId src, NodeId dst,
    const std::vector<double>& weights, int k);

}  // namespace gddr::graph
