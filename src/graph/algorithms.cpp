#include "graph/algorithms.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <queue>
#include <set>
#include <stdexcept>

namespace gddr::graph {
void check_weights(const DiGraph& g, const std::vector<double>& weights) {
  if (weights.size() != static_cast<size_t>(g.num_edges())) {
    throw std::invalid_argument("weight vector size != num_edges");
  }
  for (double w : weights) {
    if (!(w >= 0.0)) {
      throw std::invalid_argument("Dijkstra requires non-negative weights");
    }
  }
}

namespace {

constexpr size_t kUnreached = std::numeric_limits<size_t>::max();
constexpr size_t kSettled = kUnreached - 1;
constexpr size_t kArity = 4;

}  // namespace

void DijkstraWorkspace::sift_up(size_t i, Entry x) {
  while (i > 0) {
    const size_t parent = (i - 1) / kArity;
    if (!(x < heap_[parent])) break;
    heap_[i] = heap_[parent];
    slot_[static_cast<size_t>(heap_[i].node)] = i;
    i = parent;
  }
  heap_[i] = x;
  slot_[static_cast<size_t>(x.node)] = i;
}

void DijkstraWorkspace::sift_down(size_t i, Entry x) {
  const size_t size = heap_.size();
  while (true) {
    const size_t first = kArity * i + 1;
    if (first >= size) break;
    size_t best = first;
    const size_t last = std::min(first + kArity, size);
    for (size_t c = first + 1; c < last; ++c) {
      if (heap_[c] < heap_[best]) best = c;
    }
    if (!(heap_[best] < x)) break;
    heap_[i] = heap_[best];
    slot_[static_cast<size_t>(heap_[i].node)] = i;
    i = best;
  }
  heap_[i] = x;
  slot_[static_cast<size_t>(x.node)] = i;
}

void DijkstraWorkspace::run(const DiGraph& g, NodeId origin,
                            const std::vector<double>& weights,
                            bool reverse) {
  if (!g.valid_node(origin)) {
    throw std::out_of_range("dijkstra: invalid origin");
  }
  const auto n = static_cast<size_t>(g.num_nodes());
  dist_.assign(n, kInfDist);
  parent_.assign(n, kInvalidEdge);
  slot_.assign(n, kUnreached);
  order_.clear();
  heap_.clear();
  dist_[static_cast<size_t>(origin)] = 0.0;
  heap_.push_back({0.0, origin});
  slot_[static_cast<size_t>(origin)] = 0;
  while (!heap_.empty()) {
    const NodeId v = heap_.front().node;
    slot_[static_cast<size_t>(v)] = kSettled;
    const Entry last = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) sift_down(0, last);
    order_.push_back(v);
    const double d = dist_[static_cast<size_t>(v)];
    for (EdgeId e : reverse ? g.in_edges(v) : g.out_edges(v)) {
      const Edge& ed = g.edge(e);
      const auto u = static_cast<size_t>(reverse ? ed.src : ed.dst);
      const double nd = d + weights[static_cast<size_t>(e)];
      // A settled vertex never improves: its distance is at most d.
      if (!(nd < dist_[u])) continue;
      dist_[u] = nd;
      parent_[u] = e;
      if (slot_[u] == kUnreached) {
        slot_[u] = heap_.size();
        heap_.push_back({});
      }
      sift_up(slot_[u], {nd, static_cast<NodeId>(u)});
    }
  }
}

namespace {

ShortestPaths dijkstra_impl(const DiGraph& g, NodeId origin,
                            const std::vector<double>& weights,
                            bool reverse) {
  check_weights(g, weights);
  DijkstraWorkspace ws;
  ws.run(g, origin, weights, reverse);
  return {ws.dist(), ws.parent_edge()};
}

}  // namespace

ShortestPaths dijkstra(const DiGraph& g, NodeId src,
                       const std::vector<double>& weights) {
  return dijkstra_impl(g, src, weights, /*reverse=*/false);
}

ShortestPaths dijkstra_to(const DiGraph& g, NodeId dst,
                          const std::vector<double>& weights) {
  return dijkstra_impl(g, dst, weights, /*reverse=*/true);
}

std::vector<double> unit_weights(const DiGraph& g) {
  return std::vector<double>(static_cast<size_t>(g.num_edges()), 1.0);
}

std::vector<NodeId> extract_path(const DiGraph& g, const ShortestPaths& sp,
                                 NodeId src, NodeId dst) {
  if (sp.dist[static_cast<size_t>(dst)] == kInfDist) return {};
  std::vector<NodeId> path;
  NodeId v = dst;
  path.push_back(v);
  while (v != src) {
    const EdgeId pe = sp.parent_edge[static_cast<size_t>(v)];
    if (pe == kInvalidEdge) return {};  // origin was not src
    v = g.edge(pe).src;
    path.push_back(v);
    if (path.size() > static_cast<size_t>(g.num_nodes())) return {};
  }
  std::reverse(path.begin(), path.end());
  return path;
}

std::optional<std::vector<NodeId>> topological_order(
    const DiGraph& g, const std::vector<bool>& edge_mask) {
  assert(edge_mask.size() == static_cast<size_t>(g.num_edges()));
  const auto n = static_cast<size_t>(g.num_nodes());
  std::vector<int> in_degree(n, 0);
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    if (edge_mask[static_cast<size_t>(e)]) {
      ++in_degree[static_cast<size_t>(g.edge(e).dst)];
    }
  }
  // `order` doubles as Kahn's FIFO: entries before `head` are emitted,
  // the rest are ready.
  std::vector<NodeId> order;
  order.reserve(n);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (in_degree[static_cast<size_t>(v)] == 0) order.push_back(v);
  }
  for (size_t head = 0; head < order.size(); ++head) {
    for (EdgeId e : g.out_edges(order[head])) {
      if (!edge_mask[static_cast<size_t>(e)]) continue;
      const NodeId u = g.edge(e).dst;
      if (--in_degree[static_cast<size_t>(u)] == 0) order.push_back(u);
    }
  }
  if (order.size() != n) return std::nullopt;
  return order;
}

bool has_cycle(const DiGraph& g, const std::vector<bool>& edge_mask) {
  return !topological_order(g, edge_mask).has_value();
}

bool is_strongly_connected(const DiGraph& g) {
  if (g.num_nodes() == 0) return true;
  const auto n = static_cast<size_t>(g.num_nodes());
  // Forward and backward BFS from node 0 must each reach every node.
  for (const bool reverse : {false, true}) {
    std::vector<bool> seen(n, false);
    std::queue<NodeId> q;
    q.push(0);
    seen[0] = true;
    size_t count = 1;
    while (!q.empty()) {
      const NodeId v = q.front();
      q.pop();
      const auto edges = reverse ? g.in_edges(v) : g.out_edges(v);
      for (EdgeId e : edges) {
        const NodeId u = reverse ? g.edge(e).src : g.edge(e).dst;
        if (!seen[static_cast<size_t>(u)]) {
          seen[static_cast<size_t>(u)] = true;
          ++count;
          q.push(u);
        }
      }
    }
    if (count != n) return false;
  }
  return true;
}

std::vector<std::vector<double>> all_pairs_distances(
    const DiGraph& g, const std::vector<double>& weights) {
  std::vector<std::vector<double>> dist;
  dist.reserve(static_cast<size_t>(g.num_nodes()));
  for (NodeId s = 0; s < g.num_nodes(); ++s) {
    dist.push_back(dijkstra(g, s, weights).dist);
  }
  return dist;
}

std::vector<std::vector<EdgeId>> shortest_path_dag_to(
    const DiGraph& g, NodeId dst, const std::vector<double>& weights) {
  const ShortestPaths sp = dijkstra_to(g, dst, weights);
  std::vector<std::vector<EdgeId>> dag(static_cast<size_t>(g.num_nodes()));
  constexpr double kTol = 1e-9;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (v == dst || sp.dist[static_cast<size_t>(v)] == kInfDist) continue;
    for (EdgeId e : g.out_edges(v)) {
      const NodeId u = g.edge(e).dst;
      if (sp.dist[static_cast<size_t>(u)] == kInfDist) continue;
      const double via = weights[static_cast<size_t>(e)] +
                         sp.dist[static_cast<size_t>(u)];
      if (std::abs(via - sp.dist[static_cast<size_t>(v)]) <= kTol) {
        dag[static_cast<size_t>(v)].push_back(e);
      }
    }
  }
  return dag;
}

namespace {

double path_length(const DiGraph& g, const std::vector<NodeId>& path,
                   const std::vector<double>& weights) {
  double len = 0.0;
  for (size_t i = 0; i + 1 < path.size(); ++i) {
    const auto e = g.find_edge(path[i], path[i + 1]);
    assert(e.has_value());
    len += weights[static_cast<size_t>(*e)];
  }
  return len;
}

}  // namespace

std::vector<std::vector<NodeId>> k_shortest_paths(
    const DiGraph& g, NodeId src, NodeId dst,
    const std::vector<double>& weights, int k) {
  check_weights(g, weights);
  std::vector<std::vector<NodeId>> result;
  if (k <= 0) return result;
  {
    auto sp = dijkstra(g, src, weights);
    auto p = extract_path(g, sp, src, dst);
    if (p.empty()) return result;
    result.push_back(std::move(p));
  }
  // Yen's algorithm: candidate deviations from already-found paths.
  using Candidate = std::pair<double, std::vector<NodeId>>;
  auto cmp = [](const Candidate& a, const Candidate& b) {
    return a.first > b.first || (a.first == b.first && a.second > b.second);
  };
  std::priority_queue<Candidate, std::vector<Candidate>, decltype(cmp)>
      candidates(cmp);
  std::set<std::vector<NodeId>> seen{result[0]};

  while (static_cast<int>(result.size()) < k) {
    const std::vector<NodeId>& prev = result.back();
    for (size_t i = 0; i + 1 < prev.size(); ++i) {
      const NodeId spur = prev[i];
      const std::vector<NodeId> root(prev.begin(),
                                     prev.begin() + static_cast<long>(i) + 1);
      // Mask out edges that would recreate an already-found path with this
      // root, and nodes already on the root (loopless requirement).
      std::vector<bool> removed(static_cast<size_t>(g.num_edges()), false);
      for (const auto& found : result) {
        if (found.size() > i &&
            std::equal(root.begin(), root.end(), found.begin())) {
          if (const auto e = g.find_edge(found[i], found[i + 1])) {
            removed[static_cast<size_t>(*e)] = true;
          }
        }
      }
      std::vector<bool> node_blocked(static_cast<size_t>(g.num_nodes()),
                                     false);
      for (size_t j = 0; j < i; ++j) {
        node_blocked[static_cast<size_t>(root[j])] = true;
      }
      for (EdgeId e = 0; e < g.num_edges(); ++e) {
        const Edge& ed = g.edge(e);
        if (node_blocked[static_cast<size_t>(ed.src)] ||
            node_blocked[static_cast<size_t>(ed.dst)]) {
          removed[static_cast<size_t>(e)] = true;
        }
      }
      std::vector<double> masked = weights;
      for (EdgeId e = 0; e < g.num_edges(); ++e) {
        if (removed[static_cast<size_t>(e)]) {
          masked[static_cast<size_t>(e)] = kInfDist;
        }
      }
      // Dijkstra treats infinite weights as unusable edges.
      std::vector<double> usable = masked;
      for (double& w : usable) {
        if (w == kInfDist) w = 1e18;  // effectively unreachable
      }
      auto sp = dijkstra(g, spur, usable);
      auto spur_path = extract_path(g, sp, spur, dst);
      if (spur_path.empty() ||
          sp.dist[static_cast<size_t>(dst)] >= 1e17) {
        continue;
      }
      std::vector<NodeId> total(root.begin(), root.end() - 1);
      total.insert(total.end(), spur_path.begin(), spur_path.end());
      if (seen.insert(total).second) {
        candidates.emplace(path_length(g, total, weights), total);
      }
    }
    if (candidates.empty()) break;
    result.push_back(candidates.top().second);
    candidates.pop();
  }
  return result;
}

}  // namespace gddr::graph
