#include "graph/digraph.hpp"

#include <cassert>
#include <stdexcept>

namespace gddr::graph {

DiGraph::DiGraph(int num_nodes, std::string name) : name_(std::move(name)) {
  // Checked before sizing: a negative count cast to size_t would make
  // the vectors throw std::length_error instead.
  if (num_nodes < 0) throw std::invalid_argument("negative node count");
  out_edges_.resize(static_cast<size_t>(num_nodes));
  in_edges_.resize(static_cast<size_t>(num_nodes));
}

NodeId DiGraph::add_node() {
  out_edges_.emplace_back();
  in_edges_.emplace_back();
  return num_nodes() - 1;
}

EdgeId DiGraph::add_edge(NodeId u, NodeId v, double capacity) {
  if (!valid_node(u) || !valid_node(v)) {
    throw std::out_of_range("add_edge: invalid node id");
  }
  if (u == v) throw std::invalid_argument("add_edge: self-loop");
  if (capacity <= 0.0) throw std::invalid_argument("add_edge: capacity <= 0");
  const EdgeId id = num_edges();
  edges_.push_back(Edge{u, v, capacity});
  out_edges_[static_cast<size_t>(u)].push_back(id);
  in_edges_[static_cast<size_t>(v)].push_back(id);
  return id;
}

EdgeId DiGraph::add_bidirectional(NodeId u, NodeId v, double capacity) {
  const EdgeId first = add_edge(u, v, capacity);
  add_edge(v, u, capacity);
  return first;
}

std::optional<EdgeId> DiGraph::find_edge(NodeId u, NodeId v) const {
  if (!valid_node(u) || !valid_node(v)) return std::nullopt;
  for (EdgeId e : out_edges(u)) {
    if (edge(e).dst == v) return e;
  }
  return std::nullopt;
}

double DiGraph::total_capacity() const {
  double total = 0.0;
  for (const Edge& e : edges_) total += e.capacity;
  return total;
}

DiGraph DiGraph::without_edges(const std::vector<bool>& remove) const {
  assert(remove.size() == edges_.size());
  DiGraph g(num_nodes(), name_);
  for (EdgeId e = 0; e < num_edges(); ++e) {
    if (!remove[static_cast<size_t>(e)]) {
      const Edge& ed = edge(e);
      g.add_edge(ed.src, ed.dst, ed.capacity);
    }
  }
  return g;
}

DiGraph DiGraph::without_edge(EdgeId e) const {
  std::vector<bool> remove(static_cast<size_t>(num_edges()), false);
  remove.at(static_cast<size_t>(e)) = true;
  return without_edges(remove);
}

DiGraph DiGraph::without_node(NodeId v) const {
  if (!valid_node(v)) throw std::out_of_range("without_node: invalid node");
  DiGraph g(num_nodes() - 1, name_);
  auto remap = [v](NodeId n) { return n > v ? n - 1 : n; };
  for (const Edge& e : edges_) {
    if (e.src == v || e.dst == v) continue;
    g.add_edge(remap(e.src), remap(e.dst), e.capacity);
  }
  return g;
}

bool DiGraph::operator==(const DiGraph& other) const {
  if (num_nodes() != other.num_nodes() || num_edges() != other.num_edges()) {
    return false;
  }
  for (EdgeId e = 0; e < num_edges(); ++e) {
    const Edge& a = edge(e);
    const Edge& b = other.edge(e);
    if (a.src != b.src || a.dst != b.dst || a.capacity != b.capacity) {
      return false;
    }
  }
  return true;
}

}  // namespace gddr::graph
