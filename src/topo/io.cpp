#include "topo/io.hpp"

#include <fstream>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "util/error.hpp"

namespace gddr::topo {

using graph::DiGraph;
using graph::EdgeId;

void save_topology(std::ostream& os, const DiGraph& g) {
  os << "gddr-topology v1\n";
  if (!g.name().empty()) os << "name " << g.name() << "\n";
  os << "nodes " << g.num_nodes() << "\n";
  // Pair up directed edges into bidirectional links where possible.
  std::vector<bool> written(static_cast<size_t>(g.num_edges()), false);
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    if (written[static_cast<size_t>(e)]) continue;
    const auto& ed = g.edge(e);
    // Find an unwritten reverse edge with equal capacity.
    EdgeId reverse = graph::kInvalidEdge;
    for (EdgeId r : g.out_edges(ed.dst)) {
      if (!written[static_cast<size_t>(r)] && g.edge(r).dst == ed.src &&
          g.edge(r).capacity == ed.capacity && r != e) {
        reverse = r;
        break;
      }
    }
    if (reverse != graph::kInvalidEdge) {
      written[static_cast<size_t>(reverse)] = true;
      os << "link " << ed.src << " " << ed.dst << " " << ed.capacity << "\n";
    } else {
      os << "edge " << ed.src << " " << ed.dst << " " << ed.capacity << "\n";
    }
    written[static_cast<size_t>(e)] = true;
  }
}

void save_topology_file(const std::string& path, const DiGraph& g) {
  std::ofstream os(path, std::ios::trunc);
  if (!os) throw util::IoError("save_topology_file: cannot open " + path);
  save_topology(os, g);
  if (!os) throw util::IoError("save_topology_file: write failed");
}

namespace {

[[noreturn]] void fail(int line, const std::string& message) {
  throw util::IoError("load_topology: line " + std::to_string(line) +
                           ": " + message);
}

}  // namespace

DiGraph load_topology(std::istream& is) {
  std::string line;
  int line_no = 0;

  auto next_meaningful = [&](std::string& out) {
    while (std::getline(is, line)) {
      ++line_no;
      const auto first = line.find_first_not_of(" \t\r");
      if (first == std::string::npos || line[first] == '#') continue;
      out = line;
      return true;
    }
    return false;
  };

  std::string header;
  if (!next_meaningful(header) || header.rfind("gddr-topology", 0) != 0) {
    fail(line_no, "missing 'gddr-topology' header");
  }

  std::string name;
  int num_nodes = -1;
  struct PendingEdge {
    int u, v;
    double capacity;
    bool bidirectional;
    int line;
  };
  std::vector<PendingEdge> edges;

  std::string current;
  while (next_meaningful(current)) {
    std::istringstream ls(current);
    std::string keyword;
    ls >> keyword;
    if (keyword == "name") {
      ls >> name;
    } else if (keyword == "nodes") {
      if (!(ls >> num_nodes) || num_nodes < 0) fail(line_no, "bad node count");
      if (num_nodes > kMaxTopologyNodes) {
        fail(line_no, "node count above " + std::to_string(kMaxTopologyNodes));
      }
    } else if (keyword == "link" || keyword == "edge") {
      PendingEdge e{};
      if (!(ls >> e.u >> e.v >> e.capacity)) {
        fail(line_no, "expected '<u> <v> <capacity>'");
      }
      e.bidirectional = (keyword == "link");
      e.line = line_no;
      edges.push_back(e);
    } else {
      fail(line_no, "unknown keyword '" + keyword + "'");
    }
  }
  if (num_nodes < 0) fail(line_no, "missing 'nodes' declaration");

  DiGraph g(num_nodes, name);
  for (const auto& e : edges) {
    if (e.u < 0 || e.u >= num_nodes || e.v < 0 || e.v >= num_nodes) {
      fail(e.line, "node id out of range");
    }
    if (e.capacity <= 0.0) fail(e.line, "capacity must be positive");
    if (e.u == e.v) fail(e.line, "self-loop");
    if (e.bidirectional) {
      g.add_bidirectional(e.u, e.v, e.capacity);
    } else {
      g.add_edge(e.u, e.v, e.capacity);
    }
  }
  return g;
}

DiGraph load_topology_file(const std::string& path) {
  std::ifstream is(path);
  if (!is) throw util::IoError("load_topology_file: cannot open " + path);
  return load_topology(is);
}

}  // namespace gddr::topo
