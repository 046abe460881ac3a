#include "topo/io.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <fstream>
#include <string_view>
#include <vector>

#include "util/error.hpp"
#include "util/parse.hpp"

namespace gddr::topo {

using graph::DiGraph;
using graph::EdgeId;

namespace {

[[noreturn]] void fail(int line, const std::string& message) {
  throw util::IoError("load_topology: line " + std::to_string(line) +
                           ": " + message);
}

bool is_blank(char c) {
  return c == ' ' || c == '\t' || c == '\r' || c == '\n' || c == '\v' ||
         c == '\f';
}

// The whitespace-separated tokens of `line`, up to a token that starts a
// '#' comment.
std::vector<std::string_view> tokens_of(std::string_view line) {
  std::vector<std::string_view> tokens;
  std::size_t i = 0;
  while (i < line.size()) {
    if (is_blank(line[i])) {
      ++i;
      continue;
    }
    if (line[i] == '#') break;
    const std::size_t start = i;
    while (i < line.size() && !is_blank(line[i])) ++i;
    tokens.push_back(line.substr(start, i - start));
  }
  return tokens;
}

bool name_is_loadable(const std::string& name) {
  return std::none_of(name.begin(), name.end(), is_blank) &&
         (name.empty() || name.front() != '#');
}

// The shortest decimal text that reads back as exactly `capacity`
// (std::to_chars), where the stream default keeps only 6 significant
// digits and would save 1234567 as 1.23457e+06.
std::string capacity_text(double capacity) {
  char buffer[32];  // the longest shortest-form double needs 24
  const auto result = std::to_chars(buffer, buffer + sizeof(buffer), capacity);
  return {buffer, result.ptr};
}

}  // namespace

void save_topology(std::ostream& os, const DiGraph& g) {
  if (!name_is_loadable(g.name())) {
    throw util::IoError("save_topology: graph name '" + g.name() +
                        "' holds whitespace or starts with '#'; "
                        "load_topology could not read it back");
  }
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    if (g.find_edge(g.edge(e).src, g.edge(e).dst) != e) {
      throw util::IoError("save_topology: repeated directed pair " +
                          std::to_string(g.edge(e).src) + "->" +
                          std::to_string(g.edge(e).dst) +
                          "; load_topology would reject it");
    }
  }
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
    const bool link = reverse != graph::kInvalidEdge;
    if (link) written[static_cast<size_t>(reverse)] = true;
    os << (link ? "link " : "edge ") << ed.src << " " << ed.dst << " "
       << capacity_text(ed.capacity) << "\n";
    written[static_cast<size_t>(e)] = true;
  }
}

void save_topology_file(const std::string& path, const DiGraph& g) {
  std::ofstream os(path, std::ios::trunc);
  if (!os) throw util::IoError("save_topology_file: cannot open " + path);
  save_topology(os, g);
  if (!os) throw util::IoError("save_topology_file: write failed");
}

DiGraph load_topology(std::istream& is) {
  std::string line;
  int line_no = 0;
  std::vector<std::string_view> tokens;

  // Reads up to the next line with a token; false at end of input.
  auto next_meaningful = [&] {
    while (std::getline(is, line)) {
      ++line_no;
      tokens = tokens_of(line);
      if (!tokens.empty()) return true;
    }
    return false;
  };
  // Requires exactly `count` tokens on the current line.
  auto expect_tokens = [&](std::size_t count, const std::string& usage) {
    if (tokens.size() > count) {
      fail(line_no, "unexpected token '" + std::string(tokens[count]) +
                        "' after '" + usage + "'");
    }
    if (tokens.size() < count) fail(line_no, "expected '" + usage + "'");
  };

  if (!next_meaningful() || tokens.size() != 2 ||
      tokens[0] != "gddr-topology" || tokens[1] != "v1") {
    fail(line_no, "missing 'gddr-topology v1' header");
  }

  std::string name;
  bool named = false;
  int num_nodes = -1;
  struct PendingEdge {
    int u, v;
    double capacity;
    bool bidirectional;
    int line;
  };
  std::vector<PendingEdge> edges;

  while (next_meaningful()) {
    const std::string_view keyword = tokens[0];
    if (keyword == "name") {
      if (named) fail(line_no, "repeated 'name'");
      expect_tokens(2, "name <name>");
      name = std::string(tokens[1]);
      named = true;
    } else if (keyword == "nodes") {
      if (num_nodes >= 0) fail(line_no, "repeated 'nodes'");
      expect_tokens(2, "nodes <count>");
      if (!util::parse_number(tokens[1], num_nodes) || num_nodes < 0) {
        fail(line_no, "bad node count '" + std::string(tokens[1]) + "'");
      }
      if (num_nodes > kMaxTopologyNodes) {
        fail(line_no, "node count above " + std::to_string(kMaxTopologyNodes));
      }
    } else if (keyword == "link" || keyword == "edge") {
      PendingEdge e{};
      const std::string usage = std::string(keyword) + " <u> <v> <capacity>";
      expect_tokens(4, usage);
      if (!util::parse_number(tokens[1], e.u) ||
          !util::parse_number(tokens[2], e.v) ||
          !util::parse_number(tokens[3], e.capacity)) {
        fail(line_no, "expected '" + usage + "'");
      }
      e.bidirectional = (keyword == "link");
      e.line = line_no;
      edges.push_back(e);
    } else {
      fail(line_no, "unknown keyword '" + std::string(keyword) + "'");
    }
  }
  if (num_nodes < 0) fail(line_no, "missing 'nodes' declaration");

  DiGraph g(num_nodes, name);
  for (const auto& e : edges) {
    if (e.u < 0 || e.u >= num_nodes || e.v < 0 || e.v >= num_nodes) {
      fail(e.line, "node id out of range");
    }
    if (!(e.capacity > 0.0) || !std::isfinite(e.capacity)) {
      fail(e.line, "capacity must be positive and finite");
    }
    if (e.u == e.v) fail(e.line, "self-loop");
    const auto check_new = [&](int src, int dst) {
      if (g.find_edge(src, dst)) {
        fail(e.line, "repeated directed pair " + std::to_string(src) + "->" +
                         std::to_string(dst));
      }
    };
    check_new(e.u, e.v);
    if (e.bidirectional) check_new(e.v, e.u);
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
