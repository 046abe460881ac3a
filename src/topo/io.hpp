// Topology file I/O.
//
// The Internet Topology Zoo ships GraphML, which is overkill for the
// information this library uses (named nodes, links, capacities).  This
// module defines a minimal line-based text format so users can bring
// their own topologies (including ones converted from the Zoo) and export
// the embedded catalogue:
//
//     gddr-topology v1
//     name Abilene
//     nodes 11
//     link 0 1 9920        # bidirectional link with capacity
//     edge 3 4 2480        # single directed edge
//     # comments and blank lines are ignored
//
// The loader is strict: a token left over on any line, a repeated `name`
// or `nodes`, and a directed pair given twice (by `link` or `edge`) are
// errors, so a typo cannot silently change the graph.
//
#pragma once

#include <iosfwd>
#include <string>

#include "graph/digraph.hpp"

namespace gddr::topo {

// Writes `g` in the format above (directed edges that pair up into
// equal-capacity bidirectional links are emitted as one `link` line).
// Throws util::IoError, writing nothing, for a graph the loader would
// reject: a name holding whitespace or starting with '#', or a repeated
// directed pair.
void save_topology(std::ostream& os, const graph::DiGraph& g);
void save_topology_file(const std::string& path, const graph::DiGraph& g);

// Largest `nodes` count load_topology accepts.  The graph is sized from
// that count before any link is read, so an unchecked count is an
// allocation the file's size does not bound.  Far above every catalogue
// and Topology Zoo graph.
inline constexpr int kMaxTopologyNodes = 65536;

// Parses the format above.  Throws util::IoError with a line number on
// malformed input (as do the writers on filesystem failure), so CLI
// callers map bad topology files to the I/O exit code.
graph::DiGraph load_topology(std::istream& is);
graph::DiGraph load_topology_file(const std::string& path);

}  // namespace gddr::topo
