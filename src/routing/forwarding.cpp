#include "routing/forwarding.hpp"

#include <cstdio>
#include <sstream>

namespace gddr::routing {

using graph::DiGraph;
using graph::EdgeId;
using graph::NodeId;

std::vector<FlowTableEntry> to_flow_tables(const DiGraph& g,
                                           const Routing& routing) {
  std::vector<FlowTableEntry> tables;
  for (NodeId t = 0; t < g.num_nodes(); ++t) {
    const auto ratios = routing.dest_ratios(t);
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      if (v == t) continue;
      FlowTableEntry entry;
      entry.node = v;
      entry.destination = t;
      for (EdgeId e : g.out_edges(v)) {
        const double share = ratios[static_cast<size_t>(e)];
        if (share > 0.0) {
          entry.next_hops.push_back(NextHop{e, g.edge(e).dst, share});
        }
      }
      if (!entry.next_hops.empty()) tables.push_back(std::move(entry));
    }
  }
  return tables;
}

std::string format_flow_table(const DiGraph& g,
                              const std::vector<FlowTableEntry>& tables,
                              NodeId node) {
  std::ostringstream os;
  os << "flow table for node " << node << ":\n";
  for (const auto& entry : tables) {
    if (entry.node != node) continue;
    os << "  dst " << entry.destination << " ->";
    for (const auto& hop : entry.next_hops) {
      char buf[64];
      std::snprintf(buf, sizeof buf, " via %d (%.1f%%)", hop.neighbour,
                    hop.share * 100.0);
      os << buf;
    }
    os << '\n';
  }
  (void)g;
  return os.str();
}

}  // namespace gddr::routing
