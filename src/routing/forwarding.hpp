// Forwarding-table export (paper §IX further work: deploying the learned
// strategies in real-world SDN systems).
//
// A Routing is destination-based by construction, so it compiles directly
// into per-switch flow tables: for each (node, destination) the set of
// next hops with their traffic shares, which maps onto OpenFlow group
// tables with select buckets or onto weighted-ECMP entries.
#pragma once

#include <string>
#include <vector>

#include "graph/digraph.hpp"
#include "routing/routing.hpp"

namespace gddr::routing {

struct NextHop {
  graph::EdgeId edge = graph::kInvalidEdge;
  graph::NodeId neighbour = graph::kInvalidNode;
  double share = 0.0;  // fraction of the (node, destination) traffic
};

struct FlowTableEntry {
  graph::NodeId node = graph::kInvalidNode;
  graph::NodeId destination = graph::kInvalidNode;
  std::vector<NextHop> next_hops;  // shares sum to 1 when non-empty
};

// Compiles a routing into flow tables: one entry per (node, destination)
// pair with at least one next hop, read from row `destination`.
std::vector<FlowTableEntry> to_flow_tables(const graph::DiGraph& g,
                                           const Routing& routing);

// Human-readable rendering of one node's table (for CLI tooling).
std::string format_flow_table(const graph::DiGraph& g,
                              const std::vector<FlowTableEntry>& tables,
                              graph::NodeId node);

}  // namespace gddr::routing
