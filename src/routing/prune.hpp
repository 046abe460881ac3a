// Per-flow DAG pruning (paper §VI, Figure 3) — reference / ablation only.
//
// Production softmin_routing always uses the downhill DAG, built once per
// destination (softmin.hpp).  These per-(source, sink) masks feed the
// per-pair reference translation (reference.hpp) and bench_prune_ablation;
// they are part of gddr_routing_reference.
//
// Softmin routing derives splitting ratios from edge weights, but raw
// softmin ratios can create routing loops.  The paper converts the graph
// into a per-flow DAG first, keeping more than just shortest paths so that
// multipath load-balancing remains possible.
//
// Three modes are provided:
//
//  * kFrontierMeet — reproduction of the paper's Figure-3 algorithm: run
//    Dijkstra from the source recording parents and "frontier meets"
//    (edges that hit an already-explored vertex), trace the sink-to-source
//    parent chain marking on-path vertices, graft a path across each
//    frontier meet whose two on-path ancestors sit at different distances
//    to the sink, and finally drop edges between off-path vertices and
//    anti-parent edges.  The paper's pseudocode leaves the orientation of
//    some surviving on-path edges unspecified (which taken literally can
//    re-introduce 2-cycles); we resolve exactly those leftovers by keeping
//    an edge only when its induced distance-to-sink strictly decreases,
//    which is the invariant every explicitly-kept edge already satisfies.
//
//  * kDistanceToSink — keep edge (u,v) iff dist(u→t) > dist(v→t) under the
//    given weights: the classic "downhill" DAG.  Strictly decreasing
//    potential makes it loop-free while retaining every edge that makes
//    progress toward the sink.
//
//  * kDistanceFromSource — keep edge (u,v) iff dist(s→u) < dist(s→v):
//    orientation by Dijkstra exploration order from the source.
//
// All modes additionally restrict the mask to edges lying on some s→t path
// so that every retained edge leads to the sink, and all guarantee
// acyclicity and s→t reachability (verified by property tests).
#pragma once

#include <vector>

#include "graph/digraph.hpp"

namespace gddr::routing {

enum class PruneMode { kFrontierMeet, kDistanceToSink, kDistanceFromSource };

// Edge mask (size num_edges) of the pruned DAG for flow (s,t) under the
// given positive edge weights.  Throws std::runtime_error if t is not
// reachable from s.
std::vector<bool> prune_dag(const graph::DiGraph& g, graph::NodeId s,
                            graph::NodeId t,
                            const std::vector<double>& weights,
                            PruneMode mode);

// Restricts `mask` to edges on some s->t path within the mask (drops edges
// not reachable from s or not co-reachable to t).  Exposed for tests.
void restrict_to_st_paths(const graph::DiGraph& g, graph::NodeId s,
                          graph::NodeId t, std::vector<bool>& mask);

}  // namespace gddr::routing
