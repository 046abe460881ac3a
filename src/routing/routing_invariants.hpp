// Routing-layer invariant validators for the debug-contract layer
// (util/contract.hpp).  The softmin translation runs these through
// GDDR_VALIDATE on every routing it produces; tests call them directly on
// deliberately corrupted routings.  Each throws util::ContractViolation.
#pragma once

#include <string_view>

#include "graph/digraph.hpp"
#include "routing/routing.hpp"

namespace gddr::routing {

// The §IV-A validity contract of a destination-based routing, per
// destination t (row t of the table):
//  * absorption  — t forwards none of its own traffic;
//  * stochastic  — at every vertex with positive out-mass in row t, the
//                  out-edge ratios sum to 1 within `tol` and each ratio
//                  lies in [0, 1];
//  * reachability — a vertex that cannot reach t carries no ratios toward
//                  it (the translation must skip such vertices, not invent
//                  splits for them);
//  * acyclicity  — row t's positive-ratio edge set is a DAG, so simulate()
//                  can propagate without loops.
void check_softmin_routing(const graph::DiGraph& g, const Routing& routing,
                           double tol, std::string_view label);

}  // namespace gddr::routing
