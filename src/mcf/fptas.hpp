// Fully-polynomial approximation of optimal congestion via maximum
// concurrent flow (Garg-Konemann / Fleischer multiplicative weights).
//
// For splittable routing, the optimal max utilisation U* of a demand
// matrix equals 1 / lambda*, where lambda* is the largest uniform scaling
// of all demands that still fits within the link capacities (the maximum
// concurrent flow value).  This module approximates lambda* without an LP
// and serves two purposes:
//  * an independent cross-check on the simplex-based `solve_optimal`
//    (property tests assert agreement within the FPTAS guarantee), and
//  * the fallback when the simplex fails (solve_optimal's provenance
//    chain).  It is not a speed path: the crash-started exact LP is faster
//    on every catalogue topology.
#pragma once

#include "graph/digraph.hpp"
#include "traffic/demand.hpp"

namespace gddr::mcf {

struct FptasOptions {
  // Approximation parameter; the returned flow value is within a
  // (1 - 3*epsilon) factor of optimal for small epsilon.
  double epsilon = 0.05;
};

// Approximate maximum concurrent flow value lambda (demand scaling).
// Returns 0 if the demand matrix is empty.
double max_concurrent_flow(const graph::DiGraph& g,
                           const traffic::DemandMatrix& dm,
                           const FptasOptions& options = {});

// Approximate optimal max-utilisation: 1 / max_concurrent_flow.
// Returns 0 for an all-zero demand matrix.
double approx_optimal_u_max(const graph::DiGraph& g,
                            const traffic::DemandMatrix& dm,
                            const FptasOptions& options = {});

}  // namespace gddr::mcf
