// Routing strategies and their simulation (paper §IV-A).
//
// A routing gives, for every destination t and vertex v, the fraction of
// the destination-t traffic transiting v that is forwarded along each of
// v's out-edges.  Every production strategy is destination-based: the
// downhill softmin translation, shortest paths, ECMP and the LP-derived
// routing all send every source bound for t through the same splitting
// ratios, so one |V| x |E| table (row t = the ratios toward t) holds the
// whole strategy.  A valid routing loses no traffic before the destination
// (ratios at a transit vertex sum to 1 over the vertex's used out-edges)
// and absorbs everything at the destination (all of t's ratios in row t
// are zero).  Ablation-only strategies that need per-(source, destination)
// ratios live in routing/reference.hpp.
//
// `simulate` sums each destination's demand into per-node injections,
// propagates them through row t in one topological sweep, and returns the
// per-link loads and the max link utilisation U_max — the quantity the
// whole system optimises (paper Eq. 1).  The sweep is in pull form: a
// vertex sums the traffic its positive-ratio in-edges bring, in in_edges
// order, so its total does not depend on which topological order visits
// it.  That is what lets routing::softmin_simulate (softmin.hpp) walk
// reverse Dijkstra settle order instead of Kahn's and still return the
// same bits.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "graph/digraph.hpp"
#include "traffic/demand.hpp"

namespace gddr::routing {

class Routing {
 public:
  Routing() = default;
  // Creates an all-zero routing for a graph with `num_nodes` nodes and
  // `num_edges` edges.
  Routing(int num_nodes, int num_edges);

  int num_nodes() const { return n_; }
  int num_edges() const { return ne_; }

  // Share of the destination-`t` traffic at edge e's tail sent along e.
  double ratio(int t, graph::EdgeId e) const { return ratios_[index(t, e)]; }
  void set_ratio(int t, graph::EdgeId e, double value);

  // All per-edge ratios toward destination `t` (row t of the table).
  std::span<const double> dest_ratios(int t) const {
    return {ratios_.data() + index(t, 0), static_cast<std::size_t>(ne_)};
  }
  // Writable row t.  Unlike set_ratio it stores any value unchecked: the
  // softmin translation writes its shares, already in [0, 1], through it,
  // and tests plant the corruptions the validators must reject.
  std::span<double> mutable_dest_ratios(int t) {
    return {ratios_.data() + index(t, 0), static_cast<std::size_t>(ne_)};
  }

 private:
  std::size_t index(int t, graph::EdgeId e) const {
    return static_cast<std::size_t>(t) * static_cast<std::size_t>(ne_) +
           static_cast<std::size_t>(e);
  }

  int n_ = 0;
  int ne_ = 0;
  std::vector<double> ratios_;
};

struct SimulationResult {
  // Traffic volume per edge.
  std::vector<double> link_load;
  // load / capacity per edge.
  std::vector<double> link_utilisation;
  // max over edges of link_utilisation (paper Eq. 1).
  double u_max = 0.0;
  // Total demand that reached its destination; simulate() verifies this
  // matches the injected demand.
  double delivered = 0.0;
};

struct SimulateOptions {
  // Relative tolerance for the delivered-traffic conservation check.
  double conservation_tolerance = 1e-6;
  // If true, a destination whose splitting ratios contain a cycle or lose
  // traffic raises std::runtime_error; if false the loss is reported via
  // `delivered` only.
  bool strict = true;
};

// Propagates `dm` through `routing` on `g`, one pull sweep in Kahn order
// per destination with demand.  Each such destination's positive-ratio
// edge set must be acyclic (guaranteed by the softmin translation's
// downhill DAG); cycles raise std::runtime_error.  For a fresh softmin
// routing, routing::softmin_simulate gives the same result in one pass.
SimulationResult simulate(const graph::DiGraph& g, const Routing& routing,
                          const traffic::DemandMatrix& dm,
                          const SimulateOptions& options);
SimulationResult simulate(const graph::DiGraph& g, const Routing& routing,
                          const traffic::DemandMatrix& dm);

// Validates the §IV-A constraints for every destination t with demand in
// `dm`:
// (1) at every vertex that carries traffic toward t (reachable through
//     positive ratios from a source with demand to t) and is not t, the
//     out-ratios sum to 1;
// (2) at t all out-ratios are 0.
// Returns true and leaves `error` empty when valid.
bool validate(const graph::DiGraph& g, const Routing& routing,
              const traffic::DemandMatrix& dm, std::string* error);

// Serving-path pre-simulation validator: for every destination with
// demand in `dm`, checks destination absorption and that every ratio in
// its row is finite and in [0,1].  It deliberately covers only what strict
// simulation cannot — NaN ratios evade the conservation check (NaN
// comparisons are false) and absorption violations are invisible to the
// propagation sweep — while loops and row-sum violations are left to
// strict simulation: simulate's Kahn order finds loops (softmin_simulate
// writes only downhill ratios, so it has none) and the conservation check
// finds leaks.  The pair covers the
// full §IV-A contract at a fraction of validate()'s cost (a plain
// O(destinations x E) scan, no reachability search).  Never throws:
// returns false with `error` describing the first violation.
bool validate_for_serving(const graph::DiGraph& g, const Routing& routing,
                          const traffic::DemandMatrix& dm,
                          std::string* error);

}  // namespace gddr::routing
