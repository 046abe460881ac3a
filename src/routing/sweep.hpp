// The per-destination propagation step shared by routing::simulate and the
// fused routing::softmin_simulate, so both produce the same bits.
//
// Each destination t's demand is swept through row t in pull form: a
// vertex u holds
//     a(u) = injection(u) + sum of a(src) * r(e)
// over u's in-edges e with r(e) > 0, added in g.in_edges(u) order, and
// edge e carries a(src) * r(e).  Every term is final before u is visited
// in any topological order of the row's positive-ratio edges, and the
// order of the sum is fixed by in_edges, so Kahn's order (simulate) and
// reverse Dijkstra settle order (softmin_simulate) give identical loads.
//
// A vertex is visited once and pulls each in-edge once, so one
// destination adds at most one term to each edge's load.  That is what
// lets softmin_simulate shard destinations: a helper task pulls t into a
// zeroed row of its own, whose entry e is exactly the term the serial
// sweep would add, and the caller adds the rows to the loads in
// destination order (adding +0.0 where t sent nothing changes no bit).
#pragma once

#include <span>
#include <vector>

#include "graph/digraph.hpp"
#include "routing/routing.hpp"
#include "traffic/demand.hpp"

namespace gddr::routing::sweep {

// Per-destination sweep state: each vertex's injected demand and the
// traffic through it.  `through` stays 0 until the vertex is visited.
struct Buffers {
  std::vector<double> injection;
  std::vector<double> through;
};

// Loads every source's demand toward `t` into `buf.injection` (zero where
// there is none; a NaN demand counts as demand), clears `buf.through`, and
// adds the demand to `injected`.  Returns whether any source has demand
// toward t.
inline bool inject(const traffic::DemandMatrix& dm, graph::NodeId t,
                   Buffers& buf, double& injected) {
  const auto n = static_cast<std::size_t>(dm.num_nodes());
  buf.injection.resize(n);
  buf.through.assign(n, 0.0);
  bool any = false;
  for (graph::NodeId s = 0; s < dm.num_nodes(); ++s) {
    const double d = s == t ? 0.0 : dm.at(s, t);
    if (d <= 0.0) {
      buf.injection[static_cast<std::size_t>(s)] = 0.0;
      continue;
    }
    buf.injection[static_cast<std::size_t>(s)] = d;
    injected += d;
    any = true;
  }
  return any;
}

// Visits `u`: pulls destination t's traffic into it (see the file comment)
// and adds each in-edge's flow to `load`.  The destination forwards
// nothing, and a source holding no traffic, or not visited yet, sends
// none.  So an edge that a topological order does not constrain (a NaN
// ratio fails the r > 0 test that builds simulate's order) carries traffic
// only when its source was visited first: the verdict the per-pair
// reference's push sweep gives on the same corrupted row.
inline void pull(const graph::DiGraph& g, std::span<const double> ratios,
                 graph::NodeId t, graph::NodeId u, Buffers& buf,
                 std::span<double> load) {
  double a = buf.injection[static_cast<std::size_t>(u)];
  for (graph::EdgeId e : g.in_edges(u)) {
    const double r = ratios[static_cast<std::size_t>(e)];
    if (r <= 0.0) continue;
    const graph::NodeId src = g.edge(e).src;
    const double from = buf.through[static_cast<std::size_t>(src)];
    if (src == t || from <= 0.0) continue;
    const double sent = from * r;
    load[static_cast<std::size_t>(e)] += sent;
    a += sent;
  }
  buf.through[static_cast<std::size_t>(u)] = a;
}

// Checks conservation (when strict) of `injected` against
// `result.delivered`, then fills the per-edge utilisation and U_max from
// `result.link_load`.  Throws std::runtime_error on a strict violation.
void finish(const graph::DiGraph& g, double injected,
            const SimulateOptions& options, SimulationResult& result);

}  // namespace gddr::routing::sweep
