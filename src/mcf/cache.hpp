// Memoised optimal-congestion oracle.
//
// The paper notes training is CPU-bound on the LP step; since cyclical
// demand sequences repeat a small base cycle of matrices, caching
// U*_max by (graph, demand-matrix) content hash removes nearly all LP
// solves after the first episode.
//
// The cache is bounded (LRU eviction at `capacity` entries) so a
// long multi-topology experiment cannot grow it without limit, and
// thread-safe: lookups/insertions take an internal mutex while LP solves
// run *outside* the lock, so concurrent evaluation workers only serialise
// on the (cheap) map operations.  Two workers racing on the same missing
// key may both solve it; the solver is deterministic, so both arrive at
// the same value and the duplicate insert is a no-op — results never
// depend on thread timing.
#pragma once

#include <cstdint>
#include <list>
#include <unordered_map>

#include "graph/digraph.hpp"
#include "traffic/demand.hpp"
#include "util/sync.hpp"

namespace gddr::mcf {

// FNV-1a content hash of a graph's structure and capacities.
//
// Guarantee: this is a *representation* hash, not an isomorphism hash.
// It digests (num_nodes, then every edge's (src, dst, capacity) in
// storage order), so two DiGraphs hash equal iff they were built with
// the same node count and the same edge sequence (up to the usual
// 64-bit collision odds).  Consequences callers must not be surprised
// by:
//  * Edge order matters: removing an edge and re-adding it appends it
//    at the end of the edge list, so the "same" topology hashes
//    differently from the original.  (operator== has the same
//    order-sensitivity, so fingerprint-equal still tracks graph-equal.)
//  * Node removal compacts ids: DiGraph::without_node renumbers the
//    surviving nodes, so a compacted graph *aliases* a natively built
//    graph with those nodes/edges — deliberately, because after
//    compaction they are the same representation.  Callers tracking
//    topology *identity across mutations* (rather than current
//    structure) must carry their own epoch alongside the fingerprint.
std::uint64_t graph_fingerprint(const graph::DiGraph& g);

// FNV-1a content hash of a demand matrix.
std::uint64_t demand_fingerprint(const traffic::DemandMatrix& dm);

class OptimalCache {
 public:
  // Default capacity comfortably holds every distinct (graph, DM) pair of
  // the paper-scale experiments (hundreds per scenario) while bounding a
  // production-length run to a few MB.
  static constexpr std::size_t kDefaultCapacity = 1 << 16;

  explicit OptimalCache(std::size_t capacity = kDefaultCapacity);

  // Optimal U_max for (g, dm), computed on first use via solve_optimal.
  // A simplex breakdown degrades to the FPTAS (see mcf::SolveOptions)
  // rather than aborting; only a kFailed result — unroutable demand —
  // throws util::SolverError (a std::runtime_error; cannot happen for
  // strongly connected graphs with finite demands).
  double u_max(const graph::DiGraph& g, const traffic::DemandMatrix& dm);

  // Entry cap.
  std::size_t capacity() const { return capacity_; }

  std::size_t size() const;
  std::size_t hits() const;
  std::size_t misses() const;
  std::size_t evictions() const;
  // Provenance of the u_max solves performed on cache misses: how many
  // came back exact (simplex) vs approximate (FPTAS fallback).  A nonzero
  // approximate count means some cached optima carry the FPTAS ε-bound.
  std::size_t exact_solves() const;
  std::size_t approx_solves() const;
  void clear();

 private:
  // unordered_map for O(1) lookup, intrusive recency list for O(1)
  // touch/evict.
  struct Entry {
    double value = 0.0;
    std::list<std::uint64_t>::iterator recency;
  };

  std::uint64_t key_for(const graph::DiGraph& g,
                        const traffic::DemandMatrix& dm) const;

  // Returns true and fills `value` on a hit (refreshing recency).
  bool lookup(std::uint64_t key, double& value) GDDR_EXCLUDES(mutex_);
  // Inserts (evicting the LRU entry when at capacity); idempotent.
  void insert(std::uint64_t key, double value) GDDR_EXCLUDES(mutex_);

  std::size_t capacity_;
  mutable util::Mutex mutex_{util::LockRank::kOptimalCache,
                             "mcf/optimal_cache"};
  std::unordered_map<std::uint64_t, Entry> map_ GDDR_GUARDED_BY(mutex_);
  // front = most recently used
  std::list<std::uint64_t> order_ GDDR_GUARDED_BY(mutex_);
  std::size_t hits_ GDDR_GUARDED_BY(mutex_) = 0;
  std::size_t misses_ GDDR_GUARDED_BY(mutex_) = 0;
  std::size_t evictions_ GDDR_GUARDED_BY(mutex_) = 0;
  std::size_t exact_solves_ GDDR_GUARDED_BY(mutex_) = 0;
  std::size_t approx_solves_ GDDR_GUARDED_BY(mutex_) = 0;
};

}  // namespace gddr::mcf
