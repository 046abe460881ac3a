// Bounded per-topology state for the serving ladder.
//
// Every fallback rung below the learned policy needs topology-derived
// artifacts: the pair-reachability table the sanitiser consults, the
// inverse-capacity softmin routing (rung 3), the hop-count shortest-path
// routing (rung 4), the last-known-good learned routing (rung 2) and the
// normalisation scenario observations are built against.  All of these
// depend only on the topology, so they are computed once per distinct
// graph — keyed by mcf::graph_fingerprint — and reused until LRU
// eviction, exactly the discipline mcf::OptimalCache applies to LP
// solutions.
//
// A cache miss is also the trust boundary: graph::check_topology runs on
// the unseen graph before anything else touches it, so a corrupt
// topology is rejected at ingress instead of corrupting routing state.
//
// Thread safety: one cache is shared by every serve::Engine worker.  The
// index is mutex-guarded, and entries are handed out as
// shared_ptr<const TopologyEntry>, so an in-flight decision pins its
// entry across a concurrent eviction — eviction only drops the cache's
// own reference.  The expensive miss build (Dijkstra per node, two
// routings) runs outside the lock; when two workers race to build the
// same topology, the first insert wins and the loser's build is
// discarded.  Everything in an entry is immutable after construction
// except the rung-2 LastGood box, which synchronises itself.
#pragma once

#include <cstddef>
#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <vector>

#include "core/scenario.hpp"
#include "graph/digraph.hpp"
#include "routing/routing.hpp"
#include "routing/softmin.hpp"
#include "util/sync.hpp"

namespace gddr::serve {

struct TopologyEntry {
  std::uint64_t fingerprint = 0;
  // Row-major num_nodes^2 table: reachable[s * n + t] == some s->t path
  // exists.  Diagonal entries are true.
  std::vector<bool> reachable;
  // Rung 3: demand-oblivious multipath over inverse-capacity weights.
  routing::Routing inverse_capacity;
  // Rung 4: hop-count shortest paths — the cheapest thing that is still a
  // valid routing.
  routing::Routing shortest_path;
  // Graph copy plus feature scales, in the shape
  // core::RoutingEnv::build_observation consumes.
  core::Scenario obs_scenario;

  // Rung 2: the most recent successfully served learned routing.  The
  // one mutable part of an otherwise-immutable shared entry, so it
  // carries its own lock; `mutable` lets workers holding a
  // shared_ptr<const TopologyEntry> update it.
  class LastGood {
   public:
    // Copies the stored routing into `out`; false when none is stored.
    bool load(routing::Routing& out) const GDDR_EXCLUDES(mu_) {
      const util::MutexLock lock(mu_);
      if (!has_) return false;
      out = routing_;
      return true;
    }
    bool has() const GDDR_EXCLUDES(mu_) {
      const util::MutexLock lock(mu_);
      return has_;
    }
    void invalidate() GDDR_EXCLUDES(mu_) {
      const util::MutexLock lock(mu_);
      has_ = false;
      successes_since_refresh_ = 0;
    }
    // Called after every rung-1 success.  Stores `r` when nothing is
    // stored yet or every `refresh_every` successes (1 refreshes every
    // time; each refresh copies one |V| x |E| ratio table under mu_).
    void offer(const routing::Routing& r, int refresh_every)
        GDDR_EXCLUDES(mu_) {
      const util::MutexLock lock(mu_);
      ++successes_since_refresh_;
      if (has_ && successes_since_refresh_ < refresh_every) return;
      routing_ = r;
      has_ = true;
      successes_since_refresh_ = 0;
    }

   private:
    mutable util::Mutex mu_{util::LockRank::kLastGood,
                            "serve/topo_cache/last_good"};
    bool has_ GDDR_GUARDED_BY(mu_) = false;
    routing::Routing routing_ GDDR_GUARDED_BY(mu_);
    long successes_since_refresh_ GDDR_GUARDED_BY(mu_) = 0;
  };
  mutable LastGood last_good;
};

class TopologyCache {
 public:
  using EntryPtr = std::shared_ptr<const TopologyEntry>;

  // `node_feature_scale` / `flat_feature_scale` must match the scales the
  // served policy was trained with (they normalise observation features).
  TopologyCache(std::size_t capacity, routing::SoftminOptions softmin,
                double node_feature_scale, double flat_feature_scale);

  // Returns the entry for `g`, building it on first sight (runs
  // graph::check_topology, which throws util::ContractViolation on a
  // corrupt graph; nothing is cached in that case).  The returned
  // shared_ptr keeps the entry alive for as long as the caller holds it,
  // however many topologies are acquired in between.
  EntryPtr acquire(const graph::DiGraph& g) GDDR_EXCLUDES(mu_);

  // Stats take the reader side of the index lock: they observe without
  // touching recency, so concurrent stat polls never serialise a worker.
  std::size_t size() const GDDR_EXCLUDES(mu_) {
    const util::SharedLock lock(mu_);
    return entries_.size();
  }
  long hits() const GDDR_EXCLUDES(mu_) {
    const util::SharedLock lock(mu_);
    return hits_;
  }
  long misses() const GDDR_EXCLUDES(mu_) {
    const util::SharedLock lock(mu_);
    return misses_;
  }

 private:
  // The expensive part of a miss (validation, Dijkstras, routings); runs
  // with no lock held.
  EntryPtr build_entry(const graph::DiGraph& g, std::uint64_t key) const;

  const std::size_t capacity_;
  const routing::SoftminOptions softmin_;
  const double node_feature_scale_;
  const double flat_feature_scale_;

  struct Slot {
    EntryPtr entry;
    std::list<std::uint64_t>::iterator recency;
  };
  // Reader/writer lock: acquire() is always a writer (even a hit splices
  // the recency list), the stat getters above are readers.
  mutable util::SharedMutex mu_{util::LockRank::kTopologyCache,
                                "serve/topo_cache"};
  std::map<std::uint64_t, Slot> entries_ GDDR_GUARDED_BY(mu_);
  std::list<std::uint64_t> recency_ GDDR_GUARDED_BY(mu_);  // recent at front
  long hits_ GDDR_GUARDED_BY(mu_) = 0;
  long misses_ GDDR_GUARDED_BY(mu_) = 0;
};

}  // namespace gddr::serve
