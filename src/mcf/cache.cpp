#include "mcf/cache.hpp"

#include <bit>

#include "mcf/optimal.hpp"
#include "obs/metrics.hpp"
#include "util/error.hpp"

namespace gddr::mcf {
namespace {

constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

void mix(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xFF;
    h *= kFnvPrime;
  }
}

void mix_double(std::uint64_t& h, double d) {
  mix(h, std::bit_cast<std::uint64_t>(d));
}

}  // namespace

std::uint64_t graph_fingerprint(const graph::DiGraph& g) {
  std::uint64_t h = kFnvOffset;
  mix(h, static_cast<std::uint64_t>(g.num_nodes()));
  for (const auto& e : g.edges()) {
    mix(h, static_cast<std::uint64_t>(e.src));
    mix(h, static_cast<std::uint64_t>(e.dst));
    mix_double(h, e.capacity);
  }
  return h;
}

std::uint64_t demand_fingerprint(const traffic::DemandMatrix& dm) {
  std::uint64_t h = kFnvOffset;
  mix(h, static_cast<std::uint64_t>(dm.num_nodes()));
  for (double d : dm.raw()) mix_double(h, d);
  return h;
}

OptimalCache::OptimalCache(std::size_t capacity)
    : capacity_(capacity > 0 ? capacity : 1) {}

std::uint64_t OptimalCache::key_for(const graph::DiGraph& g,
                                    const traffic::DemandMatrix& dm) const {
  std::uint64_t key = graph_fingerprint(g);
  const std::uint64_t dk = demand_fingerprint(dm);
  // Combine the two fingerprints order-sensitively.
  key ^= dk + 0x9E3779B97F4A7C15ULL + (key << 6) + (key >> 2);
  return key;
}

bool OptimalCache::lookup(std::uint64_t key, double& value) {
  const util::MutexLock lock(mutex_);
  const auto it = map_.find(key);
  if (it == map_.end()) {
    ++misses_;
    obs::count("mcf/cache/miss");
    return false;
  }
  ++hits_;
  obs::count("mcf/cache/hit");
  order_.splice(order_.begin(), order_, it->second.recency);
  value = it->second.value;
  return true;
}

void OptimalCache::insert(std::uint64_t key, double value) {
  const util::MutexLock lock(mutex_);
  if (map_.find(key) != map_.end()) return;  // lost a benign race
  while (map_.size() >= capacity_) {
    map_.erase(order_.back());
    order_.pop_back();
    ++evictions_;
    obs::count("mcf/cache/evict");
  }
  order_.push_front(key);
  map_.emplace(key, Entry{value, order_.begin()});
}

double OptimalCache::u_max(const graph::DiGraph& g,
                           const traffic::DemandMatrix& dm) {
  const std::uint64_t key = key_for(g, dm);
  double value = 0.0;
  if (lookup(key, value)) return value;
  OptimalResult result;
  {
    obs::ScopedTimer solve_timer("mcf/solve");
    result = solve_optimal(g, dm);  // LP runs outside the lock
  }
  if (result.provenance == SolveProvenance::kFailed) {
    throw util::SolverError("OptimalCache: LP infeasible/unsolved");
  }
  {
    const util::MutexLock lock(mutex_);
    if (result.provenance == SolveProvenance::kExact) {
      ++exact_solves_;
      obs::count("mcf/solve/exact");
    } else {
      ++approx_solves_;
      obs::count("mcf/solve/approx");
    }
  }
  insert(key, result.u_max);
  return result.u_max;
}

std::size_t OptimalCache::size() const {
  const util::MutexLock lock(mutex_);
  return map_.size();
}

std::size_t OptimalCache::hits() const {
  const util::MutexLock lock(mutex_);
  return hits_;
}

std::size_t OptimalCache::misses() const {
  const util::MutexLock lock(mutex_);
  return misses_;
}

std::size_t OptimalCache::evictions() const {
  const util::MutexLock lock(mutex_);
  return evictions_;
}

std::size_t OptimalCache::exact_solves() const {
  const util::MutexLock lock(mutex_);
  return exact_solves_;
}

std::size_t OptimalCache::approx_solves() const {
  const util::MutexLock lock(mutex_);
  return approx_solves_;
}

void OptimalCache::clear() {
  const util::MutexLock lock(mutex_);
  map_.clear();
  order_.clear();
  hits_ = 0;
  misses_ = 0;
  evictions_ = 0;
  exact_solves_ = 0;
  approx_solves_ = 0;
}

}  // namespace gddr::mcf
