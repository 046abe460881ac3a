#include "routing/softmin.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <exception>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string_view>

#include "graph/algorithms.hpp"
#include "routing/routing_invariants.hpp"
#include "routing/sweep.hpp"
#include "util/contract.hpp"

namespace gddr::routing {

using graph::DiGraph;
using graph::EdgeId;
using graph::NodeId;
using traffic::DemandMatrix;

namespace {

// softmin(x) into `out` (same size as x, x non-empty, gamma > 0).
void softmin_into(std::span<const double> x, double gamma,
                  std::span<double> out) {
  const double lo = *std::min_element(x.begin(), x.end());
  double sum = 0.0;
  for (size_t i = 0; i < x.size(); ++i) {
    // exp(-0) is exactly 1, so the minimum needs no exp call.
    out[i] = x[i] == lo ? 1.0 : std::exp(-gamma * (x[i] - lo));
    sum += out[i];
  }
  for (double& v : out) v /= sum;
}

}  // namespace

std::vector<double> softmin(std::span<const double> x, double gamma) {
  if (x.empty()) throw std::invalid_argument("softmin: empty input");
  if (!(gamma > 0.0)) throw std::invalid_argument("softmin: gamma <= 0");
  std::vector<double> out(x.size());
  softmin_into(x, gamma, out);
  return out;
}

namespace {

constexpr double kTieTol = 1e-12;

// Buffers reused by every destination of one translation.
struct Workspace {
  graph::DijkstraWorkspace paths;
  // The current vertex's downhill out-edges, their softmin inputs and
  // their shares; sized to the largest out-degree.
  std::vector<EdgeId> out;
  std::vector<double> cost;
  std::vector<double> share;
  sweep::Buffers traffic;  // the destination's demand being swept
};

// Writes v's shares into `row` (row t): softmin(edge weight + distance to
// t) over v's downhill out-edges, those that strictly decrease the
// distance to t.  The downhill DAG depends only on t, and restricting it
// to s->t paths (the per-flow view) only removes edges at vertices
// unreachable from s, vertices that carry no traffic of flow (s,t) anyway,
// so one row serves every source.  Needs the final distances of v's
// downhill neighbours.
void write_shares(const DiGraph& g, [[maybe_unused]] NodeId t, NodeId v,
                  const std::vector<double>& weights,
                  const SoftminOptions& options, Workspace& ws,
                  std::span<double> row) {
  const auto& dist = ws.paths.dist();
  const double dv = dist[static_cast<size_t>(v)];
  size_t k = 0;
  for (EdgeId e : g.out_edges(v)) {
    const double du = dist[static_cast<size_t>(g.edge(e).dst)];
    // Downhill filter: strictly decreasing distance to the sink (an
    // unreachable neighbour's infinite distance never passes).  Written
    // without a branch: every edge is stored, and only a downhill one
    // advances k.
    ws.out[k] = e;
    ws.cost[k] = weights[static_cast<size_t>(e)] + du;
    k += dv > du + kTieTol ? 1 : 0;
  }
  if (k == 0) return;
  // One downhill edge takes everything: softmin gives it exactly 1, and
  // the floor cannot change that.
  if (k == 1) {
    row[static_cast<size_t>(ws.out[0])] = 1.0;
    return;
  }
  const std::span<const double> cost(ws.cost.data(), k);
  const std::span<double> ratios(ws.share.data(), k);
  softmin_into(cost, options.gamma, ratios);
  double sum = 0.0;
  for (double& r : ratios) {
    if (r < options.ratio_floor) r = 0.0;
    sum += r;
  }
  if (sum <= 0.0) {
    const auto best = static_cast<size_t>(
        std::min_element(cost.begin(), cost.end()) - cost.begin());
    std::fill(ratios.begin(), ratios.end(), 0.0);
    ratios[best] = 1.0;
    sum = 1.0;
  }
  // The renormalised shares form one splitting row; it must be
  // row-stochastic or downstream simulation loses traffic at v.
  GDDR_VALIDATE([&] {
    std::vector<double> shares(k);
    for (size_t i = 0; i < k; ++i) shares[i] = ratios[i] / sum;
    double row_sum = 0.0;
    if (!util::contract::row_stochastic(shares, 1e-9, &row_sum)) {
      util::contract::violate_invariant(
          "softmin shares are row-stochastic", "routing/softmin/row",
          util::contract::describe("dest", t, "vertex", v, "row_sum",
                                   row_sum));
    }
  }());
  // Each share is r / sum with r <= sum, so it lies in [0, 1].
  for (size_t i = 0; i < k; ++i) {
    const double share = ratios[i] / sum;
    if (share > 0.0) row[static_cast<size_t>(ws.out[i])] = share;
  }
}

// One destination t: a reverse Dijkstra toward t, then, in reverse settle
// order, each vertex's row-t shares and, when `pulls`, the pull of t's
// demand (already injected into ws.traffic) into the vertex, adding each
// edge's flow to `load`.  A share goes only to an edge toward a vertex
// that settled earlier (strictly smaller distance), so reverse settle
// order is a topological order of row t's positive-ratio edges: when a
// vertex pulls, the sources of its in-edges have their shares written and
// their traffic final.  No loop check is needed.  A vertex that cannot
// reach t never settles and gets no shares; demand injected there is
// never delivered, which the conservation check reports.  Returns the
// traffic t absorbed (0 when it does not pull).
double sweep_destination(const DiGraph& g, NodeId t,
                         const std::vector<double>& weights,
                         const SoftminOptions& options, bool pulls,
                         Workspace& ws, Routing& routing,
                         std::span<double> load) {
  ws.paths.run(g, t, weights, /*reverse=*/true);
  const std::span<double> row = routing.mutable_dest_ratios(t);
  const auto& order = ws.paths.settle_order();
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    if (*it != t) write_shares(g, t, *it, weights, options, ws, row);
    if (pulls) sweep::pull(g, row, t, *it, ws.traffic, load);
  }
  return pulls ? ws.traffic.through[static_cast<size_t>(t)] : 0.0;
}

// V*E below which softmin_simulate never shards: there a whole sweep costs
// about as much as waking a helper thread.  Abilene (308), Nsfnet (588),
// GeantLike (1 584) and BA25 (2 350) stay serial; BA50 (9 700) and BA100
// (39 400) shard.  Read off bench_routing_micro's sharded_us rows.
constexpr long kShardMinWork = 8000;
// Fewest destinations worth one shard.
constexpr int kMinDestsPerShard = 8;

// The unclaimed destinations [lo, hi) of one sharded sweep, packed as
// lo << 32 | hi.  The caller claims from the bottom and the helpers from
// the top, one destination at a time, so the caller's destinations are
// always a prefix it can add into the running sums as it goes.  Shared
// with the helper tasks, which may start only after the sweep returned:
// a task touches the sweep's frame only after a successful claim, and the
// caller waits for every claimed destination before it returns.
struct Claims {
  explicit Claims(NodeId n) : range(static_cast<std::uint64_t>(n)) {}
  std::atomic<std::uint64_t> range;
  std::atomic<int> helper_done{0};  // helper destinations finished
};

constexpr std::uint64_t kHighMask = 0xffffffffU;

// Claims the lowest unclaimed destination (the caller) or the highest (a
// helper); false once the claims have met.
bool claim(Claims& claims, bool lowest, NodeId& t) {
  std::uint64_t r = claims.range.load(std::memory_order_relaxed);
  while ((r >> 32) < (r & kHighMask)) {
    const std::uint64_t next = lowest ? r + (kHighMask + 1) : r - 1;
    if (claims.range.compare_exchange_weak(r, next,
                                           std::memory_order_relaxed)) {
      t = static_cast<NodeId>(lowest ? r >> 32 : (r & kHighMask) - 1);
      return true;
    }
  }
  return false;
}

// Translates every destination t with the weights `weights_for(t)` and,
// when `dm` is given, simulates it under strict SimulateOptions, on the
// calling thread and `shards` - 1 helper tasks on `pool`.  The caller
// claims destinations from the bottom and sweeps them into the result,
// exactly as the serial sweep; each helper claims from the top with its
// own Workspace and writes the routing row plus, when t has demand, a row
// of t's per-edge load terms and the traffic t absorbed.  Once the claims
// meet and every claimed destination is done, the caller continues the
// three running sums (loads, delivered and injected, the last re-read
// from `dm`) over the helpers' destinations in order, so any shard count
// and any interleaving give the serial bits.  The caller never waits for
// a helper that has not started: a late helper finds nothing to claim.
// The weights must already be checked.
template <class WeightsFor>
SoftminSimulation translate(const DiGraph& g, const WeightsFor& weights_for,
                            const SoftminOptions& options,
                            const DemandMatrix* dm, util::ThreadPool* pool,
                            int shards,
                            [[maybe_unused]] std::string_view label) {
  if (dm != nullptr && dm->num_nodes() != g.num_nodes()) {
    throw std::invalid_argument("softmin_simulate: demand size mismatch");
  }
  shards = std::clamp(shards, 1, std::max(g.num_nodes(), 1));
  if (shards > 1 && pool == nullptr) {
    throw std::invalid_argument("softmin_simulate: shards need a pool");
  }
  const NodeId n = g.num_nodes();
  const auto ne = static_cast<size_t>(g.num_edges());
  SoftminSimulation out{Routing(n, g.num_edges()), {}};
  size_t max_degree = 0;
  for (NodeId v = 0; v < n; ++v) {
    max_degree = std::max(max_degree, g.out_edges(v).size());
  }
  const auto make_workspace = [max_degree] {
    Workspace ws;
    ws.out.resize(max_degree);
    ws.cost.resize(max_degree);
    ws.share.resize(max_degree);
    return ws;
  };
  double injected = 0.0;
  if (dm != nullptr) out.sim.link_load.assign(ne, 0.0);
  Workspace ws = make_workspace();
  // Destination t swept into the result, as the serial sweep does.
  const auto sweep_into_result = [&](NodeId t) {
    const bool pulls =
        dm != nullptr && sweep::inject(*dm, t, ws.traffic, injected);
    const double in = sweep_destination(g, t, weights_for(t), options, pulls,
                                        ws, out.routing, out.sim.link_load);
    if (pulls) out.sim.delivered += in;
  };
  if (shards == 1) {
    for (NodeId t = 0; t < n; ++t) sweep_into_result(t);
  } else {
    // Indexed by destination; only the helpers' entries are written.
    std::unique_ptr<double[]> terms;
    if (dm != nullptr) {
      terms = std::make_unique_for_overwrite<double[]>(
          static_cast<size_t>(n) * ne);
    }
    std::vector<double> absorbed(static_cast<size_t>(n));
    std::vector<std::exception_ptr> errors(static_cast<size_t>(n));
    const auto term_row = [&](NodeId t) {
      return std::span<double>(terms.get() + static_cast<size_t>(t) * ne, ne);
    };
    const auto claims = std::make_shared<Claims>(n);
    const auto helper = [&, claims] {
      // Built on the first claim: a late task must not touch this frame.
      std::optional<Workspace> hws;
      NodeId t = 0;
      while (claim(*claims, /*lowest=*/false, t)) {
        try {
          if (!hws) hws = make_workspace();
          double unused = 0.0;  // the caller re-reads injected in order
          const bool pulls =
              dm != nullptr && sweep::inject(*dm, t, hws->traffic, unused);
          const std::span<double> row =
              pulls ? term_row(t) : std::span<double>();
          std::fill(row.begin(), row.end(), 0.0);
          absorbed[static_cast<size_t>(t)] = sweep_destination(
              g, t, weights_for(t), options, pulls, *hws, out.routing, row);
        } catch (...) {
          errors[static_cast<size_t>(t)] = std::current_exception();
        }
        claims->helper_done.fetch_add(1, std::memory_order_release);
        claims->helper_done.notify_all();
      }
    };
    std::exception_ptr error;
    try {
      for (int shard = 1; shard < shards; ++shard) (void)pool->submit(helper);
      NodeId t = 0;
      while (claim(*claims, /*lowest=*/true, t)) sweep_into_result(t);
    } catch (...) {
      // Every caller destination lies below every helper one, so this is
      // the error the serial sweep would have thrown first.  Claim the
      // rest so the helpers stop.
      error = std::current_exception();
      NodeId skipped = 0;
      while (claim(*claims, /*lowest=*/true, skipped)) {
      }
    }
    // The claims have met: [split, n) went to the helpers.
    const auto split = static_cast<NodeId>(
        claims->range.load(std::memory_order_relaxed) & kHighMask);
    for (int done = claims->helper_done.load(std::memory_order_acquire);
         done < n - split;
         done = claims->helper_done.load(std::memory_order_acquire)) {
      claims->helper_done.wait(done, std::memory_order_acquire);
    }
    if (error) std::rethrow_exception(error);
    for (NodeId t = split; t < n; ++t) {
      if (errors[static_cast<size_t>(t)]) {
        std::rethrow_exception(errors[static_cast<size_t>(t)]);
      }
    }
    if (dm != nullptr) {
      for (NodeId t = split; t < n; ++t) {
        if (!sweep::inject(*dm, t, ws.traffic, injected)) continue;
        const std::span<const double> row = term_row(t);
        for (size_t e = 0; e < ne; ++e) out.sim.link_load[e] += row[e];
        out.sim.delivered += absorbed[static_cast<size_t>(t)];
      }
    }
  }
  GDDR_VALIDATE(check_softmin_routing(g, out.routing, 1e-9, label));
  if (dm != nullptr) sweep::finish(g, injected, SimulateOptions{}, out.sim);
  return out;
}

SoftminSimulation translate_one(const DiGraph& g,
                                const std::vector<double>& weights,
                                const SoftminOptions& options,
                                const DemandMatrix* dm,
                                util::ThreadPool* pool = nullptr,
                                int shards = 1) {
  if (weights.size() != static_cast<size_t>(g.num_edges())) {
    throw std::invalid_argument("softmin_routing: weight size mismatch");
  }
  graph::check_weights(g, weights);
  return translate(
      g, [&](NodeId) -> const std::vector<double>& { return weights; },
      options, dm, pool, shards, "routing/softmin/downhill");
}

SoftminSimulation translate_per_destination(
    const DiGraph& g, const std::vector<std::vector<double>>& weights_by_dest,
    const SoftminOptions& options, const DemandMatrix* dm,
    util::ThreadPool* pool = nullptr, int shards = 1) {
  if (weights_by_dest.size() != static_cast<size_t>(g.num_nodes())) {
    throw std::invalid_argument(
        "softmin_routing_per_destination: need one weight row per node");
  }
  for (const auto& row : weights_by_dest) {
    if (row.empty()) continue;
    if (row.size() != static_cast<size_t>(g.num_edges())) {
      throw std::invalid_argument(
          "softmin_routing_per_destination: weight row size mismatch");
    }
    graph::check_weights(g, row);
  }
  const std::vector<double> unit(static_cast<size_t>(g.num_edges()), 1.0);
  return translate(
      g,
      [&](NodeId t) -> const std::vector<double>& {
        const auto& row = weights_by_dest[static_cast<size_t>(t)];
        return row.empty() ? unit : row;
      },
      options, dm, pool, shards, "routing/softmin/per-destination");
}

}  // namespace

Routing softmin_routing(const DiGraph& g, const std::vector<double>& weights,
                        const SoftminOptions& options) {
  return translate_one(g, weights, options, nullptr).routing;
}

Routing softmin_routing(const DiGraph& g,
                        const std::vector<double>& weights) {
  return softmin_routing(g, weights, SoftminOptions{});
}

Routing softmin_routing_per_destination(
    const DiGraph& g, const std::vector<std::vector<double>>& weights_by_dest,
    const SoftminOptions& options) {
  return translate_per_destination(g, weights_by_dest, options, nullptr)
      .routing;
}

int sweep_shards(const DiGraph& g, const util::ThreadPool* pool) {
  if (pool == nullptr || pool->size() == 0) return 1;
  const NodeId n = g.num_nodes();
  if (static_cast<long>(n) * g.num_edges() < kShardMinWork) return 1;
  return std::max(
      1, std::min(pool->size() + 1,
                  (n + kMinDestsPerShard - 1) / kMinDestsPerShard));
}

SoftminSimulation softmin_simulate(const DiGraph& g,
                                   const std::vector<double>& weights,
                                   const SoftminOptions& options,
                                   const DemandMatrix& dm,
                                   util::ThreadPool* pool) {
  return translate_one(g, weights, options, &dm, pool,
                       sweep_shards(g, pool));
}

SoftminSimulation softmin_simulate_per_destination(
    const DiGraph& g, const std::vector<std::vector<double>>& weights_by_dest,
    const SoftminOptions& options, const DemandMatrix& dm,
    util::ThreadPool* pool) {
  return translate_per_destination(g, weights_by_dest, options, &dm, pool,
                                   sweep_shards(g, pool));
}

SoftminSimulation softmin_simulate_sharded(const DiGraph& g,
                                           const std::vector<double>& weights,
                                           const SoftminOptions& options,
                                           const DemandMatrix& dm,
                                           util::ThreadPool* pool,
                                           int shards) {
  return translate_one(g, weights, options, &dm, pool, shards);
}

SoftminSimulation softmin_simulate_per_destination_sharded(
    const DiGraph& g, const std::vector<std::vector<double>>& weights_by_dest,
    const SoftminOptions& options, const DemandMatrix& dm,
    util::ThreadPool* pool, int shards) {
  return translate_per_destination(g, weights_by_dest, options, &dm, pool,
                                   shards);
}

std::vector<double> weights_from_actions(std::span<const double> actions,
                                         double min_weight,
                                         double max_weight) {
  if (!(min_weight > 0.0) || !(max_weight > min_weight)) {
    throw std::invalid_argument("weights_from_actions: bad weight range");
  }
  std::vector<double> weights(actions.size());
  for (size_t i = 0; i < actions.size(); ++i) {
    const double a = std::clamp(actions[i], -1.0, 1.0);
    weights[i] = min_weight + (a + 1.0) * 0.5 * (max_weight - min_weight);
  }
  return weights;
}

}  // namespace gddr::routing
