// Concurrent batched serving front-end over RobustRouter.
//
// The engine turns the single-request router into a serving system: a
// bounded MPMC queue with load-shedding admission control feeds N worker
// threads, each owning its own RobustRouter but all sharing one
// thread-safe TopologyCache (per-topology artifacts built once for the
// fleet) and one thread-safe CircuitBreaker (a failing policy trips for
// everyone at once).  Each worker micro-batches: it blocks for its next
// job, takes up to max_batch - 1 further jobs already queued behind it
// (any topology; it never waits for a batch to fill), and decides them
// one by one through RobustRouter::decide under the policy version picked
// at the batch boundary.
//
// The engine also owns a helper pool of `workers` threads, apart from the
// workers, with which every router's rung-1 softmin sweep shares its
// destinations (routing::softmin_simulate: the worker sweeps from the
// lowest destination up, helper tasks from the highest down, and the
// worker never waits for a helper that has not started).  Graphs too
// small to pay for a helper's wake-up stay serial, and an engine of 0 or
// 1 workers has an inline pool, so it never shards.  Decisions are
// bit-identical to a plain router's either way.
//
// Admission control never blocks and never drops a future on the floor:
// submit() always returns a future that resolves, either to a decision
// or to a ServeOutcome with shed=true.  A request is shed when
//  * the queue is full (kRejectNewest: the incoming request is shed;
//    kExpiredFirst: the oldest already-past-deadline queued request is
//    evicted to make room first, and only if none has expired is the
//    incoming request shed), or
//  * it is past its queueing deadline by the time a worker dequeues it
//    (serving a stale answer is worse than a fast explicit shed).
// This makes the conservation law exact: offered == served + shed, which
// the serve-bench CI smoke asserts.
//
// workers == 0 selects inline mode: no threads; submit() only enqueues,
// and poll() (or shutdown()) serves the queued jobs synchronously through
// the same batching path.  This keeps the full engine pipeline —
// admission control included, since the queue can actually fill between
// polls — testable single-threaded, and is the deterministic reference
// for the bit-identity leg of bench_serve_throughput.  Inline mode
// assumes a single-threaded caller.
//
// Policy lifecycle seam: the engine owns an RCU-style policy slot.  The
// lifecycle layer installs `std::shared_ptr<const core::GnnPolicy>`
// values (set_policy / set_candidate); each worker re-reads the slot at
// every micro-batch boundary, keeps its own shared_ptr copy for the
// duration of the batch, and installs the raw pointer into its private
// RobustRouter.  A hot swap therefore never tears an in-flight batch,
// the old policy stays alive until the last batch using it completes,
// and every decision is attributable to exactly one policy version.
// A decision observer hook feeds each served decision (post-resolve,
// on the serving thread) to the lifecycle layer for shadow scoring,
// canary gating and NaN rollback.
//
// Exported metrics: serve/engine/shed (counter), serve/engine/queue_depth
// (gauge), serve/engine/batch_size and serve/engine/latency_us
// (histograms); lifecycle/version (gauge) and lifecycle/swaps (counter)
// on set_policy.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "core/policies.hpp"
#include "serve/router.hpp"
#include "util/mpmc_queue.hpp"
#include "util/sync.hpp"

namespace gddr::serve {

enum class ShedPolicy : int {
  // Evict the oldest queued job already past its deadline to admit the
  // newcomer; shed the newcomer only when every queued job is still
  // viable.
  kExpiredFirst = 0,
  // Shed the incoming request whenever the queue is full.
  kRejectNewest,
};

const char* shed_policy_name(ShedPolicy policy);
bool parse_shed_policy(const std::string& text, ShedPolicy& out);

struct EngineConfig {
  // 0 = inline mode (no threads, submit() serves synchronously).
  int workers = 4;
  std::size_t queue_capacity = 256;
  // Largest micro-batch a worker coalesces; 1 disables batching.
  int max_batch = 8;
  ShedPolicy shed_policy = ShedPolicy::kExpiredFirst;
  // Maximum time a request may wait in the queue before it is shed
  // instead of served; 0 = wait forever.
  std::chrono::microseconds queue_deadline{0};
  RouterConfig router;
};

// What a submitted request resolves to: either a decision or the shed
// flag (admission control dropped the request before a router saw it).
struct ServeOutcome {
  bool shed = false;
  RouteDecision decision;
};

// One queued request plus its engine-side bookkeeping.
struct Job {
  RouteRequest request;
  std::chrono::steady_clock::time_point enqueued{};
  // Queueing deadline; jobs past it are shed, never served late.
  std::chrono::steady_clock::time_point deadline{};
  std::promise<ServeOutcome> promise;
};

struct EngineStats {
  long offered = 0;  // submit() calls
  long shed = 0;     // resolved with shed=true
  long served = 0;   // resolved with a decision
  long batches = 0;  // micro-batches that reached a router (any size)
};

// One served (non-shed) decision as seen by the lifecycle layer: enough
// to score a canary, mirror the request through a shadow candidate and
// detect a poisoned policy, without holding the full RouteDecision (the
// routing itself has already been moved into the caller's future by the
// time the observer runs).
struct DecisionRecord {
  Rung rung = Rung::kDropTraffic;
  std::uint64_t policy_version = 0;
  bool served_by_candidate = false;
  // Rung 1 produced NaN/Inf action means for this request.  The ladder
  // recovered (a lower rung served it), but a *candidate* doing this is
  // grounds for immediate rollback.
  bool nonfinite_policy_output = false;
  double u_max = 0.0;          // simulated max link utilisation (Eq. 1)
  double routed_demand = 0.0;
  double latency_s = 0.0;
};

// Invoked on the serving thread after the caller's future is resolved.
// Must be cheap and safe to call from multiple workers concurrently.
using DecisionObserver =
    std::function<void(const RouteRequest&, const DecisionRecord&)>;

class Engine {
 public:
  // `policy` may be null (workers serve from the static rungs only);
  // when non-null it must outlive the engine.  Workers share it through
  // the const Policy::infer, which keeps its scratch thread-local.
  Engine(const rl::Policy* policy, EngineConfig config);
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  // Enqueues a request.  The returned future always becomes ready —
  // with a decision, or with shed=true if admission control dropped the
  // request.  Worker threads resolve it asynchronously; in inline mode
  // it resolves on the next poll() or shutdown().  After shutdown()
  // every submission is shed immediately.
  std::future<ServeOutcome> submit(RouteRequest request);

  // Inline mode only: serves every job currently queued (in micro-
  // batches) on the calling thread.  No-op when worker threads exist.
  void poll() GDDR_EXCLUDES(lifecycle_mu_);

  // Closes the queue, serves every already-admitted job, and joins the
  // workers.  Idempotent; also run by the destructor.
  void shutdown() GDDR_EXCLUDES(lifecycle_mu_);

  // --- Policy lifecycle seam (see file comment) -----------------------
  // Installs `policy` (may be null: rung 1 disabled) as the live policy
  // for every worker, superseding the construction-time pointer from the
  // next batch boundary on.  Thread-safe; zero downtime — in-flight
  // batches finish on the policy they started with.
  void set_policy(std::shared_ptr<const core::GnnPolicy> policy,
                  std::uint64_t version = 0) GDDR_EXCLUDES(policy_mu_);

  // Arms a canary: a `fraction` share of micro-batches (chosen
  // deterministically by batch sequence number) is served by `candidate`
  // instead of the live policy, attributed via
  // RouteDecision::served_by_candidate.  fraction is clamped to [0, 1].
  void set_candidate(std::shared_ptr<const core::GnnPolicy> candidate,
                     std::uint64_t version, double fraction)
      GDDR_EXCLUDES(policy_mu_);
  void clear_candidate() GDDR_EXCLUDES(policy_mu_);

  // Installs the observer invoked for every *served* decision.  Install
  // before offering traffic, or accept missing early records.
  void set_decision_observer(DecisionObserver observer)
      GDDR_EXCLUDES(policy_mu_);

  std::uint64_t live_version() const GDDR_EXCLUDES(policy_mu_);
  // set_policy() installs over the engine lifetime (hot swaps).
  long swaps() const { return swaps_.load(std::memory_order_relaxed); }

  EngineStats stats() const;

  // Per-worker RouterStats summed over the fleet, by value: shutdown()
  // writes the aggregate concurrently with callers polling it, so a
  // reference into the member would be a data race.  Only meaningful
  // after shutdown(); returns zeros while workers are still running
  // (worker stats are unsynchronised by design).
  RouterStats router_stats() const GDDR_EXCLUDES(lifecycle_mu_) {
    const util::MutexLock lock(lifecycle_mu_);
    return router_stats_;
  }

  const CircuitBreaker& breaker() const { return *breaker_; }
  const TopologyCache& topology_cache() const { return *cache_; }
  const EngineConfig& config() const { return config_; }

 private:
  using Clock = std::chrono::steady_clock;

  // The slot value one micro-batch runs under: shared_ptr copies taken
  // under policy_mu_ keep the policy alive for the whole batch even if
  // the slot is overwritten mid-batch.
  struct PolicyPick {
    bool armed = false;  // the slot has been written at least once
    std::shared_ptr<const core::GnnPolicy> policy;
    std::uint64_t version = 0;
    bool candidate = false;
    DecisionObserver observer;
  };

  void worker_loop(int index);
  void drain_inline() GDDR_REQUIRES(lifecycle_mu_);
  void process_batch(RobustRouter& router, std::vector<Job> batch)
      GDDR_EXCLUDES(policy_mu_);
  PolicyPick pick_policy() GDDR_EXCLUDES(policy_mu_);
  void shed_job(Job& job);

  EngineConfig config_;
  std::shared_ptr<TopologyCache> cache_;
  std::shared_ptr<CircuitBreaker> breaker_;
  // Shared by every router's rung-1 sweep; declared before the routers,
  // which hold a pointer to it.
  util::ThreadPool sweep_pool_;
  std::vector<std::unique_ptr<RobustRouter>> routers_;
  util::MpmcQueue<Job> queue_;
  // Serialises lifecycle transitions and inline-mode serving: poll(),
  // shutdown() and router_stats() may race (two threads polling an
  // inline engine would both drive the one inline router; a stats poll
  // during shutdown would read router_stats_ mid-aggregation).  Outermost
  // rank: drain_inline touches the queue, caches and breaker under it.
  mutable util::Mutex lifecycle_mu_{util::LockRank::kEngine, "serve/engine"};
  std::vector<std::thread> threads_ GDDR_GUARDED_BY(lifecycle_mu_);
  // Policy slot: written by the lifecycle layer, re-read by every worker
  // at each batch boundary.  Ranked below kEngine so inline drains
  // (holding lifecycle_mu_) can read it.  Until the slot is first
  // written (slot_armed_), workers keep the construction-time policy.
  mutable util::Mutex policy_mu_{util::LockRank::kEnginePolicy,
                                 "serve/engine/policy"};
  bool slot_armed_ GDDR_GUARDED_BY(policy_mu_) = false;
  std::shared_ptr<const core::GnnPolicy> live_policy_
      GDDR_GUARDED_BY(policy_mu_);
  std::uint64_t live_version_ GDDR_GUARDED_BY(policy_mu_) = 0;
  std::shared_ptr<const core::GnnPolicy> candidate_policy_
      GDDR_GUARDED_BY(policy_mu_);
  std::uint64_t candidate_version_ GDDR_GUARDED_BY(policy_mu_) = 0;
  int canary_permille_ GDDR_GUARDED_BY(policy_mu_) = 0;
  DecisionObserver observer_ GDDR_GUARDED_BY(policy_mu_);
  std::atomic<std::uint64_t> batch_seq_{0};
  std::atomic<long> swaps_{0};
  std::atomic<bool> stopped_{false};
  std::atomic<long> offered_{0};
  std::atomic<long> shed_{0};
  std::atomic<long> served_{0};
  std::atomic<long> batches_{0};
  RouterStats router_stats_ GDDR_GUARDED_BY(lifecycle_mu_);
};

}  // namespace gddr::serve
