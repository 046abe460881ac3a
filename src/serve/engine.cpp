#include "serve/engine.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

#include "obs/metrics.hpp"

namespace gddr::serve {

namespace {

// The next job (blocking for it when `wait`), plus up to max_batch - 1
// jobs already queued behind it: a batch never waits to fill, so an idle
// engine keeps single-request latency.  Empty when the queue is empty
// (!wait) or closed and drained (wait), the worker's exit signal.
std::vector<Job> next_batch(util::MpmcQueue<Job>& queue, int max_batch,
                            bool wait) {
  std::vector<Job> batch;
  Job first;
  if (!(wait ? queue.pop(first) : queue.try_pop(first))) return batch;
  batch.push_back(std::move(first));
  while (static_cast<int>(batch.size()) < max_batch) {
    Job next;
    if (!queue.try_pop(next)) break;
    batch.push_back(std::move(next));
  }
  return batch;
}

}  // namespace

const char* shed_policy_name(ShedPolicy policy) {
  switch (policy) {
    case ShedPolicy::kExpiredFirst: return "expired-first";
    case ShedPolicy::kRejectNewest: return "reject-newest";
  }
  return "unknown";
}

bool parse_shed_policy(const std::string& text, ShedPolicy& out) {
  if (text == "expired-first") {
    out = ShedPolicy::kExpiredFirst;
    return true;
  }
  if (text == "reject-newest") {
    out = ShedPolicy::kRejectNewest;
    return true;
  }
  return false;
}

Engine::Engine(const rl::Policy* policy, EngineConfig config)
    : config_(std::move(config)),
      cache_(std::make_shared<TopologyCache>(
          config_.router.topology_cache_capacity, config_.router.softmin,
          config_.router.node_feature_scale,
          config_.router.flat_feature_scale)),
      breaker_(std::make_shared<CircuitBreaker>(config_.router.breaker)),
      queue_(config_.queue_capacity) {
  if (config_.workers < 0) {
    throw std::invalid_argument("Engine: workers must be >= 0");
  }
  if (config_.queue_capacity < 1) {
    throw std::invalid_argument("Engine: queue_capacity must be >= 1");
  }
  if (config_.max_batch < 1) {
    throw std::invalid_argument("Engine: max_batch must be >= 1");
  }
  const int router_count = config_.workers == 0 ? 1 : config_.workers;
  routers_.reserve(static_cast<std::size_t>(router_count));
  for (int i = 0; i < router_count; ++i) {
    routers_.push_back(std::make_unique<RobustRouter>(policy, config_.router,
                                                      cache_, breaker_));
  }
  // Constructor: no concurrent access yet, lifecycle_mu_ not needed (and
  // clang's analysis exempts constructors for the same reason).
  threads_.reserve(static_cast<std::size_t>(config_.workers));
  for (int i = 0; i < config_.workers; ++i) {
    threads_.emplace_back([this, i] { worker_loop(i); });
  }
}

Engine::~Engine() { shutdown(); }

std::future<ServeOutcome> Engine::submit(RouteRequest request) {
  Job job;
  job.request = std::move(request);
  job.enqueued = Clock::now();
  job.deadline = config_.queue_deadline.count() > 0
                     ? job.enqueued + config_.queue_deadline
                     : Clock::time_point::max();
  std::future<ServeOutcome> future = job.promise.get_future();
  offered_.fetch_add(1, std::memory_order_relaxed);

  if (!queue_.try_push(std::move(job))) {
    // try_push leaves `job` intact on failure.
    bool admitted = false;
    if (!stopped_.load(std::memory_order_relaxed) &&
        config_.shed_policy == ShedPolicy::kExpiredFirst) {
      const Clock::time_point now = Clock::now();
      Job victim;
      if (queue_.evict_first_if(
              [now](const Job& queued) { return queued.deadline <= now; },
              victim)) {
        shed_job(victim);
        admitted = queue_.try_push(std::move(job));
      }
    }
    if (!admitted) shed_job(job);
  }
  obs::gauge("serve/engine/queue_depth", static_cast<double>(queue_.size()));
  return future;
}

void Engine::poll() {
  if (config_.workers != 0) return;
  const util::MutexLock lock(lifecycle_mu_);
  drain_inline();
}

void Engine::set_policy(std::shared_ptr<const core::GnnPolicy> policy,
                        std::uint64_t version) {
  {
    const util::MutexLock lock(policy_mu_);
    slot_armed_ = true;
    live_policy_ = std::move(policy);
    live_version_ = version;
  }
  swaps_.fetch_add(1, std::memory_order_relaxed);
  obs::gauge("lifecycle/version", static_cast<double>(version));
  obs::count("lifecycle/swaps");
}

void Engine::set_candidate(std::shared_ptr<const core::GnnPolicy> candidate,
                           std::uint64_t version, double fraction) {
  const double f = std::clamp(fraction, 0.0, 1.0);
  const util::MutexLock lock(policy_mu_);
  slot_armed_ = true;
  candidate_policy_ = std::move(candidate);
  candidate_version_ = version;
  canary_permille_ =
      candidate_policy_ ? static_cast<int>(std::lround(f * 1000.0)) : 0;
}

void Engine::clear_candidate() {
  const util::MutexLock lock(policy_mu_);
  candidate_policy_.reset();
  candidate_version_ = 0;
  canary_permille_ = 0;
}

void Engine::set_decision_observer(DecisionObserver observer) {
  const util::MutexLock lock(policy_mu_);
  observer_ = std::move(observer);
}

std::uint64_t Engine::live_version() const {
  const util::MutexLock lock(policy_mu_);
  return live_version_;
}

Engine::PolicyPick Engine::pick_policy() {
  const util::MutexLock lock(policy_mu_);
  PolicyPick pick;
  pick.armed = slot_armed_;
  pick.observer = observer_;
  pick.policy = live_policy_;
  pick.version = live_version_;
  if (candidate_policy_ != nullptr && canary_permille_ > 0) {
    // Deterministic canary split: batch sequence numbers are only
    // consumed while a candidate is armed, so the canary gets its
    // configured share of batches regardless of when it was staged.
    const std::uint64_t seq =
        batch_seq_.fetch_add(1, std::memory_order_relaxed);
    if (static_cast<int>(seq % 1000) < canary_permille_) {
      pick.policy = candidate_policy_;
      pick.version = candidate_version_;
      pick.candidate = true;
    }
  }
  return pick;
}

void Engine::shutdown() {
  if (stopped_.exchange(true)) return;
  queue_.close();
  const util::MutexLock lock(lifecycle_mu_);
  for (std::thread& t : threads_) t.join();
  threads_.clear();
  if (config_.workers == 0) drain_inline();
  for (const std::unique_ptr<RobustRouter>& router : routers_) {
    const RouterStats& s = router->stats();
    router_stats_.requests += s.requests;
    for (int r = 0; r < static_cast<int>(Rung::kRungCount); ++r) {
      router_stats_.rung_decisions[r] += s.rung_decisions[r];
    }
    for (int c = 0; c < static_cast<int>(FailureCause::kCauseCount); ++c) {
      router_stats_.failure_causes[c] += s.failure_causes[c];
    }
    router_stats_.sanitized_requests += s.sanitized_requests;
    router_stats_.unroutable_entries += s.unroutable_entries;
    router_stats_.deadline_exhausted += s.deadline_exhausted;
  }
}

EngineStats Engine::stats() const {
  EngineStats s;
  s.offered = offered_.load(std::memory_order_relaxed);
  s.shed = shed_.load(std::memory_order_relaxed);
  s.served = served_.load(std::memory_order_relaxed);
  s.batches = batches_.load(std::memory_order_relaxed);
  return s;
}

void Engine::worker_loop(int index) {
  RobustRouter& router = *routers_[static_cast<std::size_t>(index)];
  for (;;) {
    std::vector<Job> batch =
        next_batch(queue_, config_.max_batch, /*wait=*/true);
    if (batch.empty()) return;  // closed and drained
    process_batch(router, std::move(batch));
  }
}

void Engine::drain_inline() {
  for (;;) {
    std::vector<Job> batch =
        next_batch(queue_, config_.max_batch, /*wait=*/false);
    if (batch.empty()) return;
    process_batch(*routers_[0], std::move(batch));
  }
}

void Engine::process_batch(RobustRouter& router, std::vector<Job> batch) {
  obs::gauge("serve/engine/queue_depth", static_cast<double>(queue_.size()));
  const Clock::time_point now = Clock::now();
  std::vector<Job*> live;
  live.reserve(batch.size());
  for (Job& job : batch) {
    if (job.deadline <= now) {
      shed_job(job);  // expired while queued: shed, never serve late
    } else {
      live.push_back(&job);
    }
  }
  if (live.empty()) return;

  // Batch boundary: re-read the policy slot.  The shared_ptr copy in
  // `pick` keeps the policy alive for this whole batch even if the slot
  // is overwritten concurrently; the router never sees a swap mid-batch.
  const PolicyPick pick = pick_policy();
  if (pick.armed) {
    router.set_policy(pick.policy.get(), pick.version, pick.candidate);
  }

  std::vector<RouteDecision> decisions;
  decisions.reserve(live.size());
  for (const Job* job : live) decisions.push_back(router.decide(job->request));

  batches_.fetch_add(1, std::memory_order_relaxed);
  obs::observe("serve/engine/batch_size", static_cast<double>(live.size()));
  const Clock::time_point done = Clock::now();
  for (std::size_t i = 0; i < live.size(); ++i) {
    Job* job = live[i];
    const RouteDecision& d = decisions[i];
    DecisionRecord record;
    record.rung = d.rung;
    record.policy_version = d.policy_version;
    record.served_by_candidate = d.served_by_candidate;
    for (const RungAttempt& attempt : d.attempts) {
      if (attempt.rung == Rung::kGnnPolicy &&
          attempt.cause == FailureCause::kNonFiniteOutput) {
        record.nonfinite_policy_output = true;
      }
    }
    record.u_max = d.sim.u_max;
    record.routed_demand = d.routed_demand;
    record.latency_s = d.latency_s;

    obs::observe(
        "serve/engine/latency_us",
        std::chrono::duration<double, std::micro>(done - job->enqueued)
            .count());
    served_.fetch_add(1, std::memory_order_relaxed);
    ServeOutcome outcome;
    outcome.shed = false;
    outcome.decision = std::move(decisions[i]);
    job->promise.set_value(std::move(outcome));
    // After the caller's future is resolved, so a slow observer (shadow
    // mirror, promoter gates) never adds to request latency.  The job
    // still owns its request here.
    if (pick.observer) pick.observer(job->request, record);
  }
}

void Engine::shed_job(Job& job) {
  shed_.fetch_add(1, std::memory_order_relaxed);
  obs::count("serve/engine/shed");
  ServeOutcome outcome;
  outcome.shed = true;
  job.promise.set_value(std::move(outcome));
}

}  // namespace gddr::serve
