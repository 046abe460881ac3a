#include "lifecycle/shadow.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "mcf/cache.hpp"
#include "obs/metrics.hpp"
#include "util/fault.hpp"

namespace gddr::lifecycle {

namespace {
// Ties count as wins: a candidate bit-identical to the incumbent (the
// common "retrained on more data, converged to the same place" case)
// must clear the win-rate gate, and exact U_max ties are routine on
// small topologies.
constexpr double kTieTolerance = 1e-12;
}  // namespace

ShadowEvaluator::ShadowEvaluator(ShadowConfig config)
    : config_(config) {
  const double f = std::clamp(config_.fraction, 1e-6, 1.0);
  stride_ = std::max<long>(1, std::lround(1.0 / f));
  if (config_.latency_window == 0) config_.latency_window = 1;
}

void ShadowEvaluator::arm(std::shared_ptr<const core::GnnPolicy> candidate,
                          std::uint64_t version) {
  const util::MutexLock lock(mu_);
  candidate_ = std::move(candidate);
  router_.emplace(candidate_.get(), config_.router);
  router_->set_policy(candidate_.get(), version, /*candidate=*/true);
  stats_ = ShadowStats{};
  buckets_.clear();
  latencies_us_.clear();
  latency_next_ = 0;
}

void ShadowEvaluator::disarm() {
  const util::MutexLock lock(mu_);
  router_.reset();
  candidate_.reset();
}

bool ShadowEvaluator::armed() const {
  const util::MutexLock lock(mu_);
  return router_.has_value();
}

void ShadowEvaluator::observe(const serve::RouteRequest& request,
                              const serve::DecisionRecord& incumbent) {
  const util::MutexLock lock(mu_);
  if (!router_.has_value()) return;
  if (incumbent.served_by_candidate) return;
  ++stats_.observed;
  if (stats_.observed % stride_ != 0) return;

  // The mirror decision runs the candidate through the full ladder on
  // the exact live request, off the caller's latency path.
  const serve::RouteDecision mirror = router_->decide(request);
  ++stats_.mirrored;
  obs::count("lifecycle/shadow_requests");

  bool candidate_ok = mirror.rung == serve::Rung::kGnnPolicy;
  if (!candidate_ok) {
    ++stats_.candidate_failures;
    for (const serve::RungAttempt& attempt : mirror.attempts) {
      if (attempt.rung == serve::Rung::kGnnPolicy &&
          attempt.cause == serve::FailureCause::kNonFiniteOutput) {
        ++stats_.nonfinite_outputs;
      }
    }
  }
  if (util::inject(util::FaultSite::kShadowDiverge)) {
    obs::count("lifecycle/fault/shadow_diverge");
    candidate_ok = false;
  }

  const bool win = candidate_ok &&
                   mirror.sim.u_max <= incumbent.u_max + kTieTolerance;
  if (win) ++stats_.wins;

  const double delta = incumbent.u_max - mirror.sim.u_max;
  stats_.delta.add(delta);
  const std::uint64_t fp =
      request.graph != nullptr ? mcf::graph_fingerprint(*request.graph) : 0;
  ShadowTopologyStats& bucket = buckets_[fp];
  bucket.fingerprint = fp;
  ++bucket.mirrored;
  if (win) ++bucket.wins;
  bucket.delta.add(delta);

  const double latency_us = mirror.latency_s * 1e6;
  if (latencies_us_.size() < config_.latency_window) {
    latencies_us_.push_back(latency_us);
  } else {
    latencies_us_[latency_next_] = latency_us;
    latency_next_ = (latency_next_ + 1) % config_.latency_window;
  }

  obs::gauge("lifecycle/shadow_win_rate",
             static_cast<double>(stats_.wins) / stats_.mirrored);
}

ShadowStats ShadowEvaluator::stats() const {
  const util::MutexLock lock(mu_);
  ShadowStats out = stats_;
  out.p99_latency_us = util::percentile(latencies_us_, 99.0);
  out.by_topology.reserve(buckets_.size());
  for (const auto& [fp, bucket] : buckets_) out.by_topology.push_back(bucket);
  return out;
}

}  // namespace gddr::lifecycle
