// Serving-robustness tests: circuit breaker state machine (RAII probe
// tokens, timeout unwedging), deadline budget checkpoints, inbound-demand
// sanitisation (mutually exclusive repair buckets), the thread-safe
// per-topology cache (entries pinned across eviction), the RobustRouter
// degradation ladder, and the concurrent batched serving engine.
//
// Time-dependent breaker tests replay explicit steady_clock schedules —
// never sleeping — so they are exact and fast.  Concurrency tests (cache
// churn, shared breaker, engine end-to-end) are written for the TSan CI
// leg: they assert functional results here and rely on the sanitizer for
// race detection.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <future>
#include <limits>
#include <memory>
#include <span>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/experiment.hpp"
#include "core/policies.hpp"
#include "core/routing_env.hpp"
#include "core/scenario.hpp"
#include "nn/tape.hpp"
#include "obs/metrics.hpp"
#include "routing/routing.hpp"
#include "routing/softmin.hpp"
#include "serve/breaker.hpp"
#include "serve/deadline.hpp"
#include "serve/engine.hpp"
#include "serve/router.hpp"
#include "serve/sanitize.hpp"
#include "serve/topo_cache.hpp"
#include "support/routing_family.hpp"
#include "topo/generators.hpp"
#include "topo/zoo.hpp"
#include "traffic/demand.hpp"
#include "traffic/generators.hpp"
#include "util/fault.hpp"
#include "util/mpmc_queue.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace gddr {
namespace {

using serve::BreakerState;
using serve::CircuitBreaker;
using serve::CircuitBreakerConfig;
using serve::DeadlineBudget;
using serve::Engine;
using serve::EngineConfig;
using serve::FailureCause;
using serve::RobustRouter;
using serve::RouteDecision;
using serve::RouteRequest;
using serve::RouterConfig;
using serve::RouterStats;
using serve::Rung;
using serve::ServeOutcome;
using serve::ShedPolicy;
using std::chrono::microseconds;

using Clock = std::chrono::steady_clock;

// Every test disarms on exit so an assertion failure cannot leak an armed
// fault schedule into the next test.
struct FaultGuard {
  FaultGuard() { util::FaultInjector::instance().disarm(); }
  ~FaultGuard() { util::FaultInjector::instance().disarm(); }
};

// Sleep-free wait for wall time to pass a deadline (tests may not call
// std::this_thread::sleep_for; see tools/lint.py).
void spin_until(Clock::time_point t) {
  while (Clock::now() < t) {
  }
}

// ---------------- CircuitBreaker ----------------

TEST(CircuitBreaker, ClosedAdmitsAndSuccessResetsFailures) {
  CircuitBreakerConfig config;
  config.failure_threshold = 3;
  CircuitBreaker breaker(config);
  const auto t0 = Clock::now();

  breaker.admit(t0).fail(t0);
  breaker.admit(t0).fail(t0);
  EXPECT_EQ(breaker.stats().consecutive_failures, 2);
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
  breaker.admit(t0).succeed(t0);
  EXPECT_EQ(breaker.stats().consecutive_failures, 0);
  // A success resets the streak: two more failures do not trip.
  breaker.admit(t0).fail(t0);
  breaker.admit(t0).fail(t0);
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
  EXPECT_EQ(breaker.stats().trips, 0);
}

TEST(CircuitBreaker, TripsAfterThresholdAndBlocksUntilBackoff) {
  CircuitBreakerConfig config;
  config.failure_threshold = 2;
  config.initial_backoff = microseconds(100);
  CircuitBreaker breaker(config);
  const auto t0 = Clock::now();

  breaker.admit(t0).fail(t0);
  breaker.admit(t0).fail(t0);
  EXPECT_EQ(breaker.state(), BreakerState::kOpen);
  EXPECT_EQ(breaker.stats().trips, 1);
  // Blocked while the backoff is running (a disengaged token carries no
  // verdict obligation).
  EXPECT_FALSE(breaker.admit(t0 + microseconds(50)));
  EXPECT_EQ(breaker.stats().probes, 0);
}

TEST(CircuitBreaker, HalfOpenAdmitsOneProbeAndRecovers) {
  CircuitBreakerConfig config;
  config.failure_threshold = 1;
  config.initial_backoff = microseconds(100);
  CircuitBreaker breaker(config);
  const auto t0 = Clock::now();

  breaker.admit(t0).fail(t0);  // trips (threshold 1)
  const auto probe_time = t0 + microseconds(100);
  CircuitBreaker::Probe probe = breaker.admit(probe_time);
  EXPECT_TRUE(static_cast<bool>(probe));
  EXPECT_EQ(breaker.state(), BreakerState::kHalfOpen);
  EXPECT_EQ(breaker.stats().probes, 1);
  // Only one probe may be in flight.
  EXPECT_FALSE(breaker.admit(probe_time));
  EXPECT_EQ(breaker.stats().probes, 1);

  probe.succeed(probe_time);
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
  EXPECT_EQ(breaker.stats().recoveries, 1);
  breaker.admit(probe_time).succeed(probe_time);
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
}

TEST(CircuitBreaker, FailedProbeGrowsBackoffUpToMax) {
  CircuitBreakerConfig config;
  config.failure_threshold = 1;
  config.initial_backoff = microseconds(100);
  config.max_backoff = microseconds(300);
  config.backoff_multiplier = 2.0;
  CircuitBreaker breaker(config);
  const auto t0 = Clock::now();

  breaker.admit(t0).fail(t0);  // open until t0+100
  auto now = t0 + microseconds(100);
  breaker.admit(now).fail(now);  // probe 1 fails: backoff -> 200
  EXPECT_EQ(breaker.stats().reopens, 1);
  EXPECT_FALSE(breaker.admit(now + microseconds(199)));
  now += microseconds(200);
  breaker.admit(now).fail(now);  // probe 2: backoff 400 clamped to 300
  EXPECT_FALSE(breaker.admit(now + microseconds(299)));
  now += microseconds(300);
  // Recovery resets the backoff to its initial value.
  breaker.admit(now).succeed(now);
  breaker.admit(now).fail(now);  // trips again
  CircuitBreaker::Probe probe = breaker.admit(now + microseconds(100));
  EXPECT_TRUE(static_cast<bool>(probe));
  probe.succeed(now + microseconds(100));
}

// Regression (wedged breaker): before the RAII token, a probe whose
// request died between admission and verdict left the breaker half-open
// forever — every later admission saw "probe in flight" and was denied.
// The token's destructor now records the failure.
TEST(CircuitBreaker, AbandonedProbeRecordsFailureInsteadOfWedging) {
  CircuitBreakerConfig config;
  config.failure_threshold = 1;
  config.initial_backoff = microseconds(100);
  config.backoff_multiplier = 2.0;
  config.probe_timeout = microseconds(1'000'000);
  CircuitBreaker breaker(config);
  const auto t0 = Clock::now();

  breaker.admit(t0).fail(t0);  // open until t0+100
  {
    CircuitBreaker::Probe probe = breaker.admit(t0 + microseconds(100));
    EXPECT_TRUE(static_cast<bool>(probe));
    // The request dies here: no verdict is ever reported.
  }
  EXPECT_EQ(breaker.state(), BreakerState::kOpen);
  EXPECT_EQ(breaker.stats().reopens, 1);
  // Not wedged: the next backoff window admits a fresh probe.
  EXPECT_FALSE(breaker.admit(t0 + microseconds(250)));  // backoff grew to 200
  CircuitBreaker::Probe retry = breaker.admit(t0 + microseconds(300));
  EXPECT_TRUE(static_cast<bool>(retry));
  retry.succeed(t0 + microseconds(300));
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
}

// Regression (wedged breaker, second belt): a probe token that is still
// alive but never reports — e.g. its worker is stuck — is presumed dead
// after probe_timeout, and its eventual verdict is discarded as stale.
TEST(CircuitBreaker, ProbeTimeoutUnwedgesLostProbe) {
  CircuitBreakerConfig config;
  config.failure_threshold = 1;
  config.initial_backoff = microseconds(100);
  config.backoff_multiplier = 2.0;
  config.probe_timeout = microseconds(1000);
  CircuitBreaker breaker(config);
  const auto t0 = Clock::now();

  breaker.admit(t0).fail(t0);  // open until t0+100
  CircuitBreaker::Probe lost = breaker.admit(t0 + microseconds(100));
  EXPECT_TRUE(static_cast<bool>(lost));
  // Within the timeout the in-flight probe still blocks admissions.
  EXPECT_FALSE(breaker.admit(t0 + microseconds(500)));
  EXPECT_EQ(breaker.stats().probe_timeouts, 0);

  // Past the deadline: the probe is presumed dead, the breaker re-opens
  // with a grown backoff instead of staying wedged.
  EXPECT_FALSE(breaker.admit(t0 + microseconds(1100)));
  EXPECT_EQ(breaker.state(), BreakerState::kOpen);
  EXPECT_EQ(breaker.stats().probe_timeouts, 1);

  // A fresh probe is admitted once the new backoff (200us) elapses...
  CircuitBreaker::Probe retry = breaker.admit(t0 + microseconds(1300));
  EXPECT_TRUE(static_cast<bool>(retry));
  // ...and the lost probe's late verdict is stale: it must not close (or
  // otherwise flip) the breaker out from under the live probe.
  lost.succeed(t0 + microseconds(1301));
  EXPECT_EQ(breaker.state(), BreakerState::kHalfOpen);
  EXPECT_EQ(breaker.stats().recoveries, 0);
  retry.succeed(t0 + microseconds(1302));
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
  EXPECT_EQ(breaker.stats().recoveries, 1);
}

TEST(CircuitBreaker, PreTripVerdictIsDiscardedAsStale) {
  CircuitBreakerConfig config;
  config.failure_threshold = 1;
  config.initial_backoff = microseconds(100);
  CircuitBreaker breaker(config);
  const auto t0 = Clock::now();

  // Two requests admitted while closed; the second one's failure trips
  // the breaker while the first is still in flight.
  CircuitBreaker::Probe first = breaker.admit(t0);
  breaker.admit(t0).fail(t0);
  EXPECT_EQ(breaker.state(), BreakerState::kOpen);
  // The straggler's success is from a dead era: the breaker stays open.
  first.succeed(t0 + microseconds(10));
  EXPECT_EQ(breaker.state(), BreakerState::kOpen);
}

TEST(CircuitBreaker, RejectsBadConfiguration) {
  CircuitBreakerConfig bad_threshold;
  bad_threshold.failure_threshold = 0;
  EXPECT_THROW(CircuitBreaker{bad_threshold}, std::invalid_argument);

  CircuitBreakerConfig bad_backoff;
  bad_backoff.initial_backoff = microseconds(0);
  EXPECT_THROW(CircuitBreaker{bad_backoff}, std::invalid_argument);

  CircuitBreakerConfig inverted;
  inverted.initial_backoff = microseconds(1000);
  inverted.max_backoff = microseconds(100);
  EXPECT_THROW(CircuitBreaker{inverted}, std::invalid_argument);

  CircuitBreakerConfig shrinking;
  shrinking.backoff_multiplier = 0.5;
  EXPECT_THROW(CircuitBreaker{shrinking}, std::invalid_argument);

  CircuitBreakerConfig dead_probe;
  dead_probe.probe_timeout = microseconds(0);
  EXPECT_THROW(CircuitBreaker{dead_probe}, std::invalid_argument);
}

TEST(CircuitBreaker, ConcurrentVerdictsKeepStateConsistent) {
  CircuitBreakerConfig config;
  config.failure_threshold = 3;
  config.initial_backoff = microseconds(1);
  CircuitBreaker breaker(config);

  // 8 threads hammer admit/verdict with a mixed success/failure pattern;
  // TSan checks the synchronisation, the assertions check the state
  // machine never leaks out of its three states.
  std::vector<std::thread> threads;
  for (int w = 0; w < 8; ++w) {
    threads.emplace_back([&breaker, w] {
      for (int i = 0; i < 200; ++i) {
        const auto now = Clock::now();
        CircuitBreaker::Probe probe = breaker.admit(now);
        if (!probe) continue;
        if ((w + i) % 3 == 0) {
          probe.fail(now);
        } else {
          probe.succeed(now);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();

  const BreakerState state = breaker.state();
  EXPECT_TRUE(state == BreakerState::kClosed || state == BreakerState::kOpen ||
              state == BreakerState::kHalfOpen);
  const CircuitBreaker::Stats stats = breaker.stats();
  EXPECT_GE(stats.trips, 0);
  EXPECT_GE(stats.probes, stats.recoveries);
}

// ---------------- DeadlineBudget ----------------

TEST(DeadlineBudget, StageCheckpointsSplitTheTotal) {
  const auto t0 = Clock::now();
  DeadlineBudget budget(t0, microseconds(1000), 0.4, 0.3);

  EXPECT_FALSE(budget.policy_overrun(t0 + microseconds(400)));
  EXPECT_TRUE(budget.policy_overrun(t0 + microseconds(401)));
  EXPECT_FALSE(budget.translate_overrun(t0 + microseconds(700)));
  EXPECT_TRUE(budget.translate_overrun(t0 + microseconds(701)));
  EXPECT_FALSE(budget.expired(t0 + microseconds(1000)));
  EXPECT_TRUE(budget.expired(t0 + microseconds(1001)));
  EXPECT_DOUBLE_EQ(budget.elapsed_s(t0 + microseconds(500)), 500e-6);
}

TEST(DeadlineBudget, RejectsBadParameters) {
  const auto t0 = Clock::now();
  EXPECT_THROW(DeadlineBudget(t0, microseconds(0), 0.4, 0.3),
               std::invalid_argument);
  EXPECT_THROW(DeadlineBudget(t0, microseconds(100), 0.0, 0.3),
               std::invalid_argument);
  EXPECT_THROW(DeadlineBudget(t0, microseconds(100), 0.4, -0.1),
               std::invalid_argument);
  // Fractions must leave room for the simulation stage.
  EXPECT_THROW(DeadlineBudget(t0, microseconds(100), 0.6, 0.4),
               std::invalid_argument);
}

// ---------------- sanitize_demands ----------------

std::vector<bool> full_mesh_reachability(int n) {
  return std::vector<bool>(static_cast<std::size_t>(n) *
                               static_cast<std::size_t>(n),
                           true);
}

TEST(Sanitize, CleanMatrixPassesThroughUntouched) {
  const int n = 3;
  traffic::DemandMatrix in(n);
  in.set(0, 1, 2.5);
  in.set(1, 2, 0.75);
  serve::SanitizeReport report;
  const auto out = serve::sanitize_demands(in, n, serve::SanitizeLimits{},
                                           full_mesh_reachability(n), report);
  EXPECT_TRUE(report.clean());
  EXPECT_DOUBLE_EQ(out.at(0, 1), 2.5);
  EXPECT_DOUBLE_EQ(out.at(1, 2), 0.75);
  EXPECT_DOUBLE_EQ(out.total(), in.total());
  EXPECT_DOUBLE_EQ(report.offered_demand, in.total());
}

TEST(Sanitize, RepairsEveryGarbageCategory) {
  const int n = 3;
  std::vector<double> raw(static_cast<std::size_t>(n) * n, 0.0);
  raw[0 * n + 1] = std::numeric_limits<double>::quiet_NaN();
  raw[0 * n + 2] = std::numeric_limits<double>::infinity();
  raw[1 * n + 0] = -4.0;
  raw[1 * n + 1] = 9.0;    // self-demand
  raw[2 * n + 0] = 1e15;   // above the clamp
  raw[2 * n + 1] = 3.0;    // legitimate
  const auto in = traffic::DemandMatrix::from_raw_unchecked(n, raw);

  serve::SanitizeLimits limits;
  limits.max_demand = 1e12;
  serve::SanitizeReport report;
  const auto out = serve::sanitize_demands(in, n, limits,
                                           full_mesh_reachability(n), report);

  EXPECT_FALSE(report.clean());
  EXPECT_EQ(report.non_finite_entries, 2);
  EXPECT_EQ(report.negative_entries, 1);
  EXPECT_EQ(report.diagonal_entries, 1);
  EXPECT_EQ(report.clamped_entries, 1);
  EXPECT_EQ(report.unroutable_entries, 0);
  // Garbage entries carry no meaningful volume; offered demand counts
  // only the finite non-negative off-diagonal entries.
  EXPECT_DOUBLE_EQ(report.offered_demand, 1e15 + 3.0);
  EXPECT_DOUBLE_EQ(report.clamped_demand, 1e15 - 1e12);

  EXPECT_DOUBLE_EQ(out.at(0, 1), 0.0);
  EXPECT_DOUBLE_EQ(out.at(0, 2), 0.0);
  EXPECT_DOUBLE_EQ(out.at(1, 0), 0.0);
  EXPECT_DOUBLE_EQ(out.at(1, 1), 0.0);
  EXPECT_DOUBLE_EQ(out.at(2, 0), 1e12);
  EXPECT_DOUBLE_EQ(out.at(2, 1), 3.0);
}

TEST(Sanitize, UnreachablePairsAreZeroedAndAccounted) {
  const int n = 3;
  traffic::DemandMatrix in(n);
  in.set(0, 1, 5.0);
  in.set(0, 2, 2.0);
  auto reachable = full_mesh_reachability(n);
  reachable[0 * n + 2] = false;  // topology cannot route 0 -> 2

  serve::SanitizeReport report;
  const auto out = serve::sanitize_demands(in, n, serve::SanitizeLimits{},
                                           reachable, report);
  EXPECT_EQ(report.unroutable_entries, 1);
  EXPECT_DOUBLE_EQ(report.unroutable_demand, 2.0);
  EXPECT_DOUBLE_EQ(out.at(0, 2), 0.0);
  EXPECT_DOUBLE_EQ(out.at(0, 1), 5.0);
}

// Regression (sanitize miscounts): an entry that was both above the clamp
// and unroutable used to be double-counted — clamped first, then its
// *post-clamp* remainder booked as unroutable demand, so the report
// neither matched the offered volume nor reconciled with the output
// matrix.  Buckets are now mutually exclusive (unroutable wins, at full
// pre-clamp volume) and the totals reconcile exactly.
TEST(Sanitize, ClampedAndUnroutableBucketsAreMutuallyExclusive) {
  const int n = 3;
  traffic::DemandMatrix in(n);
  in.set(0, 1, 1e15);  // above the clamp AND unroutable
  in.set(0, 2, 1e15);  // above the clamp, routable
  in.set(1, 2, 4.0);   // clean
  auto reachable = full_mesh_reachability(n);
  reachable[0 * n + 1] = false;

  serve::SanitizeLimits limits;
  limits.max_demand = 1e12;
  serve::SanitizeReport report;
  const auto out =
      serve::sanitize_demands(in, n, limits, reachable, report);

  // Exactly one bucket each: the unroutable entry is not also clamped.
  EXPECT_EQ(report.unroutable_entries, 1);
  EXPECT_EQ(report.clamped_entries, 1);
  // Unroutable demand is the full pre-clamp volume, not the clamped rest.
  EXPECT_DOUBLE_EQ(report.unroutable_demand, 1e15);
  EXPECT_DOUBLE_EQ(report.clamped_demand, 1e15 - 1e12);
  EXPECT_DOUBLE_EQ(report.offered_demand, 2e15 + 4.0);
  // The conservation law the report documents.
  EXPECT_DOUBLE_EQ(out.total(), report.offered_demand -
                                    report.unroutable_demand -
                                    report.clamped_demand);
}

TEST(Sanitize, SizeMismatchDropsTheWholeMatrix) {
  traffic::DemandMatrix in(2);
  in.set(0, 1, 1.0);
  serve::SanitizeReport report;
  const auto out = serve::sanitize_demands(in, 3, serve::SanitizeLimits{},
                                           full_mesh_reachability(3), report);
  EXPECT_TRUE(report.size_mismatch);
  EXPECT_EQ(out.num_nodes(), 3);
  EXPECT_DOUBLE_EQ(out.total(), 0.0);
}

// Seeded mutation loop over the serving ingress: each input is a valid
// dense matrix with 1-4 mutations (NaN, +-inf, negative, huge, denormal
// and -0.0 entries, a bit flip anywhere in an entry, a matrix or a
// reachability table of the wrong size).  Each must either come back as a
// matrix that every rung routes under strict simulation, with a report
// that accounts for it, or throw std::invalid_argument; nothing else.
// Two graphs with unroutable pairs: one-way reachability and islands.
TEST(Sanitize, MutatedMatricesSanitizeOrThrowInvalidArgument) {
  const auto family = routing::family::graph_family();
  util::Rng rng(17000);
  int sanitized = 0;
  int rejected = 0;
  for (const auto& c : family) {
    if (c.name != "ws16-cut" && c.name != "split-er7-ba9") continue;
    const graph::DiGraph& g = c.g;
    const int n = g.num_nodes();
    const auto nn = static_cast<std::size_t>(n) * static_cast<std::size_t>(n);
    serve::TopologyCache cache(1, routing::SoftminOptions{}, 1.0, 1.0);
    const auto entry = cache.acquire(g);
    const std::vector<double> unit(static_cast<std::size_t>(g.num_edges()),
                                   1.0);
    serve::SanitizeLimits limits;
    for (int iter = 0; iter < 300; ++iter) {
      std::vector<double> raw = traffic::bimodal_matrix(
                                    n, traffic::BimodalParams{}, rng)
                                    .raw();
      int size = n;
      std::size_t table_size = nn;
      const int mutations = 1 + static_cast<int>(rng.uniform_index(4));
      for (int m = 0; m < mutations; ++m) {
        double& d = raw[rng.uniform_index(raw.size())];
        switch (rng.uniform_index(10)) {
          case 0: d = std::numeric_limits<double>::quiet_NaN(); break;
          case 1: d = std::numeric_limits<double>::infinity(); break;
          case 2: d = -std::numeric_limits<double>::infinity(); break;
          case 3: d = -rng.uniform(0.0, 1e6); break;
          case 4:
            d = rng.uniform(0.5, 1.0) * std::numeric_limits<double>::max();
            break;
          case 5:
            d = std::numeric_limits<double>::denorm_min() *
                static_cast<double>(1 + rng.uniform_index(1000));
            break;
          case 6: d = -0.0; break;
          case 7: {
            unsigned char bytes[sizeof(double)];
            std::memcpy(bytes, &d, sizeof d);
            bytes[rng.uniform_index(sizeof d)] ^= static_cast<unsigned char>(
                1U << rng.uniform_index(8));
            std::memcpy(&d, bytes, sizeof d);
            break;
          }
          case 8: size = n + (rng.uniform_index(2) == 0 ? -1 : 1); break;
          default: table_size = nn + 1 - 2 * rng.uniform_index(2); break;
        }
      }
      if (size != n) {
        raw.assign(static_cast<std::size_t>(size) *
                       static_cast<std::size_t>(size),
                   1.0);
      }
      const auto in = traffic::DemandMatrix::from_raw_unchecked(size, raw);
      std::vector<bool> reachable = entry->reachable;
      reachable.resize(table_size, true);
      serve::SanitizeReport report;
      traffic::DemandMatrix out;
      try {
        out = serve::sanitize_demands(in, n, limits, reachable, report);
      } catch (const std::invalid_argument&) {
        EXPECT_NE(table_size, nn) << c.name << " iteration " << iter;
        ++rejected;
        continue;
      }
      ++sanitized;
      const std::string at = c.name + " iteration " + std::to_string(iter);
      ASSERT_EQ(out.num_nodes(), n) << at;
      EXPECT_EQ(report.size_mismatch, size != n) << at;
      for (int s = 0; s < n; ++s) {
        for (int t = 0; t < n; ++t) {
          const double d = out.at(s, t);
          ASSERT_TRUE(std::isfinite(d) && d >= 0.0 && d <= limits.max_demand)
              << at << " (" << s << ", " << t << ") = " << d;
          if (s == t || !entry->reachable[static_cast<std::size_t>(s) *
                                              static_cast<std::size_t>(n) +
                                          static_cast<std::size_t>(t)]) {
            ASSERT_EQ(d, 0.0) << at << " (" << s << ", " << t << ")";
          }
        }
      }
      const double routed = report.offered_demand - report.unroutable_demand -
                            report.clamped_demand;
      if (std::isfinite(report.offered_demand)) {
        EXPECT_LE(std::abs(out.total() - routed),
                  1e-9 * report.offered_demand + 1e-300)
            << at;
      }
      // Every rung: the learned rung's fused sweep (unit weights stand in
      // for the policy), then the two cached static routings.
      EXPECT_NO_THROW({
        const auto fused = routing::softmin_simulate(g, unit, {}, out);
        EXPECT_TRUE(std::isfinite(fused.sim.u_max)) << at;
        routing::simulate(g, entry->inverse_capacity, out);
        routing::simulate(g, entry->shortest_path, out);
      }) << at;
    }
  }
  EXPECT_GT(sanitized, 400);
  EXPECT_GT(rejected, 20);
}

// ---------------- TopologyCache ----------------

traffic::DemandMatrix reachable_mesh(const graph::DiGraph& g,
                                     const std::vector<bool>& reachable) {
  const int n = g.num_nodes();
  traffic::DemandMatrix dm(n);
  for (int s = 0; s < n; ++s) {
    for (int t = 0; t < n; ++t) {
      if (s != t && reachable[static_cast<std::size_t>(s) * n + t]) {
        dm.set(s, t, 1.0);
      }
    }
  }
  return dm;
}

TEST(TopologyCache, MissBuildsValidFallbackRoutings) {
  serve::TopologyCache cache(4, routing::SoftminOptions{}, 1.0, 1.0);
  const auto g = topo::abilene();
  const auto entry = cache.acquire(g);
  ASSERT_TRUE(entry);
  EXPECT_EQ(cache.misses(), 1);
  EXPECT_EQ(cache.hits(), 0);

  // Abilene is strongly connected: every pair is reachable.
  const auto n = static_cast<std::size_t>(g.num_nodes());
  ASSERT_EQ(entry->reachable.size(), n * n);
  for (bool r : entry->reachable) EXPECT_TRUE(r);

  // Both static rungs satisfy the full validity contract.
  const auto dm = reachable_mesh(g, entry->reachable);
  std::string error;
  EXPECT_TRUE(routing::validate(g, entry->inverse_capacity, dm, &error))
      << error;
  EXPECT_TRUE(routing::validate(g, entry->shortest_path, dm, &error)) << error;
  EXPECT_FALSE(entry->last_good.has());

  cache.acquire(g);
  EXPECT_EQ(cache.hits(), 1);
  EXPECT_EQ(cache.size(), 1U);
}

TEST(TopologyCache, EvictsLeastRecentlyUsed) {
  serve::TopologyCache cache(2, routing::SoftminOptions{}, 1.0, 1.0);
  const auto a = topo::abilene();
  const auto b = topo::nsfnet();
  const auto c = topo::abilene_heterogeneous();

  cache.acquire(a);
  cache.acquire(b);
  cache.acquire(a);  // refresh A's recency
  cache.acquire(c);  // evicts B
  EXPECT_EQ(cache.size(), 2U);
  EXPECT_EQ(cache.misses(), 3);

  cache.acquire(b);  // B must be rebuilt
  EXPECT_EQ(cache.misses(), 4);
  cache.acquire(c);  // C survived the eviction of A
  EXPECT_EQ(cache.misses(), 4);
  EXPECT_EQ(cache.hits(), 2);
}

// Regression (dangling cache entry): acquire() used to return a reference
// into the cache's own storage, so an eviction — any other topology
// arriving on a full cache — freed the entry out from under the holder.
// With a capacity-1 cache every alternation is an eviction; holding the
// first entry across them and then reading it is the exact
// use-after-free the ASan CI leg would catch pre-fix.
TEST(TopologyCache, AcquiredEntrySurvivesEviction) {
  serve::TopologyCache cache(1, routing::SoftminOptions{}, 1.0, 1.0);
  const auto a = topo::abilene();
  const auto b = topo::nsfnet();

  const auto held = cache.acquire(a);
  ASSERT_TRUE(held);
  const auto fingerprint = held->fingerprint;
  for (int i = 0; i < 4; ++i) {
    cache.acquire(b);  // evicts a
    cache.acquire(a);  // rebuilds a, evicts b
  }
  EXPECT_EQ(cache.size(), 1U);

  // The held entry is still alive and intact, whatever the cache did.
  EXPECT_EQ(held->fingerprint, fingerprint);
  const auto dm = reachable_mesh(a, held->reachable);
  std::string error;
  EXPECT_TRUE(routing::validate(a, held->inverse_capacity, dm, &error))
      << error;
  EXPECT_TRUE(routing::validate(a, held->shortest_path, dm, &error)) << error;
}

TEST(TopologyCache, ConcurrentChurnKeepsEntriesAlive) {
  // 8 threads alternate two topologies through a capacity-1 cache — every
  // acquire is a potential eviction of an entry another thread is reading.
  serve::TopologyCache cache(1, routing::SoftminOptions{}, 1.0, 1.0);
  const auto a = topo::abilene();
  const auto b = topo::nsfnet();

  std::vector<std::thread> threads;
  std::atomic<int> bad{0};
  for (int w = 0; w < 8; ++w) {
    threads.emplace_back([&, w] {
      for (int i = 0; i < 25; ++i) {
        const graph::DiGraph& g = ((w + i) % 2 == 0) ? a : b;
        const auto entry = cache.acquire(g);
        const auto n = static_cast<std::size_t>(g.num_nodes());
        if (!entry || entry->reachable.size() != n * n) {
          bad.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(bad.load(), 0);
  EXPECT_EQ(cache.size(), 1U);
}

TEST(TopologyCache, LastGoodBoxRefreshesAndInvalidates) {
  serve::TopologyCache cache(2, routing::SoftminOptions{}, 1.0, 1.0);
  const auto g = topo::abilene();
  const auto entry = cache.acquire(g);

  routing::Routing out;
  EXPECT_FALSE(entry->last_good.load(out));

  // First offer always stores; later offers only every refresh_every.
  entry->last_good.offer(entry->shortest_path, 3);
  EXPECT_TRUE(entry->last_good.has());
  entry->last_good.offer(entry->inverse_capacity, 3);  // 1 of 3: kept old
  ASSERT_TRUE(entry->last_good.load(out));
  std::string error;
  const auto dm = reachable_mesh(g, entry->reachable);
  EXPECT_TRUE(routing::validate(g, out, dm, &error)) << error;

  entry->last_good.invalidate();
  EXPECT_FALSE(entry->last_good.has());
  EXPECT_FALSE(entry->last_good.load(out));
}

TEST(TopologyCache, ReachabilityReflectsDisconnection) {
  // Remove every out-edge of node 0: nothing is reachable *from* 0, but 0
  // stays reachable from everyone (its in-edges survive).
  const auto g = topo::abilene();
  std::vector<bool> remove(static_cast<std::size_t>(g.num_edges()), false);
  for (graph::EdgeId e : g.out_edges(0)) remove[static_cast<std::size_t>(e)] = true;
  const auto degraded = g.without_edges(remove);

  serve::TopologyCache cache(2, routing::SoftminOptions{}, 1.0, 1.0);
  const auto entry = cache.acquire(degraded);
  const int n = degraded.num_nodes();
  for (int t = 1; t < n; ++t) {
    EXPECT_FALSE(entry->reachable[static_cast<std::size_t>(0) * n + t]);
    EXPECT_TRUE(entry->reachable[static_cast<std::size_t>(t) * n + 0]);
  }
  // The diagonal is always reachable.
  EXPECT_TRUE(entry->reachable[0]);
}

TEST(TopologyCache, RejectsBadConfiguration) {
  EXPECT_THROW(serve::TopologyCache(0, routing::SoftminOptions{}, 1.0, 1.0),
               std::invalid_argument);
  EXPECT_THROW(serve::TopologyCache(2, routing::SoftminOptions{}, 0.0, 1.0),
               std::invalid_argument);
}

// ---------------- MpmcQueue ----------------

TEST(MpmcQueue, BoundedPushPopAndEviction) {
  util::MpmcQueue<int> q(2);
  int out = 0;
  EXPECT_FALSE(q.try_pop(out));
  EXPECT_TRUE(q.try_push(1));
  EXPECT_TRUE(q.try_push(2));
  EXPECT_FALSE(q.try_push(3));  // full: shed signal, never blocks
  EXPECT_EQ(q.size(), 2U);

  // Predicate eviction removes the oldest match only.
  EXPECT_TRUE(q.evict_first_if([](int v) { return v > 0; }, out));
  EXPECT_EQ(out, 1);
  EXPECT_FALSE(q.evict_first_if([](int v) { return v > 10; }, out));

  EXPECT_TRUE(q.try_push(3));
  EXPECT_TRUE(q.pop(out));
  EXPECT_EQ(out, 2);

  // Close-and-drain: queued items stay poppable, new pushes are refused,
  // and a drained pop returns false instead of blocking.
  q.close();
  EXPECT_FALSE(q.try_push(4));
  EXPECT_TRUE(q.pop(out));
  EXPECT_EQ(out, 3);
  EXPECT_FALSE(q.pop(out));
}

// ---------------- RobustRouter ----------------

RouterConfig test_router_config() {
  RouterConfig config;
  config.deadline = microseconds(2'000'000);
  config.memory = 5;
  return config;
}

RouteRequest make_request(const graph::DiGraph& g, double demand = 1.0) {
  RouteRequest request;
  request.graph = &g;
  request.demand = traffic::DemandMatrix(g.num_nodes());
  request.demand.set(0, 1, demand);
  request.demand.set(2, 0, demand * 0.5);
  return request;
}

TEST(RobustRouter, ServesTopRungWhenHealthy) {
  util::Rng rng(7);
  core::GnnPolicy policy(core::experiment_gnn_config(5), rng);
  RobustRouter router(&policy, test_router_config());
  const auto g = topo::abilene();

  const auto decision = router.decide(make_request(g));
  EXPECT_EQ(decision.rung, Rung::kGnnPolicy);
  EXPECT_TRUE(decision.attempts.empty());
  EXPECT_TRUE(decision.sanitize.clean());
  EXPECT_GT(decision.routed_demand, 0.0);
  EXPECT_GT(decision.sim.u_max, 0.0);
  EXPECT_FALSE(decision.deadline_exhausted);
  EXPECT_EQ(router.stats().requests, 1);
  EXPECT_EQ(router.stats().rung_decisions[static_cast<int>(Rung::kGnnPolicy)],
            1);
}

// The benchmark's traced stage replay re-runs the policy rung as the
// two-pass path (softmin_routing, then simulate) and requires
// RobustRouter::decide's U_max with ==.  The same check here fails ctest
// before a drift fails the benchmark.  The replay's action mean comes
// from the tape (a one-observation GnnPolicy::evaluate_batch), so it also
// pins serving's tape-free mean-only forward to the training forward,
// bit for bit.
TEST(RobustRouter, PolicyRungMatchesTheTwoPassReplayBitForBit) {
  for (const bool ba100 : {false, true}) {
    util::Rng graph_rng(100);
    const graph::DiGraph g =
        ba100 ? topo::barabasi_albert(100, 2, graph_rng) : topo::abilene();
    core::ScenarioParams params = core::experiment_scenario_params();
    params.train_sequences = 0;
    params.test_sequences = 1;
    util::Rng scenario_rng(3);
    const core::Scenario scenario =
        core::make_scenario(g, params, scenario_rng);
    util::Rng policy_rng(7);
    core::GnnPolicy policy(core::experiment_gnn_config(5), policy_rng);
    RouterConfig cfg = test_router_config();
    cfg.node_feature_scale = scenario.node_feature_scale;
    cfg.flat_feature_scale = scenario.flat_feature_scale;
    RobustRouter router(&policy, cfg);
    const auto& seq = scenario.test_sequences[0];
    for (int t = cfg.memory; t < cfg.memory + 3; ++t) {
      RouteRequest request;
      request.graph = &g;
      request.demand = seq[static_cast<std::size_t>(t)];
      request.history.assign(seq.begin() + (t - cfg.memory),
                             seq.begin() + t);
      const auto decision = router.decide(request);
      ASSERT_EQ(decision.rung, Rung::kGnnPolicy) << "ba100 " << ba100;

      const auto entry = router.topology_cache().acquire(g);
      serve::SanitizeReport report;
      const traffic::DemandMatrix demand = serve::sanitize_demands(
          request.demand, g.num_nodes(), cfg.sanitize, entry->reachable,
          report);
      const rl::Observation obs = core::RoutingEnv::build_observation(
          entry->obs_scenario, request.history, cfg.memory, cfg.memory,
          cfg.node_features);
      nn::Tape tape;
      const nn::Tensor& tape_mean =
          tape.value(policy.evaluate_batch(tape, {&obs}).means);
      const std::vector<double> mean(tape_mean.data().begin(),
                                     tape_mean.data().end());
      const routing::Routing replay = routing::softmin_routing(
          g, routing::weights_from_actions(mean, cfg.min_weight,
                                           cfg.max_weight),
          cfg.softmin);
      EXPECT_EQ(decision.sim.u_max,
                routing::simulate(g, replay, demand).u_max)
          << "ba100 " << ba100 << " step " << t;
      for (graph::NodeId dest = 0; dest < g.num_nodes(); ++dest) {
        const auto served = decision.routing.dest_ratios(dest);
        const auto expected = replay.dest_ratios(dest);
        ASSERT_EQ(served.size(), expected.size());
        EXPECT_EQ(std::memcmp(served.data(), expected.data(),
                              served.size_bytes()),
                  0)
            << "ba100 " << ba100 << " step " << t << " row " << dest;
      }
    }
  }
}

TEST(RobustRouter, NoPolicyServesFromStaticRungs) {
  RobustRouter router(nullptr, test_router_config());
  const auto g = topo::abilene();

  const auto decision = router.decide(make_request(g));
  EXPECT_EQ(decision.rung, Rung::kInverseCapacity);
  ASSERT_EQ(decision.attempts.size(), 2U);
  EXPECT_EQ(decision.attempts[0].rung, Rung::kGnnPolicy);
  EXPECT_EQ(decision.attempts[0].cause, FailureCause::kNoPolicy);
  EXPECT_EQ(decision.attempts[1].rung, Rung::kLastKnownGood);
  EXPECT_EQ(decision.attempts[1].cause, FailureCause::kNotCached);
  EXPECT_GT(decision.routed_demand, 0.0);
}

TEST(RobustRouter, PolicyNanFaultFallsBackThenRecovers) {
  FaultGuard guard;
  util::Rng rng(7);
  core::GnnPolicy policy(core::experiment_gnn_config(5), rng);
  RobustRouter router(&policy, test_router_config());
  const auto g = topo::abilene();

  util::FaultInjector::instance().arm("policy_nan@1");
  const auto degraded = router.decide(make_request(g));
  EXPECT_NE(degraded.rung, Rung::kGnnPolicy);
  ASSERT_FALSE(degraded.attempts.empty());
  EXPECT_EQ(degraded.attempts[0].rung, Rung::kGnnPolicy);
  EXPECT_EQ(degraded.attempts[0].cause, FailureCause::kNonFiniteOutput);

  // The schedule is exhausted: the next request is healthy again.
  const auto healthy = router.decide(make_request(g));
  EXPECT_EQ(healthy.rung, Rung::kGnnPolicy);
}

TEST(RobustRouter, LastKnownGoodCoversPolicyOutage) {
  FaultGuard guard;
  util::Rng rng(7);
  core::GnnPolicy policy(core::experiment_gnn_config(5), rng);
  RouterConfig config = test_router_config();
  config.lkg_refresh_every = 1;  // cache the learned routing immediately
  RobustRouter router(&policy, config);
  const auto g = topo::abilene();

  ASSERT_EQ(router.decide(make_request(g)).rung, Rung::kGnnPolicy);

  util::FaultInjector::instance().arm("policy_nan@1");
  const auto decision = router.decide(make_request(g));
  EXPECT_EQ(decision.rung, Rung::kLastKnownGood);
  EXPECT_GT(decision.routed_demand, 0.0);
}

TEST(RobustRouter, BreakerTripsThenProbeRecovers) {
  FaultGuard guard;
  util::Rng rng(7);
  core::GnnPolicy policy(core::experiment_gnn_config(5), rng);
  RouterConfig config = test_router_config();
  config.breaker.failure_threshold = 2;
  config.breaker.initial_backoff = microseconds(1);  // elapses immediately
  RobustRouter router(&policy, config);
  const auto g = topo::abilene();

  // Every rung-1 attempt fails until disarmed.
  util::FaultInjector::instance().arm("policy_nan@1+");
  router.decide(make_request(g));
  router.decide(make_request(g));  // second failure trips the breaker
  EXPECT_EQ(router.breaker().stats().trips, 1);

  // Still armed: the next admitted probe fails and re-opens.
  const auto reopened = router.decide(make_request(g));
  EXPECT_NE(reopened.rung, Rung::kGnnPolicy);

  // Healed: a probe succeeds and closes the breaker again.
  util::FaultInjector::instance().disarm();
  const auto recovered = router.decide(make_request(g));
  EXPECT_EQ(recovered.rung, Rung::kGnnPolicy);
  EXPECT_EQ(router.breaker().state(), BreakerState::kClosed);
  EXPECT_GE(router.breaker().stats().probes, 1);
  EXPECT_EQ(router.breaker().stats().recoveries, 1);
}

TEST(RobustRouter, ExhaustedDeadlineStillYieldsValidRouting) {
  util::Rng rng(7);
  core::GnnPolicy policy(core::experiment_gnn_config(5), rng);
  RouterConfig config = test_router_config();
  config.deadline = microseconds(1);  // expired before rung 1 finishes
  RobustRouter router(&policy, config);
  const auto g = topo::abilene();

  const auto decision = router.decide(make_request(g));
  EXPECT_TRUE(decision.deadline_exhausted);
  // Rung 4 is always materialised, so the decision is still routable.
  EXPECT_EQ(decision.rung, Rung::kShortestPath);
  EXPECT_GT(decision.routed_demand, 0.0);
  std::string error;
  const auto mesh = reachable_mesh(
      g, full_mesh_reachability(g.num_nodes()));
  EXPECT_TRUE(routing::validate(g, decision.routing, mesh, &error)) << error;
  EXPECT_EQ(router.stats().deadline_exhausted, 1);
}

TEST(RobustRouter, NeverThrowsOnGarbageRequests) {
  util::Rng rng(7);
  core::GnnPolicy policy(core::experiment_gnn_config(5), rng);
  RobustRouter router(&policy, test_router_config());
  const auto g = topo::abilene();
  const int n = g.num_nodes();

  // Null topology: the only unservable request shape.
  RouteRequest no_graph;
  no_graph.demand = traffic::DemandMatrix(n);
  const auto dropped = router.decide(no_graph);
  EXPECT_EQ(dropped.rung, Rung::kDropTraffic);
  ASSERT_FALSE(dropped.attempts.empty());
  EXPECT_EQ(dropped.attempts.back().cause, FailureCause::kInvalidTopology);
  EXPECT_DOUBLE_EQ(dropped.routed_demand, 0.0);

  // NaN / negative / diagonal / huge entries plus a size-mismatched
  // history matrix: sanitised and served, never thrown.
  std::vector<double> raw(static_cast<std::size_t>(n) * n, 0.1);
  raw[1] = std::numeric_limits<double>::quiet_NaN();
  raw[2] = -1e9;
  raw[0] = 5.0;  // diagonal
  raw[3] = 1e300;
  RouteRequest garbage;
  garbage.graph = &g;
  garbage.demand = traffic::DemandMatrix::from_raw_unchecked(n, raw);
  garbage.history.emplace_back(2);  // wrong size: replaced by zeros
  const auto decision = router.decide(garbage);
  EXPECT_FALSE(decision.sanitize.clean());
  EXPECT_GE(decision.sanitize.non_finite_entries, 1);
  EXPECT_GE(decision.sanitize.negative_entries, 1);
  EXPECT_GE(decision.sanitize.clamped_entries, 1);
  EXPECT_NE(decision.rung, Rung::kDropTraffic);
  EXPECT_GT(decision.routed_demand, 0.0);

  // A size-mismatched demand matrix degrades to an empty (but decided)
  // request instead of an exception.
  RouteRequest mismatched;
  mismatched.graph = &g;
  mismatched.demand = traffic::DemandMatrix(n + 1);
  const auto empty = router.decide(mismatched);
  EXPECT_TRUE(empty.sanitize.size_mismatch);
  EXPECT_DOUBLE_EQ(empty.routed_demand, 0.0);
}

TEST(RobustRouter, TopoChangeFaultInvalidatesLastKnownGood) {
  FaultGuard guard;
  util::Rng rng(7);
  core::GnnPolicy policy(core::experiment_gnn_config(5), rng);
  RouterConfig config = test_router_config();
  config.lkg_refresh_every = 1;
  RobustRouter router(&policy, config);
  const auto g = topo::abilene();

  ASSERT_EQ(router.decide(make_request(g)).rung, Rung::kGnnPolicy);

  // The topology-change fault both fails rung 1 and drops the cached
  // last-known-good, so the decision lands on the static rung 3.
  util::FaultInjector::instance().arm("topo_change@1");
  const auto decision = router.decide(make_request(g));
  EXPECT_EQ(decision.rung, Rung::kInverseCapacity);
  ASSERT_GE(decision.attempts.size(), 2U);
  EXPECT_EQ(decision.attempts[0].cause, FailureCause::kTopologyChanged);
  EXPECT_EQ(decision.attempts[1].cause, FailureCause::kNotCached);
}

TEST(RobustRouter, ExportsServeMetricsWhenEnabled) {
  auto& registry = obs::Registry::instance();
  registry.reset();
  registry.enable();
  {
    util::Rng rng(7);
    core::GnnPolicy policy(core::experiment_gnn_config(5), rng);
    RobustRouter router(&policy, test_router_config());
    const auto g = topo::abilene();
    router.decide(make_request(g));
    router.decide(make_request(g));
  }
  registry.disable();

  EXPECT_EQ(obs::Registry::instance().counter("serve/requests"), 2U);
  EXPECT_EQ(obs::Registry::instance().counter("serve/rung/gnn_policy"), 2U);
  EXPECT_EQ(obs::Registry::instance().counter("serve/topo_cache/miss"), 1U);
  registry.reset();
}

TEST(RobustRouter, RejectsBadStageFractions) {
  RouterConfig config = test_router_config();
  config.policy_fraction = 0.7;
  config.translate_fraction = 0.4;
  EXPECT_THROW(RobustRouter(nullptr, config), std::invalid_argument);
}

// ---------------- serve::Engine ----------------

EngineConfig inline_engine_config() {
  EngineConfig config;
  config.workers = 0;
  config.queue_capacity = 64;
  config.max_batch = 4;
  config.router = test_router_config();
  return config;
}

TEST(Engine, InlineModeServesQueuedRequestsInBatches) {
  Engine engine(nullptr, inline_engine_config());
  const auto g = topo::abilene();

  std::vector<std::future<ServeOutcome>> futures;
  for (int i = 0; i < 8; ++i) futures.push_back(engine.submit(make_request(g)));
  engine.poll();

  for (auto& f : futures) {
    const ServeOutcome outcome = f.get();
    EXPECT_FALSE(outcome.shed);
    EXPECT_EQ(outcome.decision.rung, Rung::kInverseCapacity);
    EXPECT_GT(outcome.decision.routed_demand, 0.0);
  }
  const auto stats = engine.stats();
  EXPECT_EQ(stats.offered, 8);
  EXPECT_EQ(stats.served, 8);
  EXPECT_EQ(stats.shed, 0);
  EXPECT_EQ(stats.batches, 2);  // 8 jobs, max_batch 4
}

// A batch is whatever is queued, whatever its topology: six requests
// alternating Abilene and Nsfnet form one batch, and each decision is
// bit-identical to a plain RobustRouter's.
TEST(Engine, InlineBatchMixesTopologiesLikeAPlainRouter) {
  util::Rng rng(7);
  core::GnnPolicy policy(core::experiment_gnn_config(5), rng);
  EngineConfig config = inline_engine_config();
  config.max_batch = 8;
  Engine engine(&policy, config);
  RobustRouter reference(&policy, test_router_config());
  const auto a = topo::abilene();
  const auto b = topo::nsfnet();

  std::vector<RouteRequest> requests;
  std::vector<std::future<ServeOutcome>> futures;
  for (int i = 0; i < 6; ++i) {
    requests.push_back(make_request(i % 2 == 0 ? a : b, 1.0 + i));
    futures.push_back(engine.submit(requests.back()));
  }
  engine.poll();
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const ServeOutcome outcome = futures[i].get();
    ASSERT_FALSE(outcome.shed) << i;
    const serve::RouteDecision expected = reference.decide(requests[i]);
    EXPECT_EQ(outcome.decision.rung, Rung::kGnnPolicy) << i;
    EXPECT_EQ(outcome.decision.rung, expected.rung) << i;
    EXPECT_EQ(outcome.decision.sim.u_max, expected.sim.u_max) << i;
    EXPECT_EQ(outcome.decision.routed_demand, expected.routed_demand) << i;
    const graph::DiGraph& g = i % 2 == 0 ? a : b;
    for (graph::NodeId dest = 0; dest < g.num_nodes(); ++dest) {
      const auto served = outcome.decision.routing.dest_ratios(dest);
      const auto ref = expected.routing.dest_ratios(dest);
      ASSERT_EQ(served.size(), ref.size());
      EXPECT_EQ(
          std::memcmp(served.data(), ref.data(), served.size_bytes()), 0)
          << i << " row " << dest;
    }
  }
  EXPECT_EQ(engine.stats().batches, 1);
}

TEST(Engine, RejectNewestShedsWhenQueueIsFull) {
  EngineConfig config = inline_engine_config();
  config.queue_capacity = 2;
  config.shed_policy = ShedPolicy::kRejectNewest;
  Engine engine(nullptr, config);
  const auto g = topo::abilene();

  auto f0 = engine.submit(make_request(g));
  auto f1 = engine.submit(make_request(g));
  auto f2 = engine.submit(make_request(g));  // queue full: shed on arrival

  const ServeOutcome rejected = f2.get();  // ready without any poll
  EXPECT_TRUE(rejected.shed);

  engine.poll();
  EXPECT_FALSE(f0.get().shed);
  EXPECT_FALSE(f1.get().shed);
  const auto stats = engine.stats();
  EXPECT_EQ(stats.offered, stats.served + stats.shed);
  EXPECT_EQ(stats.shed, 1);
}

TEST(Engine, ExpiredFirstEvictsStaleJobToAdmitFreshOne) {
  EngineConfig config = inline_engine_config();
  config.queue_capacity = 2;
  config.shed_policy = ShedPolicy::kExpiredFirst;
  config.queue_deadline = microseconds(2000);
  Engine engine(nullptr, config);
  const auto g = topo::abilene();

  auto f0 = engine.submit(make_request(g));
  auto f1 = engine.submit(make_request(g));
  // Let both queued jobs pass their deadline, then offer a fresh one.
  spin_until(Clock::now() + microseconds(3000));
  auto f2 = engine.submit(make_request(g));

  // The oldest expired job was evicted to make room: f0 is already shed,
  // the fresh job was admitted.
  EXPECT_TRUE(f0.get().shed);
  engine.poll();
  EXPECT_TRUE(f1.get().shed);    // expired while queued: shed at dispatch
  EXPECT_FALSE(f2.get().shed);   // fresh: served
  const auto stats = engine.stats();
  EXPECT_EQ(stats.offered, 3);
  EXPECT_EQ(stats.shed, 2);
  EXPECT_EQ(stats.served, 1);
}

TEST(Engine, DispatchShedsJobsPastTheirDeadline) {
  EngineConfig config = inline_engine_config();
  config.queue_deadline = microseconds(1000);
  Engine engine(nullptr, config);
  const auto g = topo::abilene();

  std::vector<std::future<ServeOutcome>> futures;
  for (int i = 0; i < 3; ++i) futures.push_back(engine.submit(make_request(g)));
  spin_until(Clock::now() + microseconds(2000));
  engine.poll();

  for (auto& f : futures) EXPECT_TRUE(f.get().shed);
  const auto stats = engine.stats();
  EXPECT_EQ(stats.shed, 3);
  EXPECT_EQ(stats.served, 0);
  EXPECT_EQ(stats.batches, 0);  // nothing survived to reach a router
}

TEST(Engine, BatchedEngineDecisionsMatchPlainRouter) {
  util::Rng rng(7);
  core::GnnPolicy policy(core::experiment_gnn_config(5), rng);
  EngineConfig config = inline_engine_config();
  config.max_batch = 8;
  Engine engine(&policy, config);
  RobustRouter reference(&policy, test_router_config());
  const auto g = topo::abilene();

  std::vector<std::future<ServeOutcome>> futures;
  for (int i = 0; i < 6; ++i) {
    futures.push_back(engine.submit(make_request(g, 0.5 + 0.25 * i)));
  }
  engine.poll();

  for (int i = 0; i < 6; ++i) {
    const ServeOutcome outcome = futures[static_cast<std::size_t>(i)].get();
    ASSERT_FALSE(outcome.shed);
    const auto solo = reference.decide(make_request(g, 0.5 + 0.25 * i));
    EXPECT_EQ(outcome.decision.rung, Rung::kGnnPolicy);
    EXPECT_EQ(outcome.decision.rung, solo.rung);
    EXPECT_EQ(outcome.decision.sim.u_max, solo.sim.u_max);
    EXPECT_EQ(outcome.decision.routed_demand, solo.routed_demand);
  }
  EXPECT_GE(engine.stats().batches, 1);
}

bool same_bits(std::span<const double> a, std::span<const double> b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size_bytes()) == 0);
}

bool same_bits(double a, double b) { return same_bits({&a, 1}, {&b, 1}); }

// Decisions must depend only on the request, not on the worker fleet
// shape, how the micro-batches happened to form or, on BA100, how rung 1's
// softmin sweep shared its destinations with the engine's helper pool (one
// thread per worker): every decision carries a plain router's bits,
// routing table, loads and U_max.
TEST(Engine, WorkerCountDoesNotChangeDecisions) {
  util::Rng rng(7);
  core::GnnPolicy policy(core::experiment_gnn_config(5), rng);
  const auto abilene = topo::abilene();
  util::Rng graph_rng(100);
  const auto ba100 = topo::barabasi_albert(100, 2, graph_rng);
  std::vector<RouteRequest> requests;
  for (int i = 0; i < 10; ++i) {
    requests.push_back(make_request(abilene, 0.5 + 0.125 * i));
  }
  for (int i = 0; i < 6; ++i) {
    RouteRequest request;
    request.graph = &ba100;
    request.demand = traffic::bimodal_matrix(ba100.num_nodes(),
                                             traffic::BimodalParams{}, rng);
    requests.push_back(std::move(request));
  }
  RobustRouter plain(&policy, test_router_config());
  std::vector<RouteDecision> expected;
  for (const RouteRequest& request : requests) {
    expected.push_back(plain.decide(request));
    ASSERT_EQ(expected.back().rung, Rung::kGnnPolicy);
  }

  for (const int workers : {0, 1, 2, 4}) {
    util::ThreadPool same_size(workers);
    EXPECT_EQ(routing::sweep_shards(ba100, &same_size) > 1, workers > 1)
        << workers << " workers";
    EngineConfig config = inline_engine_config();
    config.workers = workers;
    Engine engine(&policy, config);
    std::vector<std::future<ServeOutcome>> futures;
    for (const RouteRequest& request : requests) {
      futures.push_back(engine.submit(request));
    }
    engine.poll();  // no-op when workers > 0
    for (std::size_t i = 0; i < requests.size(); ++i) {
      const ServeOutcome outcome = futures[i].get();
      ASSERT_FALSE(outcome.shed);
      const RouteDecision& got = outcome.decision;
      const RouteDecision& want = expected[i];
      const graph::DiGraph& g = *requests[i].graph;
      ASSERT_EQ(got.rung, Rung::kGnnPolicy) << workers << " workers";
      EXPECT_TRUE(same_bits(got.sim.u_max, want.sim.u_max))
          << workers << " workers, request " << i;
      EXPECT_TRUE(same_bits(got.sim.link_load, want.sim.link_load))
          << workers << " workers, request " << i;
      for (graph::NodeId t = 0; t < g.num_nodes(); ++t) {
        ASSERT_TRUE(same_bits(got.routing.dest_ratios(t),
                              want.routing.dest_ratios(t)))
            << workers << " workers, request " << i << " row " << t;
      }
    }
  }
}

TEST(Engine, ShutdownDrainsEveryAdmittedJob) {
  EngineConfig config = inline_engine_config();
  config.workers = 2;
  config.queue_capacity = 128;
  Engine engine(nullptr, config);
  const auto g = topo::abilene();

  std::vector<std::future<ServeOutcome>> futures;
  for (int i = 0; i < 64; ++i) {
    futures.push_back(engine.submit(make_request(g)));
  }
  engine.shutdown();

  long served = 0;
  for (auto& f : futures) {
    if (!f.get().shed) ++served;
  }
  const auto stats = engine.stats();
  EXPECT_EQ(stats.offered, 64);
  EXPECT_EQ(stats.served + stats.shed, stats.offered);
  EXPECT_EQ(stats.served, served);
  // Post-shutdown the per-worker router stats are aggregated and must
  // account for exactly the served jobs.
  EXPECT_EQ(engine.router_stats().requests, served);

  // Submissions after shutdown are shed, keeping the conservation law.
  auto late = engine.submit(make_request(g));
  EXPECT_TRUE(late.get().shed);
  EXPECT_EQ(engine.stats().offered,
            engine.stats().served + engine.stats().shed);
}

TEST(Engine, SharedBreakerTripsForTheWholeFleet) {
  FaultGuard guard;
  util::Rng rng(7);
  core::GnnPolicy policy(core::experiment_gnn_config(5), rng);
  EngineConfig config = inline_engine_config();
  config.router.breaker.failure_threshold = 2;
  config.router.breaker.initial_backoff = microseconds(60'000'000);
  config.router.breaker.max_backoff = microseconds(120'000'000);
  Engine engine(&policy, config);
  const auto g = topo::abilene();

  // Every rung-1 attempt fails: two failures trip the one shared breaker,
  // and with an hour-scale backoff every later request skips rung 1.
  util::FaultInjector::instance().arm("policy_nan@1+");
  std::vector<std::future<ServeOutcome>> futures;
  for (int i = 0; i < 6; ++i) futures.push_back(engine.submit(make_request(g)));
  engine.poll();
  util::FaultInjector::instance().disarm();

  int gnn_decisions = 0;
  for (auto& f : futures) {
    const ServeOutcome outcome = f.get();
    ASSERT_FALSE(outcome.shed);
    if (outcome.decision.rung == Rung::kGnnPolicy) ++gnn_decisions;
  }
  EXPECT_EQ(gnn_decisions, 0);
  EXPECT_EQ(engine.breaker().stats().trips, 1);
  EXPECT_EQ(engine.breaker().state(), BreakerState::kOpen);
}

TEST(Engine, ConcurrentTopologyChurnResolvesEverything) {
  // End-to-end concurrency exercise for the TSan leg: 4 workers, a
  // capacity-1 shared topology cache and two alternating topologies, so
  // entries are evicted under the feet of in-flight decisions.
  EngineConfig config = inline_engine_config();
  config.workers = 4;
  config.queue_capacity = 256;
  config.router.topology_cache_capacity = 1;
  Engine engine(nullptr, config);
  const auto a = topo::abilene();
  const auto b = topo::nsfnet();

  std::vector<std::future<ServeOutcome>> futures;
  for (int i = 0; i < 120; ++i) {
    futures.push_back(engine.submit(make_request((i % 2 == 0) ? a : b)));
  }
  engine.shutdown();

  for (auto& f : futures) {
    const ServeOutcome outcome = f.get();
    if (!outcome.shed) {
      EXPECT_EQ(outcome.decision.rung, Rung::kInverseCapacity);
      EXPECT_GT(outcome.decision.routed_demand, 0.0);
    }
  }
  const auto stats = engine.stats();
  EXPECT_EQ(stats.offered, 120);
  EXPECT_EQ(stats.served + stats.shed, stats.offered);
  EXPECT_EQ(stats.shed, 0);  // no deadline and a deep queue: nothing shed
}

TEST(Engine, RejectsBadConfiguration) {
  EngineConfig bad_workers = inline_engine_config();
  bad_workers.workers = -1;
  EXPECT_THROW(Engine(nullptr, bad_workers), std::invalid_argument);

  EngineConfig bad_queue = inline_engine_config();
  bad_queue.queue_capacity = 0;
  EXPECT_THROW(Engine(nullptr, bad_queue), std::invalid_argument);

  EngineConfig bad_batch = inline_engine_config();
  bad_batch.max_batch = 0;
  EXPECT_THROW(Engine(nullptr, bad_batch), std::invalid_argument);
}

TEST(Engine, ConcurrentPollAndShutdownStayCoherent) {
  // Regression test for the inline-mode lifecycle race: poll(),
  // shutdown() and router_stats() used to drain the queue into the one
  // inline router and touch router_stats_ with no synchronisation, so a
  // stats poll racing a shutdown read the aggregate mid-write (and
  // router_stats() returned a reference into the mutating member).  All three now serialise on the
  // engine lifecycle mutex; under TSan this test fails without it.
  EngineConfig config = inline_engine_config();
  config.queue_capacity = 256;
  Engine engine(nullptr, config);
  const auto g = topo::abilene();

  std::vector<std::future<ServeOutcome>> futures;
  for (int i = 0; i < 48; ++i) {
    futures.push_back(engine.submit(make_request(g)));
  }

  std::atomic<bool> done{false};
  std::thread poller([&] {
    while (!done.load(std::memory_order_relaxed)) {
      engine.poll();
      // By-value snapshot: safe to read while shutdown() aggregates.
      const RouterStats rst = engine.router_stats();
      EXPECT_GE(rst.requests, 0L);
    }
  });
  std::thread stopper([&] { engine.shutdown(); });
  stopper.join();
  done.store(true, std::memory_order_relaxed);
  poller.join();

  long served = 0;
  for (auto& f : futures) {
    if (!f.get().shed) ++served;
  }
  const auto stats = engine.stats();
  EXPECT_EQ(stats.offered, 48);
  EXPECT_EQ(stats.served + stats.shed, stats.offered);
  EXPECT_EQ(engine.router_stats().requests, served);
}

// ---------------- Engine policy lifecycle seam ----------------

std::shared_ptr<const core::GnnPolicy> make_shared_policy(
    std::uint64_t seed) {
  util::Rng rng(seed);
  return std::make_shared<core::GnnPolicy>(core::experiment_gnn_config(5),
                                           rng);
}

TEST(Engine, HotSwapStampsVersionsAndCountsSwaps) {
  EngineConfig config = inline_engine_config();
  config.max_batch = 1;
  Engine engine(nullptr, config);
  const auto g = topo::abilene();

  engine.set_policy(make_shared_policy(1), 7);
  EXPECT_EQ(engine.live_version(), 7U);
  auto f1 = engine.submit(make_request(g));
  engine.poll();
  const ServeOutcome first = f1.get();
  ASSERT_FALSE(first.shed);
  EXPECT_EQ(first.decision.rung, Rung::kGnnPolicy);
  EXPECT_EQ(first.decision.policy_version, 7U);
  EXPECT_FALSE(first.decision.served_by_candidate);

  engine.set_policy(make_shared_policy(2), 9);
  auto f2 = engine.submit(make_request(g));
  engine.poll();
  EXPECT_EQ(f2.get().decision.policy_version, 9U);
  EXPECT_EQ(engine.live_version(), 9U);
  EXPECT_EQ(engine.swaps(), 2);
}

TEST(Engine, CanaryFractionSplitsAttributionDeterministically) {
  EngineConfig config = inline_engine_config();
  config.max_batch = 1;  // per-request batches: fraction = request share
  Engine engine(nullptr, config);
  const auto g = topo::abilene();
  engine.set_policy(make_shared_policy(1), 1);

  // Full canary: every micro-batch goes to the candidate.
  engine.set_candidate(make_shared_policy(2), 2, 1.0);
  for (int i = 0; i < 3; ++i) {
    auto f = engine.submit(make_request(g));
    engine.poll();
    const ServeOutcome outcome = f.get();
    ASSERT_FALSE(outcome.shed);
    EXPECT_TRUE(outcome.decision.served_by_candidate);
    EXPECT_EQ(outcome.decision.policy_version, 2U);
  }
  // The canary never became live.
  EXPECT_EQ(engine.live_version(), 1U);

  // Disarming the canary returns all traffic to the incumbent.
  engine.clear_candidate();
  auto f = engine.submit(make_request(g));
  engine.poll();
  const ServeOutcome after = f.get();
  EXPECT_FALSE(after.decision.served_by_candidate);
  EXPECT_EQ(after.decision.policy_version, 1U);

  // Zero fraction arms nothing.
  engine.set_candidate(make_shared_policy(3), 3, 0.0);
  auto f0 = engine.submit(make_request(g));
  engine.poll();
  EXPECT_FALSE(f0.get().decision.served_by_candidate);
}

TEST(Engine, DecisionObserverSeesEveryServedDecision) {
  EngineConfig config = inline_engine_config();
  config.max_batch = 4;
  Engine engine(nullptr, config);
  const auto g = topo::abilene();
  engine.set_policy(make_shared_policy(1), 3);

  std::vector<serve::DecisionRecord> records;
  engine.set_decision_observer(
      [&records](const RouteRequest& request,
                 const serve::DecisionRecord& record) {
        EXPECT_NE(request.graph, nullptr);
        records.push_back(record);
      });

  std::vector<std::future<ServeOutcome>> futures;
  for (int i = 0; i < 6; ++i) {
    futures.push_back(engine.submit(make_request(g, 0.5 + 0.1 * i)));
  }
  engine.poll();
  for (auto& f : futures) ASSERT_FALSE(f.get().shed);

  ASSERT_EQ(records.size(), 6U);
  for (const serve::DecisionRecord& record : records) {
    EXPECT_EQ(record.rung, Rung::kGnnPolicy);
    EXPECT_EQ(record.policy_version, 3U);
    EXPECT_FALSE(record.served_by_candidate);
    EXPECT_FALSE(record.nonfinite_policy_output);
    EXPECT_TRUE(std::isfinite(record.u_max));
    EXPECT_GT(record.routed_demand, 0.0);
  }
}

TEST(Engine, ConcurrentHotSwapNeverTearsABatch) {
  // Regression test for the policy lifecycle seam (written for the TSan
  // and ASan CI legs): workers must re-read the policy slot once per
  // micro-batch and hold the shared_ptr for the batch's duration — a
  // worker caching the raw pointer across batches would race the swap
  // below and use freed weights, because each swapped-out policy's last
  // reference dies with the swap.
  EngineConfig config;
  config.workers = 2;
  config.queue_capacity = 64;
  config.max_batch = 4;
  config.router = test_router_config();
  Engine engine(nullptr, config);
  const auto g = topo::abilene();
  engine.set_policy(make_shared_policy(1), 1);

  std::atomic<bool> done{false};
  std::thread swapper([&engine, &done] {
    std::uint64_t version = 2;
    while (!done.load(std::memory_order_relaxed)) {
      // A fresh policy every swap: the previous one is freed as soon as
      // the last in-flight batch using it completes.
      engine.set_policy(make_shared_policy(version), version);
      ++version;
    }
  });
  // Serve only once the swapper is running, so the swaps overlap the
  // batches on any scheduler (the 64 requests can otherwise all be
  // served before the swapper thread first runs).
  while (engine.swaps() < 2) std::this_thread::yield();

  std::vector<std::future<ServeOutcome>> futures;
  for (int i = 0; i < 64; ++i) {
    futures.push_back(engine.submit(make_request(g, 0.5 + 0.01 * i)));
  }
  engine.shutdown();
  done.store(true, std::memory_order_relaxed);
  swapper.join();

  const std::uint64_t last = engine.live_version();
  EXPECT_GE(engine.swaps(), 2);
  for (auto& f : futures) {
    const ServeOutcome outcome = f.get();
    ASSERT_FALSE(outcome.shed);
    // Every decision is attributable to exactly one installed version.
    EXPECT_EQ(outcome.decision.rung, Rung::kGnnPolicy);
    EXPECT_GE(outcome.decision.policy_version, 1U);
    EXPECT_LE(outcome.decision.policy_version, last);
  }
}

TEST(Engine, ShedPolicyNamesRoundTrip) {
  ShedPolicy policy = ShedPolicy::kRejectNewest;
  EXPECT_TRUE(serve::parse_shed_policy("expired-first", policy));
  EXPECT_EQ(policy, ShedPolicy::kExpiredFirst);
  EXPECT_STREQ(serve::shed_policy_name(policy), "expired-first");
  EXPECT_TRUE(serve::parse_shed_policy("reject-newest", policy));
  EXPECT_EQ(policy, ShedPolicy::kRejectNewest);
  EXPECT_FALSE(serve::parse_shed_policy("drop-everything", policy));
}

}  // namespace
}  // namespace gddr
