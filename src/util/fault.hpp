// Deterministic fault injection for recovery-path testing.
//
// Production code marks its recoverable failure points with
// `util::inject(FaultSite::...)`; the call returns true when the armed
// fault schedule says this hit should fail, and the surrounding code then
// takes its real failure path (LP fallback, checkpoint I/O error,
// gradient rollback) exactly as it would for an organic fault.  Tests and
// operators arm the injector to *prove* every recovery path fires.
//
// Determinism: schedules are either hit-count-based ("fire on the 3rd
// occurrence of this site") or probability-based with an explicit seed
// (xoshiro stream private to the site), so an injected run is a pure
// function of (program inputs, fault spec) — rerunning reproduces the
// same faults at the same points.
//
// Zero overhead when disabled: `inject` first reads one relaxed atomic
// flag that is false unless a spec is armed; no lock, no map lookup, no
// counter update happens on the disabled path.
//
// Spec grammar (env var GDDR_FAULTS or FaultInjector::arm):
//   spec    := entry (',' entry)*
//   entry   := site '@' N        fire on exactly the Nth hit (1-based)
//            | site '@' N '+'    fire on every hit from the Nth onward
//            | site '~' P '/' S  fire each hit with probability P, seeded S
//   site    := lp_solve | ckpt_write | nan_grad | train_abort
//            | policy_nan | policy_slow | topo_change | request_garbage
//            | registry_publish | shadow_diverge | candidate_nan
// Example: GDDR_FAULTS="lp_solve@3,nan_grad@2+" fails the 3rd LP solve
// and every gradient computation from the 2nd onward.
//
// A malformed spec — unknown site, a site named in two clauses, bad
// '@N'/'~P/S' token, empty clause (a trailing comma included) — is a hard util::IoError naming the
// offending token.  N and S are plain positive decimal integers and P a
// number in [0, 1]; none may hold whitespace or a '+'.  A fault schedule
// that silently fails to arm would make an operator believe a recovery
// path was rehearsed when it never ran.  The empty spec "" still disarms.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>

#include "util/rng.hpp"
#include "util/sync.hpp"

namespace gddr::util {

enum class FaultSite : int {
  kLpSolve = 0,       // mcf::solve_optimal simplex failure
  kCheckpointWrite,   // util::write_file_atomic I/O failure
  kNanGradient,       // rl::PpoTrainer gradient poisoning
  kTrainAbort,        // core::Experiment crash between iterations
  kPolicyNan,         // serve::RobustRouter NaN policy output
  kPolicySlow,        // serve::RobustRouter policy stage deadline blowout
  kTopoChange,        // serve::RobustRouter mid-request topology change
  kRequestGarbage,    // serve::RobustRouter garbage inbound demand matrix
  kRegistryPublish,   // lifecycle::ModelRegistry publish I/O failure
  kShadowDiverge,     // lifecycle::ShadowEvaluator forced candidate loss
  kCandidateNan,      // NaN output from a *candidate* policy (the serving
                      //   router injects this instead of kPolicyNan when
                      //   it is serving a staged candidate)
  kSiteCount,
};

const char* to_string(FaultSite site);

class FaultInjector {
 public:
  // Global instance shared by every injection point.
  static FaultInjector& instance();

  // Parses and arms `spec` (see grammar above), replacing any previous
  // schedule and resetting all counters.  An empty spec disarms.  Throws
  // util::IoError naming the offending token on a malformed spec; the
  // previously armed schedule is left untouched.
  void arm(const std::string& spec) GDDR_EXCLUDES(mutex_);

  // Arms from the GDDR_FAULTS environment variable (no-op when unset).
  void arm_from_env();

  // Disables injection and clears schedules and counters.
  void disarm();

  bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }

  // Records one hit of `site` and returns true when the armed schedule
  // fires for it.  Only called via inject() on the enabled path.
  bool fire(FaultSite site) GDDR_EXCLUDES(mutex_);

  // Diagnostics: hits observed / faults fired per site since arming.
  long hits(FaultSite site) const GDDR_EXCLUDES(mutex_);
  long fired(FaultSite site) const GDDR_EXCLUDES(mutex_);

 private:
  FaultInjector() = default;

  enum class Mode { kOff, kNth, kFromNth, kProbability };
  struct Schedule {
    Mode mode = Mode::kOff;
    long n = 0;          // kNth / kFromNth threshold (1-based)
    double p = 0.0;      // kProbability
    Rng rng{0};          // kProbability stream (seeded from the spec)
    long hits = 0;
    long fired = 0;
  };

  std::atomic<bool> enabled_{false};
  mutable Mutex mutex_{LockRank::kFaultInjector, "util/fault"};
  Schedule schedules_[static_cast<int>(FaultSite::kSiteCount)]
      GDDR_GUARDED_BY(mutex_);
};

// The one call production code makes at an injection point.
inline bool inject(FaultSite site) {
  FaultInjector& injector = FaultInjector::instance();
  return injector.enabled() && injector.fire(site);
}

}  // namespace gddr::util
