#include "util/fault.hpp"

#include <cstdlib>

#include "util/error.hpp"
#include "util/parse.hpp"

namespace gddr::util {
namespace {

constexpr const char* kSiteNames[] = {
    "lp_solve",
    "ckpt_write",
    "nan_grad",
    "train_abort",
    "policy_nan",
    "policy_slow",
    "topo_change",
    "request_garbage",
    "registry_publish",
    "shadow_diverge",
    "candidate_nan",
};
static_assert(sizeof(kSiteNames) / sizeof(kSiteNames[0]) ==
              static_cast<std::size_t>(FaultSite::kSiteCount));

int site_index(FaultSite site) { return static_cast<int>(site); }

FaultSite site_from_name(const std::string& name, const std::string& entry) {
  for (int i = 0; i < static_cast<int>(FaultSite::kSiteCount); ++i) {
    if (name == kSiteNames[i]) return static_cast<FaultSite>(i);
  }
  // The site population keeps growing PR over PR; an operator staring at
  // a typo should not have to open this file to learn what is valid.
  std::string valid;
  for (int i = 0; i < static_cast<int>(FaultSite::kSiteCount); ++i) {
    if (i > 0) valid += ", ";
    valid += kSiteNames[i];
  }
  throw IoError("FaultInjector: unknown fault site '" + name +
                "' in entry '" + entry + "' (valid sites: " + valid + ")");
}

long parse_long(const std::string& text, const std::string& entry) {
  long value = 0;
  if (!parse_number(text, value) || value <= 0) {
    throw IoError("FaultInjector: bad count/seed token '" + text +
                  "' in entry '" + entry + "'");
  }
  return value;
}

}  // namespace

const char* to_string(FaultSite site) { return kSiteNames[site_index(site)]; }

FaultInjector& FaultInjector::instance() {
  static FaultInjector injector;
  return injector;
}

void FaultInjector::arm(const std::string& spec) {
  // Parse into fresh schedules first so a malformed spec leaves the
  // injector untouched.
  Schedule parsed[static_cast<int>(FaultSite::kSiteCount)];
  bool seen[static_cast<int>(FaultSite::kSiteCount)] = {};
  bool any = false;

  // Every comma separates two clauses, so "a@1," holds an empty one.
  for (std::size_t pos = 0; !spec.empty() && pos <= spec.size();) {
    std::size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) comma = spec.size();
    const std::string entry = spec.substr(pos, comma - pos);
    pos = comma + 1;
    if (entry.empty()) {
      // An empty clause ("a@1,,b@2", trailing/leading comma) is a typo that
      // would otherwise silently arm less than the operator asked for.
      throw IoError("FaultInjector: empty clause in spec '" + spec + "'");
    }

    Schedule schedule;
    std::string site_name;
    if (const std::size_t at = entry.find('@'); at != std::string::npos) {
      site_name = entry.substr(0, at);
      std::string count = entry.substr(at + 1);
      if (!count.empty() && count.back() == '+') {
        schedule.mode = Mode::kFromNth;
        count.pop_back();
      } else {
        schedule.mode = Mode::kNth;
      }
      schedule.n = parse_long(count, entry);
    } else if (const std::size_t tilde = entry.find('~');
               tilde != std::string::npos) {
      site_name = entry.substr(0, tilde);
      const std::string rest = entry.substr(tilde + 1);
      const std::size_t slash = rest.find('/');
      if (slash == std::string::npos) {
        throw IoError(
            "FaultInjector: probabilistic entry needs an explicit seed "
            "('site~p/seed'): '" +
            entry + "'");
      }
      schedule.mode = Mode::kProbability;
      const std::string prob = rest.substr(0, slash);
      // Negated so that NaN fails too.
      if (!parse_number(prob, schedule.p) ||
          !(schedule.p >= 0.0 && schedule.p <= 1.0)) {
        throw IoError("FaultInjector: bad probability token '" + prob +
                      "' (need [0,1]) in entry '" + entry + "'");
      }
      schedule.rng = Rng(static_cast<std::uint64_t>(
          parse_long(rest.substr(slash + 1), entry)));
    } else {
      throw IoError("FaultInjector: entry needs '@n', '@n+' or '~p/seed': '" +
                    entry + "'");
    }

    const FaultSite site = site_from_name(site_name, entry);
    // A later clause would silently replace the earlier one's schedule.
    if (seen[site_index(site)]) {
      throw IoError("FaultInjector: fault site '" + site_name +
                    "' armed twice in spec '" + spec + "'");
    }
    seen[site_index(site)] = true;
    parsed[site_index(site)] = schedule;
    any = true;
  }

  const MutexLock lock(mutex_);
  for (int i = 0; i < static_cast<int>(FaultSite::kSiteCount); ++i) {
    schedules_[i] = parsed[i];
  }
  enabled_.store(any, std::memory_order_relaxed);
}

void FaultInjector::arm_from_env() {
  if (const char* spec = std::getenv("GDDR_FAULTS")) arm(spec);
}

void FaultInjector::disarm() { arm(""); }

bool FaultInjector::fire(FaultSite site) {
  const MutexLock lock(mutex_);
  Schedule& schedule = schedules_[site_index(site)];
  ++schedule.hits;
  bool fires = false;
  switch (schedule.mode) {
    case Mode::kOff:
      break;
    case Mode::kNth:
      fires = schedule.hits == schedule.n;
      break;
    case Mode::kFromNth:
      fires = schedule.hits >= schedule.n;
      break;
    case Mode::kProbability:
      fires = schedule.rng.bernoulli(schedule.p);
      break;
  }
  if (fires) ++schedule.fired;
  return fires;
}

long FaultInjector::hits(FaultSite site) const {
  const MutexLock lock(mutex_);
  return schedules_[site_index(site)].hits;
}

long FaultInjector::fired(FaultSite site) const {
  const MutexLock lock(mutex_);
  return schedules_[site_index(site)].fired;
}

}  // namespace gddr::util
