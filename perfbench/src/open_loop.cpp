#include "open_loop.hpp"

#include <limits>
#include <stdexcept>
#include <thread>

namespace gddr::perfbench {

namespace {

Clock::time_point due_time(Clock::time_point start, double offset_s) {
  return start + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(offset_s));
}

// Sleeps most of the way, then spins: sleep_until alone overshoots by
// tens of microseconds, which at thousands of requests per second is a
// large share of the inter-arrival gap.
void wait_until(Clock::time_point due) {
  constexpr auto kSpin = std::chrono::microseconds(150);
  const Clock::time_point now = Clock::now();
  if (due - now > kSpin) std::this_thread::sleep_until(due - kSpin);
  while (Clock::now() < due) {
  }
}

}  // namespace

OpenLoopRun run_open_loop(const std::vector<double>& offsets,
                          const std::function<void(std::size_t)>& prepare,
                          const std::function<void(std::size_t)>& send) {
  OpenLoopRun run;
  run.lag_us.resize(offsets.size());
  if (offsets.empty()) return run;
  prepare(0);
  // A short lead so the first request is not already late.
  run.start = Clock::now() + std::chrono::milliseconds(1);
  for (std::size_t i = 0; i < offsets.size(); ++i) {
    const Clock::time_point due = due_time(run.start, offsets[i]);
    wait_until(due);
    const Clock::time_point sent = Clock::now();
    send(i);
    run.lag_us[i] =
        std::chrono::duration<double, std::micro>(sent - due).count();
    if (i + 1 < offsets.size()) prepare(i + 1);
  }
  return run;
}

CompletionLog::CompletionLog(std::size_t n)
    : n_(n), ns_(std::make_unique<std::atomic<std::int64_t>[]>(n)) {
  for (std::size_t i = 0; i < n; ++i) ns_[i].store(0);
}

void CompletionLog::mark(std::size_t i, Clock::time_point t) {
  if (i >= n_) throw std::out_of_range("CompletionLog::mark");
  const std::int64_t ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(t.time_since_epoch())
          .count();
  ns_[i].store(ns == 0 ? 1 : ns, std::memory_order_release);
}

bool CompletionLog::done(std::size_t i) const {
  return ns_[i].load(std::memory_order_acquire) != 0;
}

Clock::time_point CompletionLog::at(std::size_t i) const {
  return Clock::time_point(std::chrono::duration_cast<Clock::duration>(
      std::chrono::nanoseconds(ns_[i].load(std::memory_order_acquire))));
}

std::vector<double> due_latencies_us(const OpenLoopRun& run,
                                     const std::vector<double>& offsets,
                                     const CompletionLog& completions,
                                     std::size_t first) {
  std::vector<double> latency(offsets.size(),
                              std::numeric_limits<double>::infinity());
  for (std::size_t j = 0;
       j < offsets.size() && first + j < completions.size(); ++j) {
    if (!completions.done(first + j)) continue;
    latency[j] = std::chrono::duration<double, std::micro>(
                     completions.at(first + j) -
                     due_time(run.start, offsets[j]))
                     .count();
  }
  return latency;
}

}  // namespace gddr::perfbench
