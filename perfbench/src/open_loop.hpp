// Open-loop load generation with due-time latency accounting.
//
// Request i is due at start + offsets[i].  The generator sends it then, or
// as soon as it can when it runs late; it never skips a request.  Latency
// is measured from the due time, not from the send time, so a generator or
// system stall also charges every request queued behind it.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

namespace gddr::perfbench {

using Clock = std::chrono::steady_clock;

struct OpenLoopRun {
  Clock::time_point start;
  std::vector<double> lag_us;  // send time - due time, per request
};

// Drives the schedule on the calling thread.  `prepare(i)` runs before
// request i's due time (off the clock: building the request), `send(i)` at
// its due time.
OpenLoopRun run_open_loop(const std::vector<double>& offsets,
                          const std::function<void(std::size_t)>& prepare,
                          const std::function<void(std::size_t)>& send);

// Completion times written by serving threads, one writer per slot.
class CompletionLog {
 public:
  explicit CompletionLog(std::size_t n);
  std::size_t size() const { return n_; }
  void mark(std::size_t i, Clock::time_point t);
  bool done(std::size_t i) const;
  Clock::time_point at(std::size_t i) const;

 private:
  std::size_t n_;
  std::unique_ptr<std::atomic<std::int64_t>[]> ns_;
};

// Per-request latency in microseconds from each due time to its
// completion, where request j of `offsets` is slot first + j of
// `completions`; a request that never completed (shed) is +infinity, so
// it misses every latency limit.
std::vector<double> due_latencies_us(const OpenLoopRun& run,
                                     const std::vector<double>& offsets,
                                     const CompletionLog& completions,
                                     std::size_t first = 0);

}  // namespace gddr::perfbench
