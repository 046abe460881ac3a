// Micro-batching stage between the serving queue and a worker's router.
//
// Each worker pops its next job and then greedily coalesces up to
// max_batch further jobs for the same topology that are already queued —
// it never waits for a batch to fill, so an idle system keeps
// single-request latency.  A batch shares one policy-slot read and one
// router call (RobustRouter::decide_batch); its forwards are per request.
// The first differently-keyed job encountered ends the batch and is held
// back as the seed of the next one (a one-job lookahead slot owned by
// this batcher, i.e. by one worker).
#pragma once

#include <chrono>
#include <cstdint>
#include <future>
#include <optional>
#include <vector>

#include "serve/router.hpp"
#include "util/mpmc_queue.hpp"

namespace gddr::serve {

// What a submitted request resolves to: either a decision or the shed
// flag (admission control dropped the request before a router saw it).
struct ServeOutcome {
  bool shed = false;
  RouteDecision decision;
};

// One queued request plus its engine-side bookkeeping.
struct Job {
  RouteRequest request;
  // mcf::graph_fingerprint of request.graph (0 when null): the batching
  // key, computed once at submission.
  std::uint64_t topology = 0;
  std::chrono::steady_clock::time_point enqueued{};
  // Queueing deadline; jobs past it are shed, never served late.
  std::chrono::steady_clock::time_point deadline{};
  std::promise<ServeOutcome> promise;
};

class Batcher {
 public:
  Batcher(util::MpmcQueue<Job>& queue, int max_batch);

  // Blocks for the first job, then extends the batch with queued
  // same-topology jobs (no waiting).  Empty result means the queue is
  // closed and fully drained — the worker's exit signal.  Never returns
  // empty while a held-back job exists.
  std::vector<Job> next_batch();

  // Non-blocking variant for inline draining: empty when nothing is
  // immediately available.
  std::vector<Job> next_ready_batch();

 private:
  std::vector<Job> extend(Job&& first);

  util::MpmcQueue<Job>& queue_;
  int max_batch_;
  // The job that ended the previous batch (different topology), seed of
  // the next.
  std::optional<Job> pending_;
};

}  // namespace gddr::serve
