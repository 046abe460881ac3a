// Bounded multi-producer multi-consumer FIFO for the serving engine.
//
// Mutex-plus-condvar rather than a lock-free ring: a serving queue op
// brackets a full routing decision (policy forward, translation,
// simulation — tens of microseconds at best), so queue synchronisation is
// nowhere near the critical path, and a mutex keeps the semantics the
// admission controller needs — bounded capacity, close-and-drain
// shutdown, and predicate eviction for deadline-based load shedding —
// trivially correct.
//
// Push never blocks: a full queue is the caller's signal to shed load
// (serve::Engine's admission control), not to wait.  Pop blocks until an
// item arrives or the queue is closed and drained, which gives workers a
// natural shutdown: close() wakes everyone, and pop() keeps returning
// queued items until none remain.
#pragma once

#include <cstddef>
#include <deque>
#include <utility>

#include "util/sync.hpp"

namespace gddr::util {

template <typename T>
class MpmcQueue {
 public:
  explicit MpmcQueue(std::size_t capacity) : capacity_(capacity) {}

  MpmcQueue(const MpmcQueue&) = delete;
  MpmcQueue& operator=(const MpmcQueue&) = delete;

  // Enqueues `item`; false (item untouched in the moved-from sense only
  // on success) when the queue is full or closed.
  bool try_push(T&& item) GDDR_EXCLUDES(mu_) {
    {
      const MutexLock lock(mu_);
      if (closed_ || items_.size() >= capacity_) return false;
      items_.push_back(std::move(item));
    }
    ready_.notify_one();
    return true;
  }

  // Blocks until an item is available (true) or the queue is closed and
  // fully drained (false).
  bool pop(T& out) GDDR_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    while (!pop_ready_locked()) ready_.wait(lock);
    if (items_.empty()) return false;
    out = std::move(items_.front());
    items_.pop_front();
    return true;
  }

  // Non-blocking pop; false when the queue is currently empty.
  bool try_pop(T& out) GDDR_EXCLUDES(mu_) {
    const MutexLock lock(mu_);
    if (items_.empty()) return false;
    out = std::move(items_.front());
    items_.pop_front();
    return true;
  }

  // Removes the first (oldest) queued item satisfying `pred`, handing it
  // to the caller — the shedding hook: on a full queue the admission
  // controller evicts the oldest already-expired item to make room.
  // False when nothing matches.
  template <typename Pred>
  bool evict_first_if(Pred pred, T& out) GDDR_EXCLUDES(mu_) {
    const MutexLock lock(mu_);
    for (auto it = items_.begin(); it != items_.end(); ++it) {
      if (pred(*it)) {
        out = std::move(*it);
        items_.erase(it);
        return true;
      }
    }
    return false;
  }

  // Rejects future pushes and wakes every blocked pop; already-queued
  // items stay poppable (close-and-drain shutdown).
  void close() GDDR_EXCLUDES(mu_) {
    {
      const MutexLock lock(mu_);
      closed_ = true;
    }
    ready_.notify_all();
  }

  std::size_t size() const GDDR_EXCLUDES(mu_) {
    const MutexLock lock(mu_);
    return items_.size();
  }

  std::size_t capacity() const { return capacity_; }

 private:
  // True when a blocked pop should stop waiting: an item to hand out, or
  // close-and-drain in progress.
  bool pop_ready_locked() const GDDR_REQUIRES(mu_) {
    return closed_ || !items_.empty();
  }

  const std::size_t capacity_;
  mutable Mutex mu_{LockRank::kMpmcQueue, "util/mpmc_queue"};
  CondVar ready_;
  std::deque<T> items_ GDDR_GUARDED_BY(mu_);
  bool closed_ GDDR_GUARDED_BY(mu_) = false;
};

}  // namespace gddr::util
