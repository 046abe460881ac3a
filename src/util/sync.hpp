// Capability-annotated synchronization primitives + lock-rank discipline.
//
// Every mutex in GDDR goes through the wrappers in this header, for two
// layered guarantees (DESIGN.md §13):
//
//  * Compile-time: on Clang the wrappers carry -Wthread-safety capability
//    attributes (via the GDDR_CAPABILITY / GDDR_GUARDED_BY / GDDR_REQUIRES
//    / ... macros below, no-ops on GCC), so a read of a guarded member
//    without its lock, a missing unlock on an exit path, or a function
//    called without its REQUIRES capability is a build error — the CI
//    thread-safety leg compiles src/ with -Werror=thread-safety
//    -Werror=thread-safety-beta.
//  * Runtime (GDDR_CHECK=ON only): every Mutex/SharedMutex is constructed
//    with a LockRank and a label.  A thread-local stack of held ranks
//    rejects any acquisition whose rank is >= the most recently acquired
//    held rank (ranks must strictly decrease along an acquisition chain:
//    outermost locks have the highest rank), and any re-entry of a held
//    lock, by throwing util::ContractViolation naming both locks.  A
//    potential deadlock — which in production needs two threads and an
//    unlucky interleaving — becomes a deterministic single-interleaving
//    test failure.  In non-GDDR_CHECK builds the wrappers are plain
//    std::mutex / std::shared_mutex pass-throughs with zero bookkeeping
//    (proved by the sync_ranks_tracked() probe in tests/test_sync.cpp and
//    the Release bench gates).
//
// The canonical rank table lives in LockRank below and in DESIGN.md §13.
// Two locks of equal rank can never be held together (this is what makes
// the per-class ranks a total order), so classes whose instances nest
// with each other need distinct ranks.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <shared_mutex>
#include <source_location>

// --- Clang thread-safety annotation macros --------------------------------
// Standard attribute spellings from the Clang thread-safety documentation;
// expand to nothing on compilers without the analysis (GCC).
#if defined(__clang__)
#define GDDR_THREAD_ANNOTATION_(x) __attribute__((x))
#else
#define GDDR_THREAD_ANNOTATION_(x)
#endif

// Marks a class as a lockable capability ("mutex" / "shared mutex").
#define GDDR_CAPABILITY(x) GDDR_THREAD_ANNOTATION_(capability(x))
// Marks an RAII guard whose constructor acquires and destructor releases.
#define GDDR_SCOPED_CAPABILITY GDDR_THREAD_ANNOTATION_(scoped_lockable)
// Data member readable/writable only with the named capability held.
#define GDDR_GUARDED_BY(x) GDDR_THREAD_ANNOTATION_(guarded_by(x))
// Pointer member whose *pointee* is guarded by the named capability.
#define GDDR_PT_GUARDED_BY(x) GDDR_THREAD_ANNOTATION_(pt_guarded_by(x))
// Function acquires/releases the capability (empty argument list = `this`).
#define GDDR_ACQUIRE(...) \
  GDDR_THREAD_ANNOTATION_(acquire_capability(__VA_ARGS__))
#define GDDR_ACQUIRE_SHARED(...) \
  GDDR_THREAD_ANNOTATION_(acquire_shared_capability(__VA_ARGS__))
#define GDDR_RELEASE(...) \
  GDDR_THREAD_ANNOTATION_(release_capability(__VA_ARGS__))
#define GDDR_RELEASE_SHARED(...) \
  GDDR_THREAD_ANNOTATION_(release_shared_capability(__VA_ARGS__))
// Caller must already hold the capability (exclusively / at least shared).
#define GDDR_REQUIRES(...) \
  GDDR_THREAD_ANNOTATION_(requires_capability(__VA_ARGS__))
#define GDDR_REQUIRES_SHARED(...) \
  GDDR_THREAD_ANNOTATION_(requires_shared_capability(__VA_ARGS__))
// Caller must NOT hold the capability (the function acquires it itself);
// catches self-deadlock on non-recursive mutexes at compile time.
#define GDDR_EXCLUDES(...) GDDR_THREAD_ANNOTATION_(locks_excluded(__VA_ARGS__))
// Function returns a reference to the named capability.
#define GDDR_RETURN_CAPABILITY(x) GDDR_THREAD_ANNOTATION_(lock_returned(x))
// Escape hatch — disables the analysis for one function.  Every use must
// carry a comment explaining why the access is safe.
#define GDDR_NO_THREAD_SAFETY_ANALYSIS \
  GDDR_THREAD_ANNOTATION_(no_thread_safety_analysis)

namespace gddr::util {

// Canonical lock ranks, outermost (acquired first) = highest.  While a
// thread holds a lock of rank R, it may only acquire locks of rank
// strictly less than R.  The table mirrors the real acquisition chains:
// e.g. serve::Engine::shutdown() holds the engine lifecycle lock while
// closing the MPMC queue, and the circuit breaker / topology cache /
// optimal cache each export obs:: counters while holding their own lock.
enum class LockRank : int {
  kEngine = 90,         // serve::Engine lifecycle (poll/shutdown/stats)
  kPromoter = 88,       // lifecycle::Promoter state machine (holds its
                        //   lock while loading from the model registry,
                        //   scoring shadow mirrors and installing
                        //   policies into the engine slot)
  kModelRegistry = 86,  // lifecycle::ModelRegistry manifest + store
  kEnginePolicy = 85,   // serve::Engine policy slot (live/candidate
                        //   pointers workers re-read between batches)
  kPolicySlot = 84,     // lifecycle::PolicySlot published-policy cell
  kShadowEval = 82,     // lifecycle::ShadowEvaluator stats + mirror
                        //   router (holds its lock across a candidate
                        //   decide(), which nests the topo cache /
                        //   breaker / obs registry below)
  kMpmcQueue = 70,      // util::MpmcQueue (serving admission queue)
  kOptimalCache = 60,   // mcf::OptimalCache LRU index
  kTopologyCache = 50,  // serve::TopologyCache LRU index
  kCircuitBreaker = 40, // serve::CircuitBreaker state machine
  kLastGood = 35,       // serve::TopologyEntry::LastGood box
  kFaultInjector = 30,  // util::FaultInjector schedules
  kRegistry = 20,       // obs::Registry metric maps (innermost shared
                        //   lock: everything above records metrics)
  kThreadPool = 10,     // util::ThreadPool task queue (leaf)
};

// True in builds configured with -DGDDR_CHECK=ON — the same switch as the
// debug-contract layer (util/contract.hpp), so one CI leg exercises both.
constexpr bool lock_rank_checking_enabled() {
#if GDDR_CHECK
  return true;
#else
  return false;
#endif
}

// Number of rank-stack pushes since process start.  Stays at exactly zero
// for the whole process in a non-GDDR_CHECK build — the compile-out proof
// in tests/test_sync.cpp asserts that after a locking workout.
std::uint64_t sync_ranks_tracked();

// Number of locks the calling thread currently holds according to the
// rank detector (always 0 when checking is compiled out).  Test hook.
int held_lock_depth();

namespace sync_detail {
#if GDDR_CHECK
// Validates `rank` against the calling thread's held-rank stack; throws
// ContractViolation (never returns normally on violation).  Called before
// the underlying lock so a rejected acquisition leaves the mutex untouched.
void check_acquire(int rank, const char* label, const void* addr,
                   const std::source_location& loc);
// Pushes after the underlying lock succeeded / pops at unlock.
void push_acquired(int rank, const char* label, const void* addr);
void pop_released(const void* addr);
#endif
}  // namespace sync_detail

class CondVar;

// Exclusive mutex with a documented rank.  Plain std::mutex pass-through
// unless GDDR_CHECK is on.
class GDDR_CAPABILITY("mutex") Mutex {
 public:
  Mutex(LockRank rank, const char* label) noexcept
      : rank_(static_cast<int>(rank)), label_(label) {}

  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock(const std::source_location& loc =
                std::source_location::current()) GDDR_ACQUIRE() {
#if GDDR_CHECK
    sync_detail::check_acquire(rank_, label_, this, loc);
    m_.lock();
    sync_detail::push_acquired(rank_, label_, this);
#else
    (void)loc;
    m_.lock();
#endif
  }

  void unlock() GDDR_RELEASE() {
#if GDDR_CHECK
    sync_detail::pop_released(this);
#endif
    m_.unlock();
  }

  int rank() const { return rank_; }
  const char* label() const { return label_; }

 private:
  friend class CondVar;
  std::mutex m_;
  const int rank_;
  const char* const label_;
};

// Reader/writer mutex with a documented rank.  Shared acquisitions
// participate in rank checking exactly like exclusive ones (a reader
// blocking behind a writer deadlocks just as hard).
class GDDR_CAPABILITY("shared_mutex") SharedMutex {
 public:
  SharedMutex(LockRank rank, const char* label) noexcept
      : rank_(static_cast<int>(rank)), label_(label) {}

  SharedMutex(const SharedMutex&) = delete;
  SharedMutex& operator=(const SharedMutex&) = delete;

  void lock(const std::source_location& loc =
                std::source_location::current()) GDDR_ACQUIRE() {
#if GDDR_CHECK
    sync_detail::check_acquire(rank_, label_, this, loc);
    m_.lock();
    sync_detail::push_acquired(rank_, label_, this);
#else
    (void)loc;
    m_.lock();
#endif
  }

  void unlock() GDDR_RELEASE() {
#if GDDR_CHECK
    sync_detail::pop_released(this);
#endif
    m_.unlock();
  }

  void lock_shared(const std::source_location& loc =
                       std::source_location::current()) GDDR_ACQUIRE_SHARED() {
#if GDDR_CHECK
    sync_detail::check_acquire(rank_, label_, this, loc);
    m_.lock_shared();
    sync_detail::push_acquired(rank_, label_, this);
#else
    (void)loc;
    m_.lock_shared();
#endif
  }

  void unlock_shared() GDDR_RELEASE_SHARED() {
#if GDDR_CHECK
    sync_detail::pop_released(this);
#endif
    m_.unlock_shared();
  }

  int rank() const { return rank_; }
  const char* label() const { return label_; }

 private:
  std::shared_mutex m_;
  const int rank_;
  const char* const label_;
};

// RAII exclusive guard over a Mutex or (writer side) a SharedMutex.
class GDDR_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu,
                     const std::source_location& loc =
                         std::source_location::current()) GDDR_ACQUIRE(mu)
      : mu_(&mu) {
    mu.lock(loc);
  }
  explicit MutexLock(SharedMutex& mu,
                     const std::source_location& loc =
                         std::source_location::current()) GDDR_ACQUIRE(mu)
      : smu_(&mu) {
    mu.lock(loc);
  }
  ~MutexLock() GDDR_RELEASE() {
    if (mu_ != nullptr) {
      mu_->unlock();
    } else {
      smu_->unlock();
    }
  }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  friend class CondVar;
  Mutex* mu_ = nullptr;
  SharedMutex* smu_ = nullptr;
};

// RAII shared (reader) guard over a SharedMutex.
class GDDR_SCOPED_CAPABILITY SharedLock {
 public:
  explicit SharedLock(SharedMutex& mu,
                      const std::source_location& loc =
                          std::source_location::current())
      GDDR_ACQUIRE_SHARED(mu)
      : mu_(&mu) {
    mu.lock_shared(loc);
  }
  ~SharedLock() GDDR_RELEASE() { mu_->unlock_shared(); }

  SharedLock(const SharedLock&) = delete;
  SharedLock& operator=(const SharedLock&) = delete;

 private:
  SharedMutex* mu_;
};

// Condition variable paired with util::Mutex via its MutexLock guard.
// wait() adopts the already-held std::mutex underneath (keeping plain
// std::condition_variable performance rather than condition_variable_any),
// so the rank detector's view — the waiter holds the mutex for the whole
// guard scope — matches what the waiting thread observes on every return.
// Predicate loops are written by callers as explicit `while (!pred_locked())
// wait(lock);` with a GDDR_REQUIRES-annotated predicate, which keeps the
// guarded reads visible to the thread-safety analysis (a lambda predicate
// would not be).
class CondVar {
 public:
  CondVar() = default;

  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  // Atomically releases `lock`'s mutex and blocks until notified (or
  // spuriously woken); the mutex is re-held on return.  `lock` must guard
  // a util::Mutex — waiting on a SharedMutex writer lock is rejected with
  // a ContractViolation.
  void wait(MutexLock& lock);

  void notify_one() noexcept { cv_.notify_one(); }
  void notify_all() noexcept { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace gddr::util
