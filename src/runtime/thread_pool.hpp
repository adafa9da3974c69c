// A small shared-counter thread pool for embarrassingly parallel campaign
// loops (one spec-vs-impl simulation per injected bug, one model replay per
// sampled mutant — see pipeline/stages.cpp).
//
// Scheduling is dynamic: workers (and the calling thread, which always
// participates) pull the next index from a shared atomic counter, so
// uneven run lengths — a mutant exposed by the first sequence vs one that
// survives the whole test set — balance automatically without static
// chunking. Correctness never depends on the schedule: callers must write
// results into per-index slots, which keeps output bit-identical at any
// thread count.
//
// Exceptions thrown by a task are captured (first one wins), the remaining
// indices are drained without running, and the exception is rethrown on the
// calling thread once the loop has quiesced.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace simcov::runtime {

/// Resolves a thread-count knob: 0 means "use the hardware", anything else
/// is taken literally. Always at least 1.
[[nodiscard]] std::size_t resolve_threads(std::size_t requested);

class ThreadPool {
 public:
  /// Observes scheduling delay: called on the claiming lane, immediately
  /// before fn(index), with the seconds between the loop being posted and
  /// this index being claimed. Instrumentation only — may run concurrently
  /// from every lane, so observers must be thread-safe.
  using QueueWaitObserver =
      std::function<void(std::size_t index, double wait_seconds)>;

  /// Spawns `resolve_threads(threads) - 1` workers; the calling thread is
  /// the remaining lane, so `ThreadPool(1)` runs loops inline with no
  /// threading machinery at all.
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total parallel lanes (workers + the calling thread).
  [[nodiscard]] std::size_t size() const { return workers_.size() + 1; }

  /// Runs fn(0) ... fn(count-1), each exactly once, across all lanes.
  /// Blocks until every index has finished; rethrows the first task
  /// exception. Not reentrant: do not call from inside a task.
  ///
  /// When `cancel` is non-null and becomes true, the remaining unclaimed
  /// indices are drained without running — indices already claimed by a
  /// lane still finish, so callers that check the flag afterwards see a
  /// prefix-complete-plus-stragglers picture and must treat the whole
  /// batch as abandoned (per-index result slots make that trivial).
  void for_each_index(std::size_t count,
                      const std::function<void(std::size_t)>& fn,
                      const std::atomic<bool>* cancel = nullptr,
                      const QueueWaitObserver* queue_wait = nullptr);

 private:
  struct Job {
    const std::function<void(std::size_t)>* fn = nullptr;
    std::size_t count = 0;
    const std::atomic<bool>* cancel = nullptr;
    const QueueWaitObserver* queue_wait = nullptr;
    std::chrono::steady_clock::time_point posted;
    std::atomic<std::size_t> next{0};
    std::exception_ptr error;  // first failure; guarded by error_mutex
    std::mutex error_mutex;
  };

  void worker_loop();
  static void work(Job& job);

  std::vector<std::thread> workers_;
  std::mutex mutex_;
  std::condition_variable wake_cv_;  ///< workers wait for a new job
  std::condition_variable done_cv_;  ///< the caller waits for quiescence
  Job* job_ = nullptr;               ///< non-null while a loop is active
  std::uint64_t generation_ = 0;     ///< bumped per for_each_index call
  std::size_t active_ = 0;           ///< workers currently inside a job
  bool stop_ = false;
};

}  // namespace simcov::runtime
