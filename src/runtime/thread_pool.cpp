#include "runtime/thread_pool.hpp"

#include <algorithm>

namespace simcov::runtime {

std::size_t resolve_threads(std::size_t requested) {
  if (requested != 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return std::max(1u, hw);
}

ThreadPool::ThreadPool(std::size_t threads) {
  const std::size_t lanes = resolve_threads(threads);
  workers_.reserve(lanes - 1);
  for (std::size_t k = 1; k < lanes; ++k) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mutex_);
    stop_ = true;
  }
  wake_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::work(Job& job) {
  for (;;) {
    if (job.cancel != nullptr &&
        job.cancel->load(std::memory_order_relaxed)) {
      // Drain: stop handing out the remaining indices.
      job.next.store(job.count, std::memory_order_relaxed);
      return;
    }
    const std::size_t index = job.next.fetch_add(1, std::memory_order_relaxed);
    if (index >= job.count) return;
    if (job.queue_wait != nullptr) {
      (*job.queue_wait)(index,
                        std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - job.posted)
                            .count());
    }
    try {
      (*job.fn)(index);
    } catch (...) {
      {
        std::lock_guard lock(job.error_mutex);
        if (!job.error) job.error = std::current_exception();
      }
      // Drain: stop handing out the remaining indices.
      job.next.store(job.count, std::memory_order_relaxed);
    }
  }
}

void ThreadPool::worker_loop() {
  std::uint64_t seen = 0;
  for (;;) {
    Job* job = nullptr;
    {
      std::unique_lock lock(mutex_);
      wake_cv_.wait(lock, [&] {
        return stop_ || (job_ != nullptr && generation_ != seen);
      });
      if (stop_) return;
      seen = generation_;
      job = job_;
      ++active_;
    }
    work(*job);
    {
      std::lock_guard lock(mutex_);
      --active_;
    }
    done_cv_.notify_one();
  }
}

void ThreadPool::for_each_index(std::size_t count,
                                const std::function<void(std::size_t)>& fn,
                                const std::atomic<bool>* cancel,
                                const QueueWaitObserver* queue_wait) {
  if (count == 0) return;
  Job job;
  job.fn = &fn;
  job.count = count;
  job.cancel = cancel;
  job.queue_wait = queue_wait;
  job.posted = std::chrono::steady_clock::now();
  if (!workers_.empty() && count > 1) {
    {
      std::lock_guard lock(mutex_);
      job_ = &job;
      ++generation_;
    }
    wake_cv_.notify_all();
  }
  work(job);
  if (!workers_.empty() && count > 1) {
    // Quiesce: the job leaves scope when this returns, so no worker may
    // still hold a pointer to it. Workers that never woke are fenced off by
    // clearing job_ under the same lock.
    std::unique_lock lock(mutex_);
    done_cv_.wait(lock, [&] { return active_ == 0; });
    job_ = nullptr;
  }
  if (job.error) std::rethrow_exception(job.error);
}

}  // namespace simcov::runtime
