// Fixed-size thread pool with a parallel_for helper.
//
// The experiment runner uses this to run independent simulation
// replicates / sweep points concurrently.  Tasks must be independent;
// determinism is preserved because each replicate owns its seed and the
// runner writes results into pre-sized slots (no ordering dependence).
//
// The queue state is guarded by an annotated Mutex (util/annotations.hpp)
// so the clang presets' -Wthread-safety pass proves the lock discipline
// of the pool at compile time.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <queue>
#include <thread>
#include <vector>

#include "util/annotations.hpp"

namespace dtn {

class ThreadPool {
 public:
  /// `threads == 0` selects hardware_concurrency (minimum 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueue a task; tasks must not throw (they run under noexcept
  /// dispatch — a throwing task aborts the process, which is what we
  /// want in a batch simulator).
  void submit(std::function<void()> task) DTN_EXCLUDES(mutex_);

  /// Block until every submitted task has finished.
  void wait_idle() DTN_EXCLUDES(mutex_);

  [[nodiscard]] std::size_t thread_count() const { return workers_.size(); }

 private:
  void worker_loop() DTN_EXCLUDES(mutex_);

  std::vector<std::thread> workers_;
  Mutex mutex_;
  std::queue<std::function<void()>> tasks_ DTN_GUARDED_BY(mutex_);
  /// condition_variable_any waits on the annotated Mutex directly.
  std::condition_variable_any cv_task_;
  std::condition_variable_any cv_idle_;
  std::size_t active_ DTN_GUARDED_BY(mutex_) = 0;
  bool stop_ DTN_GUARDED_BY(mutex_) = false;
};

/// Run body(i) for i in [0, n) across the pool; blocks until complete.
/// Work is chunked to limit queueing overhead for large n.
void parallel_for(ThreadPool& pool, std::size_t n,
                  const std::function<void(std::size_t)>& body);

/// Serial fallback used when no pool is available.
void serial_for(std::size_t n, const std::function<void(std::size_t)>& body);

}  // namespace dtn
