// Fixed-size worker pool. The HTTP server runs request handlers on one
// off the reactor thread (the analogue of Apache's worker processes in
// the paper's architecture); the job, transfer and SRM services run
// their queued requests on one each.
#pragma once

#include <deque>
#include <functional>
#include <vector>

#include "util/sync.hpp"

namespace clarens::util {

class ThreadPool {
 public:
  /// Starts `num_threads` workers (>= 1).
  explicit ThreadPool(std::size_t num_threads);

  /// Drains nothing: pending tasks that have not started are discarded;
  /// running tasks complete before the destructor returns.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueue a task. Safe from any thread, including workers.
  void submit(std::function<void()> task) CLARENS_EXCLUDES(mutex_);

  /// Block until the queue is empty and all workers are idle.
  void wait_idle() CLARENS_EXCLUDES(mutex_);

  std::size_t size() const { return workers_.size(); }

 private:
  void worker_loop() CLARENS_EXCLUDES(mutex_);

  Mutex mutex_{LockLevel::kUtilThreadPool};
  CondVar work_available_;
  CondVar all_idle_;
  std::deque<std::function<void()>> queue_ CLARENS_GUARDED_BY(mutex_);
  std::size_t active_ CLARENS_GUARDED_BY(mutex_) = 0;
  bool stopping_ CLARENS_GUARDED_BY(mutex_) = false;
  std::vector<Thread> workers_;  // written once in the constructor
};

}  // namespace clarens::util
