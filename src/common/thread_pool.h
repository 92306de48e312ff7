// Thread pool whose size is a cap, not a start-up cost: a thread starts only
// when a job is queued and no started thread is free to take it, so a pool
// that is never used starts none. Threads then stay until Shutdown. Jobs
// submitted together run in parallel up to the cap (ParallelCopy relies on
// it). Used for object-store transfer threads, the scheduler's fetch jobs,
// actor recovery, serving dispatch and benchmark client fan-out; workers in
// the runtime are fibers (common/fiber.h).
#ifndef RAY_COMMON_THREAD_POOL_H_
#define RAY_COMMON_THREAD_POOL_H_

#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "common/logging.h"
#include "common/sync.h"

namespace ray {

class ThreadPool {
 public:
  explicit ThreadPool(size_t max_threads) : max_threads_(max_threads) {
    RAY_CHECK(max_threads_ >= 1);
  }

  ~ThreadPool() { Shutdown(); }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Queues `fn`, starting a thread when more jobs are queued than threads
  // are waiting and the cap allows one more. After Shutdown it drops `fn`,
  // starts nothing and returns false.
  bool Submit(std::function<void()> fn) {
    MutexLock lock(mu_);
    if (shutdown_) {
      return false;
    }
    jobs_.push_back(std::move(fn));
    if (jobs_.size() > idle_ && threads_.size() < max_threads_) {
      threads_.emplace_back([this] { Run(); });
    }
    cv_.NotifyOne();
    return true;
  }

  // Runs every job already queued, then joins the threads.
  void Shutdown() {
    std::vector<std::thread> threads;
    {
      MutexLock lock(mu_);
      shutdown_ = true;
      cv_.NotifyAll();
      threads.swap(threads_);
    }
    for (auto& t : threads) {
      t.join();
    }
  }

 private:
  void Run() {
    MutexLock lock(mu_);
    for (;;) {
      while (jobs_.empty() && !shutdown_) {
        ++idle_;
        cv_.Wait(mu_);
        --idle_;
      }
      if (jobs_.empty()) {
        return;  // shut down and drained
      }
      std::function<void()> fn = std::move(jobs_.front());
      jobs_.pop_front();
      lock.Unlock();
      fn();
      fn = nullptr;  // destroy the job's captures outside the lock
      lock.Lock();
    }
  }

  const size_t max_threads_;
  Mutex mu_{"ThreadPool.mu"};
  CondVar cv_;
  std::deque<std::function<void()>> jobs_ GUARDED_BY(mu_);
  size_t idle_ GUARDED_BY(mu_) = 0;  // started threads waiting for a job
  bool shutdown_ GUARDED_BY(mu_) = false;
  std::vector<std::thread> threads_ GUARDED_BY(mu_);
};

}  // namespace ray

#endif  // RAY_COMMON_THREAD_POOL_H_
