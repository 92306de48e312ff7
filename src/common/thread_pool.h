// Fixed-size thread pool. Used for object-store transfer threads and for
// benchmark client fan-out; workers in the runtime have their own dedicated
// threads because they are long-lived stateful entities.
#ifndef RAY_COMMON_THREAD_POOL_H_
#define RAY_COMMON_THREAD_POOL_H_

#include <functional>
#include <thread>
#include <vector>

#include "common/queue.h"

namespace ray {

class ThreadPool {
 public:
  explicit ThreadPool(size_t num_threads) {
    threads_.reserve(num_threads);
    for (size_t i = 0; i < num_threads; ++i) {
      threads_.emplace_back([this] { Run(); });
    }
  }

  ~ThreadPool() { Shutdown(); }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  bool Submit(std::function<void()> fn) { return queue_.Push(std::move(fn)); }

  void Shutdown() {
    queue_.Close();
    for (auto& t : threads_) {
      if (t.joinable()) {
        t.join();
      }
    }
    threads_.clear();
  }

 private:
  void Run() {
    while (auto fn = queue_.Pop()) {
      (*fn)();
    }
  }

  BlockingQueue<std::function<void()>> queue_;
  std::vector<std::thread> threads_;
};

}  // namespace ray

#endif  // RAY_COMMON_THREAD_POOL_H_
