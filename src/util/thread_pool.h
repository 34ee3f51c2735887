#pragma once
// Minimal work-stealing-free thread pool plus a blocking parallel_for.
//
// The pool is for build-time work: batch embedding and the LSA fit run
// `parallel_for` over contiguous index ranges. The request path never
// calls `parallel_for`: each request's search and rerank run on the
// request's own thread, so concurrent requests never queue behind each
// other on this pool. The pool is created once and reused (threads are
// expensive); `global_pool()` provides a lazily constructed process-wide
// instance sized to the hardware.
//
// Thread-safety: `submit` and `parallel_for` may be called from any thread,
// including concurrently. Do NOT call `parallel_for` from inside a pool
// task (i.e. from `fn`): the inner call blocks a worker on futures that
// need a free worker to run, which can deadlock when the pool is saturated.
//
// Usage:
//   std::vector<float> scores(n);
//   parallel_for(0, n, [&](std::size_t i) { scores[i] = score(i); },
//                /*min_block=*/256);

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <future>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace pkb::util {

/// Fixed-size FIFO thread pool.
class ThreadPool {
 public:
  /// Spawns `threads` workers; `threads == 0` means hardware concurrency
  /// (at least 1).
  explicit ThreadPool(std::size_t threads = 0);

  /// Joins all workers; outstanding tasks are completed first.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of worker threads.
  [[nodiscard]] std::size_t size() const { return workers_.size(); }

  /// Enqueue a task; returns a future for its completion.
  std::future<void> submit(std::function<void()> task);

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::packaged_task<void()>> tasks_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stopping_ = false;
};

/// Process-wide pool sized to hardware concurrency.
ThreadPool& global_pool();

/// Run `fn(i)` for every i in [begin, end) across the pool, blocking until all
/// iterations finish. The range is split into contiguous blocks (one per
/// worker plus the calling thread, which also participates). `fn` must be safe
/// to call concurrently for distinct i. Exceptions from `fn` propagate: the
/// first one observed is rethrown after all blocks complete.
void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& fn,
                  std::size_t min_block = 64);

}  // namespace pkb::util
