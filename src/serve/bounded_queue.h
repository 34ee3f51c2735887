#pragma once
// Bounded MPMC queue with blocking backpressure and graceful shutdown — the
// spine of the serving layer (serve/server.h). Producers block in push()
// while the queue is full (backpressure toward clients); consumers block in
// pop() while it is empty. close() wakes everyone: pending items are still
// drained, then pop() returns nullopt and push() returns false, which is
// how worker threads learn to exit.
//
// This is the standard worker-pool shape of the HPC repos the serving layer
// is modeled on: one mutex, two condition variables (not-full / not-empty),
// FIFO order.

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <optional>
#include <utility>

namespace pkb::serve {

template <typename T>
class BoundedQueue {
 public:
  /// `capacity` must be >= 1: the queue holds at most that many items.
  explicit BoundedQueue(std::size_t capacity)
      : capacity_(capacity == 0 ? 1 : capacity) {}

  BoundedQueue(const BoundedQueue&) = delete;
  BoundedQueue& operator=(const BoundedQueue&) = delete;

  /// Block until there is room (backpressure), then enqueue. Returns false
  /// without enqueuing when the queue was closed first.
  bool push(T item) {
    std::unique_lock<std::mutex> lock(mu_);
    not_full_.wait(lock,
                   [this] { return closed_ || items_.size() < capacity_; });
    if (closed_) return false;
    items_.push_back(std::move(item));
    lock.unlock();
    not_empty_.notify_one();
    return true;
  }

  /// Enqueue only if there is room right now; never blocks. Returns false
  /// when full or closed (load-shedding entry point).
  bool try_push(T item) { return enqueue(std::move(item), true); }

  /// Enqueue past capacity (the caller bounds the work); false when closed.
  bool force_push(T item) { return enqueue(std::move(item), false); }

  /// Block until an item is available or the queue is closed AND drained;
  /// nullopt signals shutdown.
  std::optional<T> pop() {
    std::unique_lock<std::mutex> lock(mu_);
    not_empty_.wait(lock, [this] { return closed_ || !items_.empty(); });
    if (items_.empty()) return std::nullopt;  // closed and drained
    T item = std::move(items_.front());
    items_.pop_front();
    lock.unlock();
    not_full_.notify_one();
    return item;
  }

  /// Close the queue: subsequent push() calls fail, queued items remain
  /// poppable, and blocked threads wake. Idempotent.
  void close() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      closed_ = true;
    }
    not_full_.notify_all();
    not_empty_.notify_all();
  }

  [[nodiscard]] bool closed() const {
    std::lock_guard<std::mutex> lock(mu_);
    return closed_;
  }

  /// Current queue depth (racy by nature; for gauges and tests).
  [[nodiscard]] std::size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return items_.size();
  }

  [[nodiscard]] std::size_t capacity() const { return capacity_; }

 private:
  bool enqueue(T item, bool bounded) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (closed_ || (bounded && items_.size() >= capacity_)) return false;
      items_.push_back(std::move(item));
    }
    not_empty_.notify_one();
    return true;
  }

  const std::size_t capacity_;
  mutable std::mutex mu_;
  std::condition_variable not_full_;
  std::condition_variable not_empty_;
  std::deque<T> items_;
  bool closed_ = false;
};

}  // namespace pkb::serve
