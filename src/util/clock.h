#pragma once
// Time sources.
//
// Two clocks coexist in the system:
//  * `Stopwatch` measures real wall time for stages we genuinely execute
//    (retrieval, reranking, embedding) — used by the Table II benchmark.
//    `steady_seconds()` stamps real instants (serving queue waits).
//  * `SimClock` is a virtual clock used by the simulated LLM and the Discord
//    workflow simulation, so that "a 9.6 second LLM response" and "poll email
//    every 5 minutes" cost nothing at test time yet produce faithful
//    timestamps and latency accounting.

#include <atomic>
#include <chrono>
#include <string>

namespace pkb::util {

/// Monotonic wall-clock seconds since an arbitrary epoch.
[[nodiscard]] inline double steady_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Wall-clock stopwatch with nanosecond resolution.
class Stopwatch {
 public:
  Stopwatch() : start_(std::chrono::steady_clock::now()) {}

  /// Restart timing from now.
  void reset() { start_ = std::chrono::steady_clock::now(); }

  /// Elapsed seconds since construction or last reset().
  [[nodiscard]] double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

  /// Elapsed milliseconds.
  [[nodiscard]] double millis() const { return seconds() * 1e3; }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// Virtual simulation clock. Time only moves when advanced explicitly.
/// Epoch is an arbitrary "simulation day zero". Thread-safe: advances are
/// atomic read-modify-writes, so concurrent serving workers sharing one
/// clock never lose time (the clock is always held by pointer/reference;
/// it is not copyable).
class SimClock {
 public:
  SimClock() = default;
  explicit SimClock(double start_seconds) : now_(start_seconds) {}

  SimClock(const SimClock&) = delete;
  SimClock& operator=(const SimClock&) = delete;

  /// Current simulated time in seconds since the simulation epoch.
  [[nodiscard]] double now() const {
    return now_.load(std::memory_order_relaxed);
  }

  /// Advance by `seconds` (must be >= 0).
  void advance(double seconds);

  /// Render `now()` as "day D HH:MM:SS" for human-readable event traces.
  [[nodiscard]] std::string timestamp() const;

  /// Render an arbitrary sim time in the same format.
  [[nodiscard]] static std::string format(double abs_seconds);

 private:
  std::atomic<double> now_{0.0};
};

}  // namespace pkb::util
