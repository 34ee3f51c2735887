#pragma once
// Resilience policies: per-request deadline budgets, bounded retries with
// exponential backoff + deterministic jitter, and a circuit breaker.
//
// Deadlines are *virtual*: a request carries a budget in pipeline seconds
// and every stage charges what it consumed — real wall time for the stages
// we genuinely execute (retrieval, reranking), simulated latency for the
// LLM stage, and backoff waits for retries. A stage whose cost would exceed
// the remaining budget is abandoned (the budget is exhausted and the
// degradation ladder takes over), so a request can never "hang" past its
// deadline no matter what the fault plan injects — and tests assert that
// invariant without a single real-time sleep.
//
// The circuit breaker takes its cooldown clock as an injectable callable so
// tests drive open->half-open transitions off a SimClock deterministically.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <mutex>
#include <vector>

namespace pkb::resilience {

/// Monotonic seconds for breaker cooldowns; injectable for tests.
using Clock = std::function<double()>;

/// Default real-time clock (steady_clock seconds).
[[nodiscard]] double mono_seconds();

/// A request's virtual-seconds deadline budget. Not thread-safe: owned by
/// exactly one request.
class DeadlineBudget {
 public:
  /// Unlimited budget.
  DeadlineBudget() = default;
  /// `budget_seconds` <= 0 means unlimited.
  explicit DeadlineBudget(double budget_seconds);

  [[nodiscard]] bool unlimited() const { return budget_ <= 0.0; }
  [[nodiscard]] double budget_seconds() const { return budget_; }
  [[nodiscard]] double spent_seconds() const { return spent_; }
  [[nodiscard]] double remaining_seconds() const {
    if (unlimited()) return std::numeric_limits<double>::infinity();
    return budget_ > spent_ ? budget_ - spent_ : 0.0;
  }
  [[nodiscard]] bool exhausted() const {
    return !unlimited() && spent_ >= budget_;
  }

  /// Charge `seconds` (clamped to the remaining budget: callers check
  /// affordability *before* taking a cost, so an overrun can only be the
  /// final abandoned stage, which by definition consumed the rest).
  void charge(double seconds);

  /// Timeout semantics: the in-flight stage would not have returned before
  /// the deadline, so the whole remainder is gone.
  void exhaust();

 private:
  double budget_ = 0.0;  ///< <= 0 = unlimited
  double spent_ = 0.0;
};

/// Bounded retries with exponential backoff and deterministic jitter.
struct RetryPolicy {
  /// Total attempts including the first; 1 disables retries.
  std::uint32_t max_attempts = 3;
  double base_backoff_seconds = 0.25;
  double multiplier = 2.0;
  double max_backoff_seconds = 5.0;
  /// Multiplicative jitter fraction: the wait is scaled by a deterministic
  /// factor in [1 - jitter, 1 + jitter] drawn from (seed, retry).
  double jitter = 0.2;

  /// Backoff before the `retry`-th retry (1-based). Deterministic given
  /// (policy, seed, retry); charged to the deadline budget, never slept.
  [[nodiscard]] double backoff_seconds(std::uint32_t retry,
                                       std::uint64_t seed) const;
};

/// Classic closed / open / half-open circuit breaker over a sliding outcome
/// window. Thread-safe: one breaker is shared by every serving worker.
///
///   Closed    — calls pass; outcomes fill a ring of the last `window`
///               results. Failure rate >= `failure_threshold` over at least
///               `min_samples` outcomes trips to Open.
///   Open      — allow() fails fast until `open_seconds` of clock time have
///               passed, then the next allow() moves to HalfOpen.
///   HalfOpen  — up to `half_open_probes` calls pass; any failure re-opens
///               (re-arming the cooldown), `half_open_probes` successes
///               close and reset the window.
///
/// Transitions are observable: pkb_resilience_breaker_transitions_total{to}
/// counters, the pkb_resilience_breaker_state gauge (0 closed / 1 open /
/// 2 half-open), and a breaker_state span per transition.
struct BreakerOptions {
  std::size_t window = 32;
  std::size_t min_samples = 8;
  double failure_threshold = 0.5;
  double open_seconds = 30.0;
  std::size_t half_open_probes = 2;
};

class CircuitBreaker {
 public:
  enum class State : int { Closed = 0, Open = 1, HalfOpen = 2 };

  using Options = BreakerOptions;

  explicit CircuitBreaker(Options opts = {}, Clock clock = {});

  /// May this call proceed? Open -> HalfOpen happens lazily here once the
  /// cooldown has elapsed. A rejected call counts
  /// pkb_resilience_breaker_short_circuits_total.
  [[nodiscard]] bool allow();

  void record_success();
  void record_failure();

  /// Raw state: cooldown expiry is only realized by the next allow().
  [[nodiscard]] State state() const;

 private:
  void transition_locked(State to);
  void push_outcome_locked(bool failure);

  Options opts_;
  Clock clock_;
  mutable std::mutex mu_;
  State state_ = State::Closed;
  std::vector<char> ring_;   ///< 1 = failure
  std::size_t ring_next_ = 0;
  std::size_t count_ = 0;    ///< outcomes recorded (<= window)
  std::size_t failures_ = 0;
  double open_until_ = 0.0;
  std::size_t probes_allowed_ = 0;
  std::size_t probe_successes_ = 0;
};

[[nodiscard]] std::string_view to_string(CircuitBreaker::State state);

}  // namespace pkb::resilience
