#pragma once
// The per-request resilience contract threaded through the Fig-3 pipeline:
// serve::Server mints a RequestContext from the shared Resilience engine and
// hands it down through rag::AugmentedWorkflow to the retriever, reranker,
// and LLM stages. Stages charge the context's deadline budget, consult the
// shared circuit breaker, and record how far down the degradation ladder
// the request fell. The engine itself owns only cross-request state (the
// breaker and the request ordinal counter); everything per-request lives in
// the context, so contexts need no locking.

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>

#include "resilience/policy.h"

namespace pkb::resilience {

/// How much of the full pipeline a response reflects. Levels are ordered:
/// a request's final level is the worst (highest) level any stage recorded.
enum class DegradationLevel : int {
  Full = 0,         ///< full retrieve -> rerank -> LLM pipeline
  Unreranked = 1,   ///< reranker failed/timed out; first-pass order served
  NoRetrieval = 2,  ///< retrieval failed entirely; parametric-only answer
  Extractive = 3,   ///< LLM failed/breaker open; stitched from top contexts
  Unavailable = 4,  ///< nothing usable; apologetic stub answer
};

[[nodiscard]] std::string_view to_string(DegradationLevel level);

struct ResilienceOptions {
  /// Virtual-seconds deadline for one request; <= 0 disables deadlines.
  double request_deadline_seconds = 60.0;
  /// Retry policy for transient LLM failures.
  RetryPolicy llm_retry;
  /// Breaker around the LLM stage (shared across workers).
  CircuitBreaker::Options breaker;
  /// Seed for deterministic backoff jitter (mixed with request ordinal).
  std::uint64_t seed = 1;
};

class Resilience;

/// Per-request resilience state. Created by Resilience::make_context(),
/// owned and mutated by exactly one request — no locking (the engine
/// pointer leads back to the shared, internally-synchronized state).
struct RequestContext {
  /// The engine that minted this context (breaker + policy options);
  /// non-owning, must outlive the request.
  Resilience* engine = nullptr;
  DeadlineBudget budget;
  /// Seed for this request's backoff jitter (derived from engine seed and
  /// request ordinal, so concurrent requests draw decorrelated jitter).
  std::uint64_t jitter_seed = 0;

  DegradationLevel level = DegradationLevel::Full;
  std::uint32_t llm_attempts = 0;
  std::uint32_t retries = 0;
  std::uint32_t hedges = 0;
  bool breaker_short_circuit = false;
  bool deadline_exceeded = false;

  /// Ladder moves are one-way: record `to` only if it is worse than the
  /// current level.
  void degrade(DegradationLevel to) {
    if (static_cast<int>(to) > static_cast<int>(level)) level = to;
  }
  [[nodiscard]] bool degraded() const {
    return level != DegradationLevel::Full;
  }
};

/// Cross-request resilience state shared by all serving workers: the LLM
/// circuit breaker, the request ordinal counter, and the policy options.
/// Thread-safe.
class Resilience {
 public:
  /// `clock` feeds the breaker's open-state cooldown; defaults to real
  /// monotonic time (tests pass a SimClock-backed callable).
  explicit Resilience(ResilienceOptions opts = {}, Clock clock = {});

  /// A fresh context carrying a full deadline budget and a per-request
  /// jitter seed.
  [[nodiscard]] RequestContext make_context();

  [[nodiscard]] CircuitBreaker& breaker() { return breaker_; }
  [[nodiscard]] const ResilienceOptions& options() const { return opts_; }

 private:
  ResilienceOptions opts_;
  CircuitBreaker breaker_;
  std::atomic<std::uint64_t> next_ordinal_{0};
};

}  // namespace pkb::resilience
