#pragma once
// Deterministic, seed-driven fault injection — the chaos half of the
// resilience layer.
//
// A FaultPlan decides, for the n-th call on each pipeline stage, whether
// that call proceeds, errors (transient/permanent), times out, or takes a
// latency spike. Decisions are a pure function of (seed, stage, n), so a
// chaos test or bench that replays the same request stream against the same
// plan sees the same fault sequence — per stage, the *multiset* of outcomes
// is identical across runs even when concurrent workers race for ordinals.
// Tests that need call-exact schedules (the circuit-breaker transition
// tests) script the leading outcomes explicitly with script(); scripted
// entries are consumed in call order, after which the rate-driven draw
// resumes.
//
// Components consume the plan through consult(): it draws the decision,
// counts pkb_resilience_faults_injected_total{stage,kind}, throws the
// matching FaultError for error kinds, and returns the extra virtual
// seconds to charge for a latency spike. A null plan is a no-op, so
// instrumented components cost nothing when chaos is off.

#include <array>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <vector>

#include "resilience/fault.h"

namespace pkb::resilience {

/// Per-stage fault probabilities. Rates are evaluated in the order
/// transient, permanent, timeout, spike over one uniform draw, so their sum
/// must be <= 1; the remainder is the no-fault probability.
struct StageFaultSpec {
  double transient_rate = 0.0;
  double permanent_rate = 0.0;
  double timeout_rate = 0.0;
  double spike_rate = 0.0;
  /// Extra virtual seconds a LatencySpike adds to the stage's latency.
  double spike_seconds = 5.0;
};

struct FaultPlanOptions {
  std::uint64_t seed = 1;
  StageFaultSpec vector_search;
  StageFaultSpec rerank;
  StageFaultSpec llm;
  StageFaultSpec ingest;
};

/// What one stage call should do.
struct FaultDecision {
  FaultKind kind = FaultKind::None;
  double extra_latency_seconds = 0.0;  ///< nonzero only for LatencySpike
};

class FaultPlan {
 public:
  explicit FaultPlan(FaultPlanOptions opts = {});

  /// Pin the outcome of the first `outcomes.size()` calls on `stage`
  /// (consumed in call order); later calls fall back to the rate draw.
  /// Setup-time only: must not race decide().
  void script(Stage stage, std::vector<FaultKind> outcomes);

  /// Decision for the next call on `stage`. Thread-safe; deterministic in
  /// the per-stage call ordinal.
  [[nodiscard]] FaultDecision decide(Stage stage) const;

  /// Monotonic per-stage outcome counts (for tests and the chaos bench).
  struct StageCounts {
    std::uint64_t calls = 0;
    std::uint64_t transient = 0;
    std::uint64_t permanent = 0;
    std::uint64_t timeout = 0;
    std::uint64_t spike = 0;
    [[nodiscard]] std::uint64_t faults() const {
      return transient + permanent + timeout + spike;
    }
  };
  [[nodiscard]] StageCounts counts(Stage stage) const;

  [[nodiscard]] const FaultPlanOptions& options() const { return opts_; }
  [[nodiscard]] const StageFaultSpec& spec(Stage stage) const;

 private:
  struct StageState {
    std::atomic<std::uint64_t> seq{0};
    std::atomic<std::uint64_t> transient{0};
    std::atomic<std::uint64_t> permanent{0};
    std::atomic<std::uint64_t> timeout{0};
    std::atomic<std::uint64_t> spike{0};
  };

  FaultPlanOptions opts_;
  std::array<std::vector<FaultKind>, kStageCount> script_;
  mutable std::array<StageState, kStageCount> state_;
};

/// Consult `plan` (nullable) for one call on `stage`: throws
/// TransientError / PermanentError / TimeoutError for error decisions,
/// returns the extra virtual seconds to charge for a LatencySpike (0
/// otherwise), and counts every injected fault under
/// pkb_resilience_faults_injected_total{stage,kind}.
double consult(const FaultPlan* plan, Stage stage);

}  // namespace pkb::resilience
