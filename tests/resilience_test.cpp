// Unit tests for the resilience layer's building blocks: deterministic
// fault plans, deadline budgets, retry backoff and the circuit breaker.
// End-to-end fault handling through the pipeline lives in chaos_test.cpp.
// Suite names (Resilience*, FaultPlan*, CircuitBreaker*) are part of the
// scripts/run_tsan.sh filter.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <thread>
#include <vector>

#include "resilience/fault.h"
#include "resilience/fault_plan.h"
#include "resilience/policy.h"
#include "resilience/resilience.h"

namespace pkb::resilience {
namespace {

// --- FaultPlan ------------------------------------------------------------

TEST(FaultPlan, ZeroRatesNeverFault) {
  FaultPlan plan;
  for (int i = 0; i < 100; ++i) {
    const FaultDecision d = plan.decide(Stage::Llm);
    EXPECT_EQ(d.kind, FaultKind::None);
    EXPECT_EQ(d.extra_latency_seconds, 0.0);
  }
  EXPECT_EQ(plan.counts(Stage::Llm).calls, 100u);
  EXPECT_EQ(plan.counts(Stage::Llm).faults(), 0u);
}

TEST(FaultPlan, DeterministicAcrossInstances) {
  FaultPlanOptions opts;
  opts.seed = 7;
  opts.llm.transient_rate = 0.2;
  opts.llm.permanent_rate = 0.1;
  opts.llm.timeout_rate = 0.1;
  opts.llm.spike_rate = 0.1;
  FaultPlan a(opts);
  FaultPlan b(opts);
  for (int i = 0; i < 500; ++i) {
    const FaultDecision da = a.decide(Stage::Llm);
    const FaultDecision db = b.decide(Stage::Llm);
    EXPECT_EQ(da.kind, db.kind) << "call " << i;
    EXPECT_EQ(da.extra_latency_seconds, db.extra_latency_seconds);
  }
  // A different seed draws a different sequence.
  opts.seed = 8;
  FaultPlan c(opts);
  int diff = 0;
  FaultPlan a2(a.options());
  for (int i = 0; i < 500; ++i) {
    if (a2.decide(Stage::Llm).kind != c.decide(Stage::Llm).kind) ++diff;
  }
  EXPECT_GT(diff, 0);
}

TEST(FaultPlan, StagesDrawIndependently) {
  FaultPlanOptions opts;
  opts.llm.transient_rate = 1.0;  // every LLM call faults...
  FaultPlan plan(opts);
  EXPECT_EQ(plan.decide(Stage::Llm).kind, FaultKind::Transient);
  // ...while other stages stay clean.
  EXPECT_EQ(plan.decide(Stage::VectorSearch).kind, FaultKind::None);
  EXPECT_EQ(plan.decide(Stage::Rerank).kind, FaultKind::None);
  EXPECT_EQ(plan.decide(Stage::Ingest).kind, FaultKind::None);
}

TEST(FaultPlan, RatesApproximateOverManyDraws) {
  FaultPlanOptions opts;
  opts.seed = 42;
  opts.rerank.timeout_rate = 0.3;
  FaultPlan plan(opts);
  const int n = 4000;
  for (int i = 0; i < n; ++i) (void)plan.decide(Stage::Rerank);
  const auto counts = plan.counts(Stage::Rerank);
  EXPECT_EQ(counts.calls, static_cast<std::uint64_t>(n));
  EXPECT_EQ(counts.faults(), counts.timeout);
  const double rate = static_cast<double>(counts.timeout) / n;
  EXPECT_NEAR(rate, 0.3, 0.05);
}

TEST(FaultPlan, SpikeCarriesConfiguredLatency) {
  FaultPlanOptions opts;
  opts.llm.spike_rate = 1.0;
  opts.llm.spike_seconds = 2.5;
  FaultPlan plan(opts);
  const FaultDecision d = plan.decide(Stage::Llm);
  EXPECT_EQ(d.kind, FaultKind::LatencySpike);
  EXPECT_DOUBLE_EQ(d.extra_latency_seconds, 2.5);
}

TEST(FaultPlan, ScriptPinsLeadingOutcomesThenFallsBack) {
  FaultPlan plan;  // all rates 0: fallback is always None
  plan.script(Stage::Llm, {FaultKind::Transient, FaultKind::None,
                           FaultKind::Timeout, FaultKind::Permanent});
  EXPECT_EQ(plan.decide(Stage::Llm).kind, FaultKind::Transient);
  EXPECT_EQ(plan.decide(Stage::Llm).kind, FaultKind::None);
  EXPECT_EQ(plan.decide(Stage::Llm).kind, FaultKind::Timeout);
  EXPECT_EQ(plan.decide(Stage::Llm).kind, FaultKind::Permanent);
  EXPECT_EQ(plan.decide(Stage::Llm).kind, FaultKind::None);  // fallback
  const auto counts = plan.counts(Stage::Llm);
  EXPECT_EQ(counts.calls, 5u);
  EXPECT_EQ(counts.transient, 1u);
  EXPECT_EQ(counts.timeout, 1u);
  EXPECT_EQ(counts.permanent, 1u);
}

TEST(FaultPlan, ConsultThrowsTypedErrorsAndReturnsSpikes) {
  EXPECT_EQ(consult(nullptr, Stage::Llm), 0.0);  // null plan is a no-op

  FaultPlanOptions opts;
  opts.llm.spike_seconds = 3.0;
  FaultPlan plan(opts);
  plan.script(Stage::Llm, {FaultKind::Transient, FaultKind::Permanent,
                           FaultKind::Timeout, FaultKind::LatencySpike,
                           FaultKind::None});
  EXPECT_THROW((void)consult(&plan, Stage::Llm), TransientError);
  EXPECT_THROW((void)consult(&plan, Stage::Llm), PermanentError);
  try {
    (void)consult(&plan, Stage::Llm);
    FAIL() << "expected TimeoutError";
  } catch (const TimeoutError& e) {
    EXPECT_EQ(e.stage(), Stage::Llm);
  }
  EXPECT_DOUBLE_EQ(consult(&plan, Stage::Llm), 3.0);
  EXPECT_DOUBLE_EQ(consult(&plan, Stage::Llm), 0.0);
}

TEST(FaultPlan, ConcurrentConsumersSeeTheSameOutcomeMultiset) {
  FaultPlanOptions opts;
  opts.seed = 11;
  opts.vector_search.transient_rate = 0.25;
  const int n = 400;

  // Serial reference run.
  FaultPlan serial(opts);
  for (int i = 0; i < n; ++i) (void)serial.decide(Stage::VectorSearch);

  // Racing consumers on a second identical plan.
  FaultPlan racing(opts);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&racing] {
      for (int i = 0; i < n / 4; ++i) {
        (void)racing.decide(Stage::VectorSearch);
      }
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(racing.counts(Stage::VectorSearch).calls, serial.counts(Stage::VectorSearch).calls);
  EXPECT_EQ(racing.counts(Stage::VectorSearch).transient,
            serial.counts(Stage::VectorSearch).transient);
}

// --- DeadlineBudget -------------------------------------------------------

TEST(ResiliencePolicy, DefaultBudgetIsUnlimited) {
  DeadlineBudget b;
  EXPECT_TRUE(b.unlimited());
  EXPECT_FALSE(b.exhausted());
  b.charge(1e9);
  EXPECT_FALSE(b.exhausted());
  EXPECT_TRUE(std::isinf(b.remaining_seconds()));
}

TEST(ResiliencePolicy, BudgetChargesClampToRemaining) {
  DeadlineBudget b(10.0);
  EXPECT_FALSE(b.unlimited());
  b.charge(4.0);
  EXPECT_DOUBLE_EQ(b.spent_seconds(), 4.0);
  EXPECT_DOUBLE_EQ(b.remaining_seconds(), 6.0);
  b.charge(100.0);  // clamped: the overrunning stage consumed the rest
  EXPECT_DOUBLE_EQ(b.spent_seconds(), 10.0);
  EXPECT_TRUE(b.exhausted());
  EXPECT_DOUBLE_EQ(b.remaining_seconds(), 0.0);
}

TEST(ResiliencePolicy, ExhaustTakesTheWholeRemainder) {
  DeadlineBudget b(5.0);
  b.charge(1.0);
  b.exhaust();
  EXPECT_TRUE(b.exhausted());
  EXPECT_DOUBLE_EQ(b.spent_seconds(), 5.0);
}

// --- RetryPolicy ----------------------------------------------------------

TEST(ResiliencePolicy, BackoffGrowsExponentiallyWithoutJitter) {
  RetryPolicy policy;
  policy.base_backoff_seconds = 0.5;
  policy.multiplier = 2.0;
  policy.max_backoff_seconds = 3.0;
  policy.jitter = 0.0;
  EXPECT_DOUBLE_EQ(policy.backoff_seconds(1, 1), 0.5);
  EXPECT_DOUBLE_EQ(policy.backoff_seconds(2, 1), 1.0);
  EXPECT_DOUBLE_EQ(policy.backoff_seconds(3, 1), 2.0);
  EXPECT_DOUBLE_EQ(policy.backoff_seconds(4, 1), 3.0);  // capped
  EXPECT_DOUBLE_EQ(policy.backoff_seconds(10, 1), 3.0);
}

TEST(ResiliencePolicy, BackoffJitterIsDeterministicAndBounded) {
  RetryPolicy policy;  // base 0.25, x2, cap 5, jitter 0.2
  for (std::uint32_t retry = 1; retry <= 6; ++retry) {
    const double a = policy.backoff_seconds(retry, 99);
    const double b = policy.backoff_seconds(retry, 99);
    EXPECT_DOUBLE_EQ(a, b) << "same (seed, retry) must repeat";
    RetryPolicy bare = policy;
    bare.jitter = 0.0;
    const double nominal = bare.backoff_seconds(retry, 99);
    EXPECT_GE(a, nominal * 0.8);
    EXPECT_LE(a, nominal * 1.2);
  }
  // Different seeds decorrelate the jitter.
  int diff = 0;
  for (std::uint32_t retry = 1; retry <= 6; ++retry) {
    if (policy.backoff_seconds(retry, 1) != policy.backoff_seconds(retry, 2)) {
      ++diff;
    }
  }
  EXPECT_GT(diff, 0);
}

// --- CircuitBreaker -------------------------------------------------------

/// A hand-cranked clock for breaker cooldowns.
struct FakeClock {
  double now = 0.0;
  [[nodiscard]] Clock callable() {
    return [this] { return now; };
  }
};

TEST(CircuitBreaker, StaysClosedBelowThreshold) {
  FakeClock clock;
  BreakerOptions opts;
  opts.window = 8;
  opts.min_samples = 4;
  opts.failure_threshold = 0.5;
  CircuitBreaker breaker(opts, clock.callable());
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::Closed);
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(breaker.allow());
    breaker.record_success();
  }
  // One failure in a window of successes is far below the threshold.
  ASSERT_TRUE(breaker.allow());
  breaker.record_failure();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::Closed);
}

TEST(CircuitBreaker, TripsAtThresholdAndShortCircuits) {
  FakeClock clock;
  BreakerOptions opts;
  opts.window = 8;
  opts.min_samples = 4;
  opts.failure_threshold = 0.5;
  opts.open_seconds = 30.0;
  CircuitBreaker breaker(opts, clock.callable());
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(breaker.allow());
    breaker.record_failure();
    EXPECT_EQ(breaker.state(), CircuitBreaker::State::Closed)
        << "below min_samples after " << i + 1 << " failures";
  }
  ASSERT_TRUE(breaker.allow());
  breaker.record_failure();  // 4th failure: min_samples met, rate 1.0
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::Open);
  EXPECT_FALSE(breaker.allow());  // fail fast while the cooldown runs
  clock.now = 29.9;
  EXPECT_FALSE(breaker.allow());
}

TEST(CircuitBreaker, CooldownProbesHalfOpenThenCloses) {
  FakeClock clock;
  BreakerOptions opts;
  opts.window = 4;
  opts.min_samples = 2;
  opts.failure_threshold = 0.5;
  opts.open_seconds = 10.0;
  opts.half_open_probes = 2;
  CircuitBreaker breaker(opts, clock.callable());
  ASSERT_TRUE(breaker.allow());
  breaker.record_failure();
  ASSERT_TRUE(breaker.allow());
  breaker.record_failure();
  ASSERT_EQ(breaker.state(), CircuitBreaker::State::Open);

  clock.now = 10.5;
  ASSERT_TRUE(breaker.allow());  // cooldown elapsed: first half-open probe
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::HalfOpen);
  breaker.record_success();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::HalfOpen);
  ASSERT_TRUE(breaker.allow());  // second probe
  breaker.record_success();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::Closed);
  // The outcome window was reset: old failures don't linger.
  ASSERT_TRUE(breaker.allow());
  breaker.record_failure();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::Closed);
}

TEST(CircuitBreaker, HalfOpenFailureReopensAndReArmsCooldown) {
  FakeClock clock;
  BreakerOptions opts;
  opts.window = 4;
  opts.min_samples = 2;
  opts.failure_threshold = 0.5;
  opts.open_seconds = 10.0;
  opts.half_open_probes = 1;
  CircuitBreaker breaker(opts, clock.callable());
  ASSERT_TRUE(breaker.allow());
  breaker.record_failure();
  ASSERT_TRUE(breaker.allow());
  breaker.record_failure();
  ASSERT_EQ(breaker.state(), CircuitBreaker::State::Open);

  clock.now = 11.0;
  ASSERT_TRUE(breaker.allow());  // probe
  breaker.record_failure();      // the dependency is still down
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::Open);
  EXPECT_FALSE(breaker.allow());  // cooldown re-armed from now
  clock.now = 20.0;
  EXPECT_FALSE(breaker.allow());
  clock.now = 21.5;
  EXPECT_TRUE(breaker.allow());
}

// --- Resilience engine ----------------------------------------------------

TEST(Resilience, ContextsCarryBudgetAndDecorrelatedJitter) {
  ResilienceOptions opts;
  opts.request_deadline_seconds = 45.0;
  opts.seed = 3;
  Resilience engine(opts);
  RequestContext a = engine.make_context();
  RequestContext b = engine.make_context();
  EXPECT_EQ(a.engine, &engine);
  EXPECT_DOUBLE_EQ(a.budget.budget_seconds(), 45.0);
  EXPECT_EQ(a.level, DegradationLevel::Full);
  EXPECT_NE(a.jitter_seed, b.jitter_seed);
}

TEST(Resilience, DegradeIsOneWayWorstWins) {
  RequestContext ctx;
  EXPECT_FALSE(ctx.degraded());
  ctx.degrade(DegradationLevel::Extractive);
  EXPECT_EQ(ctx.level, DegradationLevel::Extractive);
  ctx.degrade(DegradationLevel::Unreranked);  // better: ignored
  EXPECT_EQ(ctx.level, DegradationLevel::Extractive);
  ctx.degrade(DegradationLevel::Unavailable);  // worse: recorded
  EXPECT_EQ(ctx.level, DegradationLevel::Unavailable);
  EXPECT_TRUE(ctx.degraded());
}

TEST(Resilience, LevelNamesAreStable) {
  EXPECT_EQ(to_string(DegradationLevel::Full), "full");
  EXPECT_EQ(to_string(DegradationLevel::Unreranked), "unreranked");
  EXPECT_EQ(to_string(DegradationLevel::NoRetrieval), "no_retrieval");
  EXPECT_EQ(to_string(DegradationLevel::Extractive), "extractive");
  EXPECT_EQ(to_string(DegradationLevel::Unavailable), "unavailable");
}

}  // namespace
}  // namespace pkb::resilience
