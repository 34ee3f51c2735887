// Chaos tests: the Fig-3 pipeline under injected faults. These drive the
// end-to-end resilience contract — deadline budgets, bounded retries, the
// LLM circuit breaker, hedged vector search, the degradation ladder, and
// ingest-build aborts — with deterministic
// seed-driven fault plans, so every schedule is reproducible. Suite name
// (Chaos*) is part of the scripts/run_tsan.sh filter.

#include <gtest/gtest.h>

#include <future>
#include <memory>
#include <string>
#include <vector>

#include "history/store.h"
#include "ingest/ingestor.h"
#include "llm/model_config.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "rag/knowledge_base.h"
#include "rag/workflow.h"
#include "resilience/fault_plan.h"
#include "resilience/resilience.h"
#include "serve/server.h"
#include "util/clock.h"

namespace {

using namespace pkb;
namespace res = pkb::resilience;

// A small corpus: fast to build, still several retrievable chunks.
text::VirtualDir chaos_corpus() {
  text::VirtualDir tree;
  for (int i = 0; i < 6; ++i) {
    std::string body = "# Solver guide " + std::to_string(i) + "\n\n";
    for (int p = 0; p < 5; ++p) {
      body += "Paragraph " + std::to_string(p) + " of guide " +
              std::to_string(i) +
              " explains how Krylov subspace solvers, preconditioners, and "
              "convergence monitoring interact, in enough words that the "
              "splitter keeps it as its own chunk. ";
      body += "\n\n";
    }
    tree.push_back({"guide/g" + std::to_string(i) + ".md", body});
  }
  return tree;
}

const std::string kQuestion =
    "How do Krylov solvers interact with preconditioners?";

// Shares one knowledge base across the suite; each test builds its own
// workflow so fault plans never leak between tests.
class ChaosTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    kb_ = new rag::KnowledgeBase(rag::KnowledgeBase::build(chaos_corpus()));
  }
  static std::unique_ptr<rag::AugmentedWorkflow> make_workflow() {
    return std::make_unique<rag::AugmentedWorkflow>(
        *kb_, rag::PipelineArm::RagRerank, llm::model_config("sim-gpt-4o"));
  }
  static rag::KnowledgeBase* kb_;
};

rag::KnowledgeBase* ChaosTest::kb_ = nullptr;

// --- The degradation ladder, rung by rung ---------------------------------

TEST_F(ChaosTest, LlmPermanentFaultDegradesToExtractive) {
  auto workflow = make_workflow();
  res::FaultPlan plan;
  plan.script(res::Stage::Llm, {res::FaultKind::Permanent});
  workflow->set_fault_plan(&plan);
  res::Resilience engine;
  res::RequestContext ctx = engine.make_context();

  const rag::WorkflowOutcome out = workflow->ask(kQuestion, &ctx);
  EXPECT_EQ(out.degradation, res::DegradationLevel::Extractive);
  EXPECT_TRUE(out.degraded());
  EXPECT_EQ(out.response.mode, "degraded-extractive");
  EXPECT_EQ(out.response.text.rfind("[degraded]", 0), 0u);
  EXPECT_FALSE(out.retrieval.contexts.empty());
  EXPECT_FALSE(out.response.used_context_ids.empty());
  EXPECT_EQ(ctx.llm_attempts, 1u);  // permanent errors are not retried
  EXPECT_EQ(ctx.retries, 0u);
}

TEST_F(ChaosTest, RerankTimeoutServesUnrerankedRetrieval) {
  auto workflow = make_workflow();
  res::FaultPlan plan;
  plan.script(res::Stage::Rerank, {res::FaultKind::Timeout});
  workflow->set_fault_plan(&plan);
  res::Resilience engine;
  res::RequestContext ctx = engine.make_context();

  const rag::WorkflowOutcome out = workflow->ask(kQuestion, &ctx);
  EXPECT_EQ(out.degradation, res::DegradationLevel::Unreranked);
  EXPECT_TRUE(out.retrieval.rerank_degraded);
  EXPECT_FALSE(out.retrieval.contexts.empty());
  // The LLM stage itself succeeded on the unreranked contexts.
  EXPECT_NE(out.response.mode.rfind("degraded", 0), 0u);
  EXPECT_FALSE(out.response.text.empty());
}

TEST_F(ChaosTest, RetrievalLostPastHedgesAnswersParametrically) {
  auto workflow = make_workflow();
  res::FaultPlan plan;
  plan.script(res::Stage::VectorSearch,
              {res::FaultKind::Permanent, res::FaultKind::Permanent});
  workflow->set_fault_plan(&plan);
  res::Resilience engine;
  res::RequestContext ctx = engine.make_context();

  const rag::WorkflowOutcome out = workflow->ask(kQuestion, &ctx);
  EXPECT_EQ(out.degradation, res::DegradationLevel::NoRetrieval);
  EXPECT_TRUE(out.retrieval.contexts.empty());
  EXPECT_FALSE(out.response.text.empty());
}

// A lost retrieval resets the outcome's retrieval, but the history record
// still names the embedder of the snapshot the ask pinned.
TEST_F(ChaosTest, HistoryRecordOfLostRetrievalNamesThePinnedEmbedder) {
  auto workflow = make_workflow();
  history::HistoryStore store;
  workflow->attach_history(&store);
  res::FaultPlan plan;
  plan.script(res::Stage::VectorSearch,
              {res::FaultKind::Permanent, res::FaultKind::Permanent});
  workflow->set_fault_plan(&plan);
  res::Resilience engine;
  res::RequestContext ctx = engine.make_context();

  const rag::SnapshotPtr pinned = kb_->snapshot();
  const rag::WorkflowOutcome out = workflow->ask(kQuestion, &ctx);
  ASSERT_EQ(out.degradation, res::DegradationLevel::NoRetrieval);
  ASSERT_EQ(out.retrieval.snapshot, nullptr);
  ASSERT_EQ(store.size(), 1u);
  const history::InteractionRecord& record = store.records().front();
  EXPECT_EQ(record.id, out.history_id);
  EXPECT_EQ(record.embedding_model, pinned->embedder->name());
  EXPECT_FALSE(record.embedding_model.empty());
}

// A Server walks the same rung: its worker runs ask() under the request's
// resilience context, so a search lost past its hedges answers at
// NoRetrieval with exactly the serial ask(q, &ctx) answer.
TEST_F(ChaosTest, ServerAnswersAtNoRetrievalWhenSearchLostPastHedges) {
  auto lose_search = [] {
    auto plan = std::make_unique<res::FaultPlan>();
    plan->script(res::Stage::VectorSearch,
                 {res::FaultKind::Permanent, res::FaultKind::Permanent});
    return plan;
  };
  res::Resilience engine;

  auto serial_wf = make_workflow();
  const auto serial_plan = lose_search();
  serial_wf->set_fault_plan(serial_plan.get());
  res::RequestContext ctx = engine.make_context();
  const rag::WorkflowOutcome serial = serial_wf->ask(kQuestion, &ctx);
  ASSERT_EQ(serial.degradation, res::DegradationLevel::NoRetrieval);

  auto served_wf = make_workflow();
  const auto served_plan = lose_search();
  served_wf->set_fault_plan(served_plan.get());
  serve::ServerOptions opts;
  opts.workers = 1;
  opts.resilience = &engine;
  serve::Server server(*served_wf, opts);
  const rag::WorkflowOutcome served = server.ask(kQuestion);

  EXPECT_EQ(served.degradation, res::DegradationLevel::NoRetrieval);
  EXPECT_TRUE(served.retrieval.contexts.empty());
  EXPECT_EQ(served.response.text, serial.response.text);
  EXPECT_EQ(served.response.mode, serial.response.mode);
  EXPECT_EQ(served.prompt, serial.prompt);
  EXPECT_EQ(served_plan->counts(res::Stage::VectorSearch).calls, 2u);
  EXPECT_EQ(server.stats().degraded, 1u);
  EXPECT_EQ(server.stats().computed, 1u);
}

TEST_F(ChaosTest, HedgeRecoversASingleVectorSearchFault) {
  auto workflow = make_workflow();
  res::FaultPlan plan;
  plan.script(res::Stage::VectorSearch, {res::FaultKind::Transient});
  workflow->set_fault_plan(&plan);
  res::Resilience engine;
  res::RequestContext ctx = engine.make_context();

  const rag::WorkflowOutcome out = workflow->ask(kQuestion, &ctx);
  EXPECT_EQ(out.degradation, res::DegradationLevel::Full);
  EXPECT_FALSE(out.retrieval.contexts.empty());
  EXPECT_EQ(plan.counts(res::Stage::VectorSearch).transient, 1u);
  EXPECT_EQ(plan.counts(res::Stage::VectorSearch).calls, 2u);  // fault + hedge
}

TEST_F(ChaosTest, TransientLlmFaultIsRetriedToFullAnswer) {
  auto workflow = make_workflow();
  res::FaultPlan plan;
  plan.script(res::Stage::Llm, {res::FaultKind::Transient});
  workflow->set_fault_plan(&plan);
  res::Resilience engine;  // default retry: 3 attempts
  res::RequestContext ctx = engine.make_context();

  const rag::WorkflowOutcome out = workflow->ask(kQuestion, &ctx);
  EXPECT_EQ(out.degradation, res::DegradationLevel::Full);
  EXPECT_EQ(ctx.llm_attempts, 2u);
  EXPECT_EQ(ctx.retries, 1u);
  // The backoff was charged to the budget, not slept.
  EXPECT_GT(ctx.budget.spent_seconds(), 0.0);
  EXPECT_FALSE(out.response.text.empty());
}

TEST_F(ChaosTest, TinyDeadlineAbandonsTheLlmStage) {
  auto workflow = make_workflow();
  res::ResilienceOptions opts;
  opts.request_deadline_seconds = 0.001;  // far below one simulated response
  res::Resilience engine(opts);
  res::RequestContext ctx = engine.make_context();

  const rag::WorkflowOutcome out = workflow->ask(kQuestion, &ctx);
  EXPECT_EQ(out.degradation, res::DegradationLevel::Extractive);
  EXPECT_TRUE(ctx.deadline_exceeded);
  EXPECT_TRUE(ctx.budget.exhausted());
  // The invariant under any fault mix: spent never exceeds the budget.
  EXPECT_LE(ctx.budget.spent_seconds(), ctx.budget.budget_seconds() + 1e-9);
}

TEST_F(ChaosTest, TimeoutFaultConsumesTheWholeBudget) {
  auto workflow = make_workflow();
  res::FaultPlan plan;
  plan.script(res::Stage::Llm, {res::FaultKind::Timeout});
  workflow->set_fault_plan(&plan);
  res::Resilience engine;
  res::RequestContext ctx = engine.make_context();

  const rag::WorkflowOutcome out = workflow->ask(kQuestion, &ctx);
  EXPECT_EQ(out.degradation, res::DegradationLevel::Extractive);
  EXPECT_TRUE(ctx.deadline_exceeded);
  EXPECT_TRUE(ctx.budget.exhausted());
  EXPECT_EQ(ctx.llm_attempts, 1u);  // a hang is never retried
}

// --- The circuit breaker on a scripted schedule ---------------------------

TEST_F(ChaosTest, BreakerTransitionsMatchScriptedSchedule) {
  auto workflow = make_workflow();
  res::FaultPlan plan;
  plan.script(res::Stage::Llm,
              {res::FaultKind::Transient, res::FaultKind::Transient,
               res::FaultKind::Transient, res::FaultKind::Transient});
  workflow->set_fault_plan(&plan);

  pkb::util::SimClock clock;
  res::ResilienceOptions opts;
  opts.llm_retry.max_attempts = 1;  // one attempt per request: no retries
  opts.breaker.window = 8;
  opts.breaker.min_samples = 4;
  opts.breaker.failure_threshold = 0.5;
  opts.breaker.open_seconds = 30.0;
  opts.breaker.half_open_probes = 1;
  res::Resilience engine(opts, [&clock] { return clock.now(); });
  using State = res::CircuitBreaker::State;

  // Requests 1-3: failures accumulate but stay below min_samples.
  for (int i = 0; i < 3; ++i) {
    res::RequestContext ctx = engine.make_context();
    const rag::WorkflowOutcome out = workflow->ask(kQuestion, &ctx);
    EXPECT_EQ(out.degradation, res::DegradationLevel::Extractive);
    EXPECT_EQ(engine.breaker().state(), State::Closed) << "request " << i + 1;
  }
  // Request 4: min_samples met at 100% failure rate — the breaker opens.
  {
    res::RequestContext ctx = engine.make_context();
    (void)workflow->ask(kQuestion, &ctx);
    EXPECT_EQ(engine.breaker().state(), State::Open);
  }
  // Request 5: short-circuited without touching the LLM.
  {
    res::RequestContext ctx = engine.make_context();
    const rag::WorkflowOutcome out = workflow->ask(kQuestion, &ctx);
    EXPECT_TRUE(ctx.breaker_short_circuit);
    EXPECT_EQ(ctx.llm_attempts, 0u);
    EXPECT_EQ(out.degradation, res::DegradationLevel::Extractive);
    EXPECT_EQ(engine.breaker().state(), State::Open);
  }
  // The script is exhausted (the LLM would now succeed), but the cooldown
  // has not elapsed: still short-circuiting.
  clock.advance(29.0);
  {
    res::RequestContext ctx = engine.make_context();
    (void)workflow->ask(kQuestion, &ctx);
    EXPECT_TRUE(ctx.breaker_short_circuit);
    EXPECT_EQ(engine.breaker().state(), State::Open);
  }
  // Past the cooldown: the next request is the half-open probe; it succeeds
  // and closes the breaker.
  clock.advance(2.0);
  {
    res::RequestContext ctx = engine.make_context();
    const rag::WorkflowOutcome out = workflow->ask(kQuestion, &ctx);
    EXPECT_EQ(out.degradation, res::DegradationLevel::Full);
    EXPECT_EQ(ctx.llm_attempts, 1u);
    EXPECT_EQ(engine.breaker().state(), State::Closed);
  }
}

// --- The serving layer: degraded answers are never reused -----------------

TEST_F(ChaosTest, DegradedAnswersExpireOnTheShortTtl) {
  auto workflow = make_workflow();
  res::FaultPlan plan;
  plan.script(res::Stage::Llm, {res::FaultKind::Permanent});
  workflow->set_fault_plan(&plan);
  res::Resilience engine;

  serve::ServerOptions opts;
  opts.workers = 1;
  opts.resilience = &engine;
  serve::Server server(*workflow, opts);

  // The outage answer is served degraded.
  const rag::WorkflowOutcome first = server.ask(kQuestion);
  EXPECT_EQ(first.degradation, res::DegradationLevel::Extractive);
  EXPECT_EQ(server.stats().degraded, 1u);

  // The server kept nothing: with the fault cleared (the script is
  // exhausted) the very next ask recomputes at full quality.
  const rag::WorkflowOutcome healed = server.ask(kQuestion);
  EXPECT_EQ(healed.degradation, res::DegradationLevel::Full);
  EXPECT_EQ(server.stats().computed, 2u);
  EXPECT_EQ(server.stats().degraded, 1u);
}

// --- Ingest-build aborts --------------------------------------------------

/// Published ingest builds, from the exported counter.
std::uint64_t ingest_builds() {
  return obs::global_metrics().counter(obs::kIngestBuildsTotal).value();
}

/// Ingest builds aborted by a fault of kind `reason`, from the exported
/// counter.
std::uint64_t ingest_aborts(const char* reason) {
  return obs::global_metrics()
      .counter(obs::kResilienceIngestAbortsTotal, {{"reason", reason}})
      .value();
}

TEST_F(ChaosTest, IngestFaultAbortsBuildKeepingBaseGeneration) {
  rag::KnowledgeBase kb = rag::KnowledgeBase::build(chaos_corpus());
  ingest::Ingestor ingestor(kb);
  res::FaultPlan plan;
  plan.script(res::Stage::Ingest, {res::FaultKind::Permanent});
  ingestor.set_fault_plan(&plan);
  const std::uint64_t builds_before = ingest_builds();
  const std::uint64_t aborts_before = ingest_aborts("permanent");

  const rag::SnapshotPtr aborted = ingestor.ingest_qa(
      "qa/1.md", "GMRES restarts", "When does GMRES restart?",
      "After `-ksp_gmres_restart` iterations.");
  EXPECT_EQ(aborted, nullptr);
  EXPECT_EQ(kb.generation(), 1u);  // readers keep the base generation
  EXPECT_EQ(ingest_aborts("permanent"), aborts_before + 1);
  EXPECT_EQ(ingest_builds(), builds_before);

  // The fault cleared: the same ingest now publishes generation 2.
  const rag::SnapshotPtr published = ingestor.ingest_qa(
      "qa/1.md", "GMRES restarts", "When does GMRES restart?",
      "After `-ksp_gmres_restart` iterations.");
  ASSERT_NE(published, nullptr);
  EXPECT_EQ(published->generation, kb.generation());
  EXPECT_EQ(kb.generation(), 2u);
  EXPECT_EQ(ingest_builds(), builds_before + 1);
  EXPECT_EQ(ingest_aborts("permanent"), aborts_before + 1);
}

TEST_F(ChaosTest, IngestTransientFaultEarnsOneRetry) {
  rag::KnowledgeBase kb = rag::KnowledgeBase::build(chaos_corpus());
  ingest::Ingestor ingestor(kb);
  res::FaultPlan plan;
  // One transient: the retry's draw is clean and the build goes through.
  plan.script(res::Stage::Ingest, {res::FaultKind::Transient});
  ingestor.set_fault_plan(&plan);
  const std::uint64_t builds_before = ingest_builds();
  const std::uint64_t aborts_before = ingest_aborts("transient");
  EXPECT_NE(ingestor.ingest_qa("qa/a.md", "T", "q?", "a."), nullptr);
  EXPECT_EQ(ingest_aborts("transient"), aborts_before);
  EXPECT_EQ(ingest_builds(), builds_before + 1);

  // Two transients back to back: the single retry also faults — abort.
  // (A fresh plan: script() pins leading ordinals, and this ingestor's
  // first build already consumed the old plan's.)
  res::FaultPlan double_fault;
  double_fault.script(res::Stage::Ingest,
                      {res::FaultKind::Transient, res::FaultKind::Transient});
  ingestor.set_fault_plan(&double_fault);
  EXPECT_EQ(ingestor.ingest_qa("qa/b.md", "T", "q?", "a."), nullptr);
  EXPECT_EQ(ingest_aborts("transient"), aborts_before + 1);
  EXPECT_EQ(ingest_builds(), builds_before + 1);
  EXPECT_EQ(kb.generation(), 2u);
}

// --- End to end: the ISSUE's acceptance scenario --------------------------

// 10% LLM transient faults + 5% reranker timeouts over a concurrent request
// stream: every request completes within its deadline budget and every
// request is answered (full or degraded).
TEST_F(ChaosTest, ServerMeetsServiceLevelUnderSustainedFaults) {
  obs::global_metrics().reset();
  auto workflow = make_workflow();
  res::FaultPlanOptions fopts;
  fopts.seed = 42;
  fopts.llm.transient_rate = 0.10;
  fopts.rerank.timeout_rate = 0.05;
  res::FaultPlan plan(fopts);
  workflow->set_fault_plan(&plan);

  res::ResilienceOptions ropts;
  ropts.request_deadline_seconds = 120.0;  // virtual seconds
  res::Resilience engine(ropts);

  serve::ServerOptions opts;
  opts.workers = 4;
  opts.resilience = &engine;
  serve::Server server(*workflow, opts);

  const std::size_t kRequests = 80;
  std::vector<std::string> questions;
  questions.reserve(kRequests);
  for (std::size_t i = 0; i < kRequests; ++i) {
    questions.push_back(kQuestion + " (variant " + std::to_string(i) + ")");
  }
  std::vector<std::future<rag::WorkflowOutcome>> futures;
  futures.reserve(kRequests);
  for (const std::string& q : questions) futures.push_back(server.submit(q));
  std::vector<rag::WorkflowOutcome> outcomes;
  outcomes.reserve(kRequests);
  for (auto& f : futures) outcomes.push_back(f.get());

  ASSERT_EQ(outcomes.size(), kRequests);
  std::size_t answered = 0;
  std::size_t degraded = 0;
  for (const rag::WorkflowOutcome& out : outcomes) {
    if (!out.response.text.empty()) ++answered;
    if (out.degraded()) ++degraded;
    // Nothing worse than the ladder allows, and no silent failures.
    EXPECT_LE(static_cast<int>(out.degradation),
              static_cast<int>(res::DegradationLevel::Unavailable));
  }
  // >= 99% answered; with the ladder in place that is in fact 100%.
  EXPECT_GE(answered, (kRequests * 99 + 99) / 100);
  EXPECT_EQ(server.stats().degraded, degraded);

  // Faults really were injected (the plan is deterministic in its seed).
  EXPECT_GT(plan.counts(res::Stage::Llm).transient, 0u);
  EXPECT_GT(plan.counts(res::Stage::Rerank).timeout, 0u);

  // The deadline invariant: no request's budget was overdrawn — the
  // exact-max histogram over every request's spent budget stays within the
  // deadline.
  const auto spent = obs::global_metrics()
                         .histogram(obs::kResilienceBudgetSpentSeconds)
                         .snapshot();
  EXPECT_EQ(spent.count, kRequests);
  EXPECT_LE(spent.max, ropts.request_deadline_seconds + 1e-9);
}

}  // namespace
