// Stage-graph tests: the parity contract (every served request — a Server
// request or a SessionManager turn — reproduces a serial ask()
// content-identically), the budget charge and generation stamped-in-one-place
// guarantees, and the session-history tail-append contract. Suite names
// (StageGraph*/StageParity*) are part of the scripts/run_tsan.sh filter.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "corpus/generator.h"
#include "history/store.h"
#include "llm/model_config.h"
#include "rag/prompts.h"
#include "rag/stage_graph.h"
#include "rag/stages.h"
#include "rag/workflow.h"
#include "resilience/fault_plan.h"
#include "resilience/resilience.h"
#include "serve/server.h"
#include "serve/session.h"
#include "util/clock.h"

namespace {

using namespace pkb;
namespace res = pkb::resilience;

const std::vector<std::string> kQuestions = {
    "Which Krylov method should I use for a symmetric positive definite "
    "matrix?",
    "How do I monitor the true residual norm of my linear solve?",
    "What does the -ksp_view option print?",
};

class StageParityTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    kb_ = new rag::KnowledgeBase(
        rag::KnowledgeBase::build(corpus::generate_corpus()));
  }
  static std::unique_ptr<rag::AugmentedWorkflow> make_workflow(
      rag::PipelineArm arm = rag::PipelineArm::RagRerank) {
    return std::make_unique<rag::AugmentedWorkflow>(
        *kb_, arm, llm::model_config("sim-gpt-4o"));
  }
  static std::vector<std::string> context_ids(
      const rag::WorkflowOutcome& out) {
    std::vector<std::string> ids;
    for (const auto& ctx : out.retrieval.contexts) {
      ids.push_back(ctx.doc->id);
    }
    return ids;
  }
  static void expect_same_content(const rag::WorkflowOutcome& serial,
                                  const rag::WorkflowOutcome& served,
                                  const std::string& q) {
    EXPECT_EQ(serial.response.text, served.response.text) << q;
    EXPECT_EQ(serial.response.mode, served.response.mode) << q;
    EXPECT_EQ(serial.prompt, served.prompt) << q;
    EXPECT_EQ(serial.generation, served.generation) << q;
    EXPECT_EQ(serial.degradation, served.degradation) << q;
    EXPECT_EQ(serial.processed.plain_text, served.processed.plain_text) << q;
    EXPECT_EQ(context_ids(serial), context_ids(served)) << q;
  }
  static rag::KnowledgeBase* kb_;
};

rag::KnowledgeBase* StageParityTest::kb_ = nullptr;

// A Server answer is a serial ask() on every retrieval arm: the worker's
// request runs the same stage graph through the same entry point.
TEST_F(StageParityTest, ServerAskEqualsSerialAsk) {
  for (const rag::PipelineArm arm :
       {rag::PipelineArm::Rag, rag::PipelineArm::RagRerank}) {
    auto workflow = make_workflow(arm);
    serve::ServerOptions opts;
    opts.workers = 2;
    serve::Server server(*workflow, opts);
    for (const std::string& q : kQuestions) {
      expect_same_content(workflow->ask(q), server.ask(q), q);
    }
    EXPECT_EQ(server.stats().computed, kQuestions.size());
  }
}

// The first turn of a session has no retrieval memory and no conversation
// history yet, so it must equal a serial ask() on every retrieval arm.
TEST_F(StageParityTest, FirstSessionTurnEqualsSerialAsk) {
  for (const rag::PipelineArm arm :
       {rag::PipelineArm::Rag, rag::PipelineArm::RagRerank}) {
    auto workflow = make_workflow(arm);
    serve::Server server(*workflow);
    serve::SessionManager sessions(server);
    for (std::size_t i = 0; i < kQuestions.size(); ++i) {
      const std::string& q = kQuestions[i];
      const serve::TurnOutcome turn =
          sessions.ask("parity-" + std::to_string(i), q);
      ASSERT_FALSE(turn.shed()) << q;
      EXPECT_EQ(turn.turn, 1u) << q;
      EXPECT_EQ(turn.deduped_contexts, 0u) << q;
      EXPECT_EQ(turn.history_contexts, 0u) << q;
      expect_same_content(workflow->ask(q), turn.outcome, q);
    }
  }
}

// Chaos determinism across >= 3 fault-plan seeds: the same seed and the
// same request stream produce bit-identical answers, degradation levels,
// and budget spend on two independent runs.
TEST_F(StageParityTest, ChaosDeterminismAcrossSeeds) {
  for (const std::uint64_t seed : {1ull, 7ull, 23ull}) {
    res::FaultPlanOptions plan_opts;
    plan_opts.seed = seed;
    plan_opts.vector_search.transient_rate = 0.2;
    plan_opts.rerank.timeout_rate = 0.3;
    plan_opts.llm.transient_rate = 0.3;

    std::vector<std::string> answers[2];
    std::vector<std::string> levels[2];
    std::vector<double> spent[2];
    for (int run = 0; run < 2; ++run) {
      res::FaultPlan plan(plan_opts);
      auto workflow = make_workflow();
      workflow->set_fault_plan(&plan);
      res::Resilience engine;
      for (const std::string& q : kQuestions) {
        res::RequestContext ctx = engine.make_context();
        const rag::WorkflowOutcome out = workflow->ask(q, &ctx);
        answers[run].push_back(out.response.text);
        levels[run].push_back(std::string(res::to_string(out.degradation)));
        spent[run].push_back(ctx.budget.spent_seconds());
      }
    }
    EXPECT_EQ(answers[0], answers[1]) << "seed " << seed;
    EXPECT_EQ(levels[0], levels[1]) << "seed " << seed;
    // Budget charges mix simulated latencies with real measured embed time,
    // so the totals carry sub-millisecond wall-clock jitter between runs.
    ASSERT_EQ(spent[0].size(), spent[1].size()) << "seed " << seed;
    // down to the simulated second; a double charge would differ by whole
    // seconds, so 0.5 s of slack never masks one (ASan/TSan runs stretch
    // the real component by ~100x).
    for (std::size_t i = 0; i < spent[0].size(); ++i) {
      EXPECT_NEAR(spent[0][i], spent[1][i], 0.5) << "seed " << seed;
    }
  }
}

// The history record is identical content on the serial and served paths
// (ids/timestamps aside): same question, response, prompt, contexts.
TEST_F(StageParityTest, HistoryRecordParityAcrossPaths) {
  const std::string q = kQuestions.front();

  history::HistoryStore direct_store;
  pkb::util::SimClock direct_clock;
  auto direct_wf = make_workflow();
  direct_wf->attach_history(&direct_store, &direct_clock);
  const rag::WorkflowOutcome direct = direct_wf->ask(q);

  history::HistoryStore served_store;
  pkb::util::SimClock served_clock;
  auto served_wf = make_workflow();
  served_wf->attach_history(&served_store, &served_clock);
  serve::Server server(*served_wf);
  const rag::WorkflowOutcome served = server.ask(q);

  ASSERT_EQ(direct_store.size(), 1u);
  ASSERT_EQ(served_store.size(), 1u);
  const history::InteractionRecord& a = direct_store.records().front();
  const history::InteractionRecord& b = served_store.records().front();
  EXPECT_EQ(a.id, direct.history_id);
  EXPECT_EQ(b.id, served.history_id);
  EXPECT_EQ(a.question, b.question);
  EXPECT_EQ(a.response, b.response);
  EXPECT_EQ(a.prompt, b.prompt);
  EXPECT_EQ(a.context_ids, b.context_ids);
  EXPECT_EQ(a.model, b.model);
  EXPECT_EQ(a.reranker, b.reranker);
  // Latency includes real measured embed time on top of the simulated
  // seconds; sanitizer builds stretch the real component, so allow slack
  // well below one simulated latency (a path bug would differ by seconds).
  EXPECT_NEAR(a.latency_seconds, b.latency_seconds, 0.5);
}

// --- satellite: budget charge ---------------------------------------------

// A context without an engine still gets retrieval wall time charged; the
// charge equals rag_seconds exactly (one charge, nothing else).
TEST_F(StageParityTest, BudgetChargeEqualsRagSecondsWithoutEngine) {
  auto workflow = make_workflow();
  res::RequestContext ctx;  // no engine: GenerateStage runs the plain LLM
  ctx.budget = res::DeadlineBudget(1e9);
  const rag::WorkflowOutcome out = workflow->ask(kQuestions.front(), &ctx);
  EXPECT_GT(out.retrieval.rag_seconds(), 0.0);
  EXPECT_DOUBLE_EQ(ctx.budget.spent_seconds(), out.retrieval.rag_seconds());
}

// --- satellite: generation stamped in one place ---------------------------

// PromptStage stamps the generation of the *pinned* snapshot the retrieval
// ran against — not the live generation, which may have moved on between
// the Rerank and Prompt stages.
TEST_F(StageParityTest, GenerationStampedFromPinnedSnapshot) {
  rag::KnowledgeBase kb(rag::KnowledgeBase::build(corpus::generate_corpus()));
  const rag::AugmentedWorkflow workflow(kb, rag::PipelineArm::RagRerank,
                                        llm::model_config("sim-gpt-4o"));
  const rag::StageGraph& graph = rag::global_stage_graph();
  rag::StageState st;
  st.wf = &workflow;
  st.question = kQuestions.front();
  graph.run_range(st, rag::StageKind::Embed, rag::StageKind::Rerank);
  const std::uint64_t pinned = st.outcome.retrieval.generation();
  ASSERT_GT(pinned, 0u);

  // The KB publishes a newer generation while the retrieval is in hand.
  auto next = std::make_shared<rag::Snapshot>(*kb.snapshot());
  next->generation = pinned + 1;
  kb.publish(next);
  ASSERT_EQ(kb.generation(), pinned + 1);

  graph.run_range(st, rag::StageKind::Prompt, rag::StageKind::Postprocess);
  EXPECT_EQ(st.outcome.generation, pinned);
  EXPECT_EQ(st.outcome.generation, st.outcome.retrieval.generation());
}

// Baseline outcomes read no corpus: generation stays 0, served or serial.
TEST_F(StageParityTest, BaselineGenerationIsZero) {
  auto workflow = make_workflow(rag::PipelineArm::Baseline);
  EXPECT_EQ(workflow->ask(kQuestions.front()).generation, 0u);
  serve::Server server(*workflow);
  EXPECT_EQ(server.ask(kQuestions.front()).generation, 0u);
}

// --- session history: the tail-append contract ---------------------------

// Two prior turns of one session, oldest first, as SessionManager builds them.
const std::vector<llm::ContextDoc> kSessionHistory = {
    {"session:s1:turn:1", "Earlier in this conversation",
     "Q: What is GMRES?\nA: A Krylov method for nonsymmetric systems.", 0.0},
    {"session:s1:turn:2", "Earlier in this conversation",
     "Q: How do I set the restart?\nA: Use -ksp_gmres_restart.", 0.0},
};

// Session history is appended AFTER the document contexts: it competes for
// the tail of the attention window, never displaces a document.
TEST_F(StageParityTest, HistoryContextsAppendAfterDocumentContexts) {
  rag::SessionPromptContext session;
  session.history_contexts = &kSessionHistory;
  auto workflow = make_workflow();
  rag::StageTrace trace;
  const rag::WorkflowOutcome out =
      workflow->ask(kQuestions.front(), nullptr, &trace, &session);
  const std::size_t n_docs = out.retrieval.contexts.size();
  ASSERT_GT(n_docs, 0u);
  EXPECT_EQ(session.history_attached, kSessionHistory.size());

  const std::vector<llm::ContextDoc>& contexts = trace.prompt.contexts;
  ASSERT_EQ(contexts.size(), n_docs + kSessionHistory.size());
  for (std::size_t i = 0; i < n_docs; ++i) {
    EXPECT_EQ(contexts[i].id, out.retrieval.contexts[i].doc->id)
        << "document contexts must lead, in retrieval order (position " << i
        << ")";
  }
  for (std::size_t i = 0; i < kSessionHistory.size(); ++i) {
    EXPECT_EQ(contexts[n_docs + i].id, kSessionHistory[i].id)
        << "session history follows the documents, oldest first";
  }
}

// The promotion branch of append_recalled_contexts: a request with an empty
// system prompt whose first contexts are session history gets the QA
// prompt; with no history the system prompt stays empty. A system prompt
// that is already set is kept: a Baseline ask() with session history still
// carries the baseline prompt.
TEST_F(StageParityTest, EmptySystemPromptPromotedOnHistoryRecall) {
  llm::LlmRequest request;  // no documents, empty system prompt
  rag::append_recalled_contexts(kSessionHistory, request);
  ASSERT_EQ(request.contexts.size(), kSessionHistory.size());
  EXPECT_EQ(request.contexts.front().id, kSessionHistory.front().id);
  EXPECT_EQ(request.system, rag::PromptLibrary::qa_system_prompt());

  llm::LlmRequest no_history;
  rag::append_recalled_contexts({}, no_history);
  EXPECT_TRUE(no_history.contexts.empty());
  EXPECT_TRUE(no_history.system.empty());

  rag::SessionPromptContext session;
  session.history_contexts = &kSessionHistory;
  auto baseline = make_workflow(rag::PipelineArm::Baseline);
  rag::StageTrace trace;
  (void)baseline->ask(kQuestions.front(), nullptr, &trace, &session);
  EXPECT_EQ(trace.prompt.contexts.size(), kSessionHistory.size());
  EXPECT_EQ(trace.prompt.system, rag::PromptLibrary::baseline_system_prompt());
}

// --- the stage graph itself -----------------------------------------------

TEST(StageGraphTest, StageNamesRoundTrip) {
  for (int i = 0; i < rag::kStageCount; ++i) {
    const auto kind = static_cast<rag::StageKind>(i);
    const auto parsed = rag::stage_from_name(rag::to_string(kind));
    ASSERT_TRUE(parsed.has_value()) << i;
    EXPECT_EQ(*parsed, kind);
  }
  EXPECT_FALSE(rag::stage_from_name("no-such-stage").has_value());
  EXPECT_FALSE(rag::stage_from_name("").has_value());
}

TEST(StageGraphTest, GlobalGraphExposesAllStagesInOrder) {
  const rag::StageGraph& graph = rag::global_stage_graph();
  for (int i = 0; i < rag::kStageCount; ++i) {
    const auto kind = static_cast<rag::StageKind>(i);
    EXPECT_EQ(graph.stage(kind).kind(), kind);
  }
}

// A captured trace mirrors the outcome it was captured from.
TEST_F(StageParityTest, TraceMirrorsOutcome) {
  auto workflow = make_workflow();
  rag::StageTrace trace;
  const rag::WorkflowOutcome out =
      workflow->ask(kQuestions.front(), nullptr, &trace);

  EXPECT_EQ(trace.question, kQuestions.front());
  EXPECT_EQ(trace.arm, "rag+rerank");
  EXPECT_EQ(trace.model, "sim-gpt-4o");
  EXPECT_EQ(trace.reranker, "sim-flashrank");
  EXPECT_EQ(trace.first_pass_k, 8u);
  EXPECT_EQ(trace.final_l, 4u);
  EXPECT_EQ(trace.generation, out.generation);
  EXPECT_EQ(trace.prompt.prompt, out.prompt);
  EXPECT_EQ(trace.generate.response.text, out.response.text);
  EXPECT_EQ(trace.generate.response.mode, out.response.mode);
  EXPECT_EQ(trace.post.plain_text, out.processed.plain_text);
  EXPECT_EQ(trace.rerank.contexts.size(), out.retrieval.contexts.size());
  for (std::size_t i = 0; i < trace.rerank.contexts.size(); ++i) {
    EXPECT_EQ(trace.rerank.contexts[i].id,
              out.retrieval.contexts[i].doc->id);
  }
  EXPECT_FALSE(trace.embed.query_vec.empty());
  EXPECT_EQ(trace.retrieve.candidates.size(),
            out.retrieval.first_pass.size());
}

}  // namespace
