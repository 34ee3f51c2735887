// Cross-module integration and property tests: whole-pipeline invariants
// that no single module test can see.
#include <gtest/gtest.h>

#include <set>

#include "corpus/generator.h"
#include "eval/runner.h"
#include "post/postprocessor.h"
#include "rag/workflow.h"

namespace pkb {
namespace {

class IntegrationTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    tree_ = new text::VirtualDir(corpus::generate_corpus());
    db_ = new rag::KnowledgeBase(rag::KnowledgeBase::build(*tree_));
  }
  static text::VirtualDir* tree_;
  static rag::KnowledgeBase* db_;
};

text::VirtualDir* IntegrationTest::tree_ = nullptr;
rag::KnowledgeBase* IntegrationTest::db_ = nullptr;

TEST_F(IntegrationTest, EveryChunkTracesBackToACorpusFile) {
  std::set<std::string> paths;
  for (const auto& file : *tree_) paths.insert(file.path);
  const rag::SnapshotPtr snap = db_->snapshot();
  for (const auto& chunk : snap->chunks) {
    const std::string source(chunk.meta("source"));
    EXPECT_TRUE(paths.contains(source)) << chunk.id;
    // Chunk text is a substring-free derivation (markup stripped), but every
    // chunk must be non-trivial.
    EXPECT_GE(chunk.text.size(), 3u) << chunk.id;
  }
}

TEST_F(IntegrationTest, RetrievedContextsAlwaysComeFromTheStore) {
  const rag::AugmentedWorkflow workflow(*db_, rag::PipelineArm::RagRerank,
                                        llm::model_config("sim-gpt-4o"));
  for (const corpus::BenchmarkQuestion& q : corpus::krylov_benchmark()) {
    const rag::RetrievalResult result = workflow.ask(q.question).retrieval;
    for (const auto& ctx : result.contexts) {
      ASSERT_NE(ctx.doc, nullptr);
      EXPECT_FALSE(ctx.doc->id.empty());
    }
  }
}

TEST_F(IntegrationTest, WholeBenchmarkRunIsDeterministic) {
  const eval::BenchmarkRunner runner(*db_, llm::model_config("sim-gpt-4o"));
  const eval::ArmReport a = runner.run(rag::PipelineArm::RagRerank);
  const eval::ArmReport b = runner.run(rag::PipelineArm::RagRerank);
  ASSERT_EQ(a.outcomes.size(), b.outcomes.size());
  for (std::size_t i = 0; i < a.outcomes.size(); ++i) {
    EXPECT_EQ(a.outcomes[i].answer, b.outcomes[i].answer) << "Q" << i + 1;
    EXPECT_EQ(a.outcomes[i].verdict.score, b.outcomes[i].verdict.score);
    EXPECT_DOUBLE_EQ(a.outcomes[i].llm_seconds, b.outcomes[i].llm_seconds);
  }
}

TEST_F(IntegrationTest, RerankArmNeverFabricatesSymbols) {
  // The central safety property: with grounding + reranking, no benchmark
  // answer contains an invented API symbol.
  const eval::BenchmarkRunner runner(*db_, llm::model_config("sim-gpt-4o"));
  const eval::ArmReport report = runner.run(rag::PipelineArm::RagRerank);
  for (const auto& outcome : report.outcomes) {
    EXPECT_TRUE(outcome.verdict.fabricated_symbols.empty())
        << "Q" << outcome.question_id << " fabricated "
        << outcome.verdict.fabricated_symbols.front();
  }
}

TEST_F(IntegrationTest, AnswersSurvivePostprocessingCleanly) {
  // Box 4 over every rerank-arm answer: HTML renders, any code verifies.
  const eval::BenchmarkRunner runner(*db_, llm::model_config("sim-gpt-4o"));
  const eval::ArmReport report = runner.run(rag::PipelineArm::RagRerank);
  for (const auto& outcome : report.outcomes) {
    const post::ProcessedOutput processed =
        post::postprocess_llm_output(outcome.answer);
    EXPECT_FALSE(processed.plain_text.empty()) << "Q" << outcome.question_id;
    EXPECT_TRUE(processed.all_code_ok) << "Q" << outcome.question_id;
  }
}

TEST_F(IntegrationTest, WeakerModelsScoreWorseOnTheBaselineArm) {
  const eval::BenchmarkRunner strong(*db_, llm::model_config("sim-gpt-4o"));
  const eval::BenchmarkRunner weak(*db_, llm::model_config("sim-llama3-8b"));
  const double strong_mean =
      strong.run(rag::PipelineArm::Baseline).scores.mean();
  const double weak_mean = weak.run(rag::PipelineArm::Baseline).scores.mean();
  EXPECT_GT(strong_mean, weak_mean);
}

TEST_F(IntegrationTest, RagLiftsWeakModelsToo) {
  // The paper's RAG value proposition is model-agnostic: grounding helps
  // the small model as well.
  const eval::BenchmarkRunner weak(*db_, llm::model_config("sim-llama3-8b"));
  const double baseline = weak.run(rag::PipelineArm::Baseline).scores.mean();
  const double rerank = weak.run(rag::PipelineArm::RagRerank).scores.mean();
  EXPECT_GT(rerank, baseline + 0.5);
}

TEST_F(IntegrationTest, HistoryOfAFullRunRecordsEveryAsk) {
  history::HistoryStore store;
  pkb::util::SimClock clock;
  rag::AugmentedWorkflow workflow(*db_, rag::PipelineArm::RagRerank,
                                  llm::model_config("sim-gpt-4o"));
  workflow.attach_history(&store, &clock);
  for (std::size_t i = 0; i < 5; ++i) {
    (void)workflow.ask(corpus::krylov_benchmark()[i].question);
  }
  ASSERT_EQ(store.size(), 5u);
  for (std::size_t i = 1; i <= 5; ++i) {
    const history::InteractionRecord& r = store.records()[i - 1];
    EXPECT_EQ(r.id, i);
    EXPECT_EQ(r.question, corpus::krylov_benchmark()[i - 1].question);
    EXPECT_FALSE(r.response.empty()) << "record " << i;
    EXPECT_NE(r.prompt.find(r.question), std::string::npos) << "record " << i;
  }
  // Simulated time advanced monotonically across the interactions.
  EXPECT_GT(clock.now(), 5.0);
}

TEST_F(IntegrationTest, JsonModeFlowsThroughThePipeline) {
  // The LLM's JSON output mode (§III-E) composes with box-4 postprocessing.
  llm::SimLlm llm(llm::model_config("sim-gpt-4o"));
  const rag::AugmentedWorkflow workflow(*db_, rag::PipelineArm::RagRerank,
                                        llm::model_config("sim-gpt-4o"));
  const auto retrieval =
      workflow.ask("How can I print the residual norm at every iteration?")
          .retrieval;
  llm::LlmRequest request;
  request.question = "How can I print the residual norm at every iteration?";
  for (const auto& ctx : retrieval.contexts) {
    request.contexts.push_back(
        llm::ContextDoc{ctx.doc->id, std::string(ctx.doc->meta("title")),
                        ctx.doc->text, ctx.score});
  }
  request.json_output = true;
  const llm::LlmResponse response = llm.complete(request);
  const post::ProcessedOutput processed =
      post::postprocess_llm_output(response.text);
  // JSON mode: the answer member is extracted, not the raw object.
  EXPECT_FALSE(processed.sources.empty());
  EXPECT_EQ(processed.plain_text.find("\"sources\""), std::string::npos);
  EXPECT_NE(processed.plain_text.find("-ksp_monitor"), std::string::npos);
}

}  // namespace
}  // namespace pkb
