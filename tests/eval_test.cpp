#include <gtest/gtest.h>

#include "corpus/generator.h"
#include "eval/rubric.h"
#include "eval/runner.h"

namespace pkb::eval {
namespace {

corpus::BenchmarkQuestion question() {
  corpus::BenchmarkQuestion q;
  q.id = 1;
  q.question = "What solver handles rectangular matrices?";
  q.required_facts = {"KSPLSQR"};
  q.ideal_facts = {"least squares", "rectangular"};
  q.decisive_symbol = "KSPLSQR";
  return q;
}

TEST(FactPresent, AlternativesAndCase) {
  EXPECT_TRUE(fact_present("use KSPLSQR here", "KSPLSQR"));
  EXPECT_TRUE(fact_present("use ksplsqr here", "KSPLSQR"));
  EXPECT_TRUE(fact_present("the b option", "a|b option|c"));
  EXPECT_FALSE(fact_present("nothing relevant", "KSPLSQR|KSPCGLS"));
}

TEST(Rubric, Score0ForEmptyOrTiny) {
  EXPECT_EQ(score_answer(question(), "").score, 0);
  EXPECT_EQ(score_answer(question(), "dunno").score, 0);
}

TEST(Rubric, Score1ForFabricatedSymbols) {
  const RubricVerdict v = score_answer(
      question(),
      "You should call KSPSolveBlocked, which handles rectangular matrices "
      "and least squares with KSPLSQR semantics automatically.");
  EXPECT_EQ(v.score, 1);
  ASSERT_FALSE(v.fabricated_symbols.empty());
  EXPECT_EQ(v.fabricated_symbols[0], "KSPSolveBlocked");
}

TEST(Rubric, SymbolsFromTheQuestionAreNotFabrications) {
  corpus::BenchmarkQuestion q;
  q.id = 2;
  q.question = "What does KSPBurb do?";
  q.required_facts = {"no PETSc function|no such"};
  const RubricVerdict v = score_answer(
      q, "There is no PETSc function or object named KSPBurb in the "
         "documentation; the KSP module provides GMRES, CG, and others.");
  EXPECT_TRUE(v.fabricated_symbols.empty());
  EXPECT_GE(v.score, 3);
}

TEST(Rubric, Score4WhenAllFactsPresent) {
  const RubricVerdict v = score_answer(
      question(),
      "Use KSPLSQR: it solves least squares problems and accepts "
      "rectangular matrices directly.");
  EXPECT_EQ(v.score, 4);
  EXPECT_TRUE(v.missing_required.empty());
  EXPECT_TRUE(v.missing_ideal.empty());
}

TEST(Rubric, Score3WhenRequiredButNotIdeal) {
  const RubricVerdict v = score_answer(
      question(), "Use KSPLSQR for this class of problems in PETSc; see the "
                  "manual page for details of the algorithm.");
  EXPECT_EQ(v.score, 3);
  EXPECT_FALSE(v.missing_ideal.empty());
}

TEST(Rubric, Score2WhenHalfRequired) {
  corpus::BenchmarkQuestion q = question();
  q.required_facts = {"KSPLSQR", "normal equations"};
  const RubricVerdict v = score_answer(
      q, "KSPLSQR is appropriate here; it is designed for this shape of "
         "system and is the standard recommendation.");
  EXPECT_EQ(v.score, 2);
}

TEST(Rubric, Score1WhenNoRequiredFacts) {
  const RubricVerdict v = score_answer(
      question(), "PETSc provides many solvers; try a few and compare the "
                  "convergence behavior on your problem.");
  EXPECT_EQ(v.score, 1);
}

TEST(Rubric, JustificationIsInformative) {
  const RubricVerdict v = score_answer(question(), "Use KSPLSQR here.");
  EXPECT_FALSE(v.justification.empty());
}

// Shared expensive fixture: database + runner.
class RunnerTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    const auto tree = pkb::corpus::generate_corpus();
    db_ = new rag::KnowledgeBase(rag::KnowledgeBase::build(tree));
    runner_ = new BenchmarkRunner(*db_, llm::model_config("sim-gpt-4o"));
  }
  static rag::KnowledgeBase* db_;
  static BenchmarkRunner* runner_;
};

rag::KnowledgeBase* RunnerTest::db_ = nullptr;
BenchmarkRunner* RunnerTest::runner_ = nullptr;

TEST_F(RunnerTest, ReproducesTheHeadlineOrdering) {
  const ArmReport baseline = runner_->run(rag::PipelineArm::Baseline);
  const ArmReport rag_arm = runner_->run(rag::PipelineArm::Rag);
  const ArmReport rerank = runner_->run(rag::PipelineArm::RagRerank);
  ASSERT_EQ(baseline.outcomes.size(), 37u);
  // Paper ordering: rerank-RAG > RAG > baseline.
  EXPECT_GT(rag_arm.scores.mean(), baseline.scores.mean());
  EXPECT_GE(rerank.scores.mean(), rag_arm.scores.mean());
}

TEST_F(RunnerTest, RerankArmNeverBelowThree) {
  // The paper's Fig 6b: 33 questions at 4, four at 3, none below.
  const ArmReport rerank = runner_->run(rag::PipelineArm::RagRerank);
  EXPECT_EQ(rerank.count_with_score(4), 33u);
  EXPECT_EQ(rerank.count_with_score(3), 4u);
  EXPECT_EQ(rerank.count_with_score(2), 0u);
  EXPECT_EQ(rerank.count_with_score(1), 0u);
  EXPECT_EQ(rerank.count_with_score(0), 0u);
}

TEST_F(RunnerTest, RerankNeverDegradesVsBaseline) {
  const ArmReport baseline = runner_->run(rag::PipelineArm::Baseline);
  const ArmReport rerank = runner_->run(rag::PipelineArm::RagRerank);
  const ArmComparison cmp = compare_arms(baseline, rerank);
  EXPECT_EQ(cmp.degraded, 0u);
  EXPECT_GE(cmp.improved, 20u);
}

TEST_F(RunnerTest, PlainRagImprovesManyDegradesFew) {
  const ArmReport baseline = runner_->run(rag::PipelineArm::Baseline);
  const ArmReport rag_arm = runner_->run(rag::PipelineArm::Rag);
  const ArmComparison cmp = compare_arms(baseline, rag_arm);
  EXPECT_GE(cmp.improved, 15u);
  EXPECT_LE(cmp.degraded, 6u);
  EXPECT_GT(cmp.improved, cmp.degraded * 3);
}

TEST_F(RunnerTest, RerankImprovesOverPlainRagWithBigJumps) {
  const ArmReport rag_arm = runner_->run(rag::PipelineArm::Rag);
  const ArmReport rerank = runner_->run(rag::PipelineArm::RagRerank);
  const ArmComparison cmp = compare_arms(rag_arm, rerank);
  EXPECT_GE(cmp.improved, 3u);
  EXPECT_EQ(cmp.degraded, 0u);
  EXPECT_EQ(cmp.max_gain, 3);  // the paper's "+3 points!" questions
}

TEST_F(RunnerTest, TimingsAreRecorded) {
  const ArmReport rerank = runner_->run(rag::PipelineArm::RagRerank);
  EXPECT_EQ(rerank.rag_times.count(), 37u);
  EXPECT_GT(rerank.rag_times.mean(), 0.0);
  EXPECT_GT(rerank.llm_times.mean(), 1.0);   // seconds (simulated)
  EXPECT_LT(rerank.llm_times.mean(), 30.0);
  // RAG stage is a tiny fraction of LLM latency (paper: < 11%).
  EXPECT_LT(rerank.rag_times.mean(), 0.11 * rerank.llm_times.mean());
}

TEST_F(RunnerTest, RenderersProduceTables) {
  const ArmReport baseline = runner_->run(rag::PipelineArm::Baseline);
  const ArmReport rerank = runner_->run(rag::PipelineArm::RagRerank);
  const std::string table = render_comparison_table(baseline, rerank);
  EXPECT_NE(table.find("improved:"), std::string::npos);
  EXPECT_NE(table.find("Q#"), std::string::npos);
  const std::string dist = render_score_distribution(rerank);
  EXPECT_NE(dist.find("score 4"), std::string::npos);
  EXPECT_NE(dist.find("mean:"), std::string::npos);
}

TEST_F(RunnerTest, KspburbBehaviour) {
  // Baseline fabricates; rerank-RAG refuses with the caveat.
  const std::vector<corpus::BenchmarkQuestion> qs = {
      corpus::kspburb_question()};
  const ArmReport baseline = runner_->run(rag::PipelineArm::Baseline, qs);
  const ArmReport rerank = runner_->run(rag::PipelineArm::RagRerank, qs);
  ASSERT_EQ(baseline.outcomes.size(), 1u);
  EXPECT_LE(baseline.outcomes[0].verdict.score, 1);
  EXPECT_EQ(baseline.outcomes[0].mode, "hallucination");
  EXPECT_GE(rerank.outcomes[0].verdict.score, 3);
  EXPECT_EQ(rerank.outcomes[0].mode, "grounded-caveat");
}

}  // namespace
}  // namespace pkb::eval
