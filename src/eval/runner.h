#pragma once
// Benchmark runner: executes the 37-question Krylov benchmark through a
// pipeline arm, scores every answer with the rubric, and aggregates the
// statistics the paper's figures and Table II report.

#include <string>
#include <vector>

#include "corpus/questions.h"
#include "eval/rubric.h"
#include "rag/workflow.h"
#include "util/stats.h"

namespace pkb::eval {

/// One question's outcome under one arm.
struct QuestionOutcome {
  int question_id = 0;
  std::string question;
  std::string answer;
  std::string mode;  ///< SimLlm internal path (diagnostic)
  RubricVerdict verdict;
  double rag_seconds = 0.0;     ///< measured retrieval(+rerank) wall time
  double rerank_seconds = 0.0;  ///< measured rerank share
  double llm_seconds = 0.0;     ///< simulated LLM latency
  std::vector<std::string> context_ids;
};

/// Everything one arm produced over the benchmark.
struct ArmReport {
  std::string arm;       ///< "baseline" | "rag" | "rag+rerank"
  std::string model;
  std::string embedder;  ///< "" for baseline
  std::string reranker;  ///< "" unless reranking
  std::vector<QuestionOutcome> outcomes;
  pkb::util::Summary scores;
  pkb::util::Summary rag_times;
  pkb::util::Summary llm_times;

  /// Count of outcomes with the given score.
  [[nodiscard]] std::size_t count_with_score(int score) const;
};

/// Pairwise comparison of two arms over the same questions (the content of
/// Figs 6a/6b/6c).
struct ArmComparison {
  std::string from;
  std::string to;
  std::size_t improved = 0;
  std::size_t degraded = 0;
  std::size_t unchanged = 0;
  /// Per-question score delta (to - from), indexed like the outcomes.
  std::vector<int> deltas;
  /// Largest single-question improvement.
  int max_gain = 0;
};

/// Runs arms against one shared database.
class BenchmarkRunner {
 public:
  BenchmarkRunner(const rag::KnowledgeBase& db, llm::LlmConfig model,
                  rag::RetrieverOptions retriever_opts = {});

  /// Run one arm over `questions` (defaults to the 37-question benchmark).
  [[nodiscard]] ArmReport run(
      rag::PipelineArm arm,
      const std::vector<corpus::BenchmarkQuestion>& questions =
          corpus::krylov_benchmark()) const;

  [[nodiscard]] const rag::KnowledgeBase& database() const { return db_; }

 private:
  const rag::KnowledgeBase& db_;
  llm::LlmConfig model_;
  rag::RetrieverOptions retriever_opts_;
};

/// Compare two reports question by question (they must cover the same
/// questions in the same order).
[[nodiscard]] ArmComparison compare_arms(const ArmReport& from,
                                         const ArmReport& to);

/// Render a per-question score table for two arms (the textual equivalent of
/// the Fig 6 bar charts): one row per question, both scores, and the delta.
[[nodiscard]] std::string render_comparison_table(const ArmReport& from,
                                                  const ArmReport& to);

/// Render an arm's score distribution (how many 0s/1s/2s/3s/4s).
[[nodiscard]] std::string render_score_distribution(const ArmReport& report);

}  // namespace pkb::eval
