#include "eval/runner.h"

#include <cstdio>

#include "util/strings.h"

namespace pkb::eval {

std::size_t ArmReport::count_with_score(int score) const {
  std::size_t n = 0;
  for (const QuestionOutcome& o : outcomes) {
    if (o.verdict.score == score) ++n;
  }
  return n;
}

BenchmarkRunner::BenchmarkRunner(const rag::KnowledgeBase& db,
                                 llm::LlmConfig model,
                                 rag::RetrieverOptions retriever_opts)
    : db_(db), model_(std::move(model)),
      retriever_opts_(std::move(retriever_opts)) {}

ArmReport BenchmarkRunner::run(
    rag::PipelineArm arm,
    const std::vector<corpus::BenchmarkQuestion>& questions) const {
  ArmReport report;
  report.arm = std::string(rag::to_string(arm));
  report.model = model_.name;
  if (arm != rag::PipelineArm::Baseline) {
    report.embedder = db_.snapshot()->embedder->name();
    if (arm == rag::PipelineArm::RagRerank) {
      report.reranker = retriever_opts_.reranker;
    }
  }

  const rag::AugmentedWorkflow workflow(db_, arm, model_, retriever_opts_);
  for (const corpus::BenchmarkQuestion& q : questions) {
    const rag::WorkflowOutcome outcome = workflow.ask(q.question);
    QuestionOutcome result;
    result.question_id = q.id;
    result.question = q.question;
    result.answer = outcome.response.text;
    result.mode = outcome.response.mode;
    result.verdict = score_answer(q, outcome.response.text);
    result.rag_seconds = outcome.retrieval.rag_seconds();
    result.rerank_seconds = outcome.retrieval.rerank_seconds;
    result.llm_seconds = outcome.response.latency_seconds;
    for (const auto& ctx : outcome.retrieval.contexts) {
      result.context_ids.push_back(ctx.doc->id);
    }
    report.scores.add(result.verdict.score);
    if (arm != rag::PipelineArm::Baseline) {
      report.rag_times.add(result.rag_seconds);
    }
    report.llm_times.add(result.llm_seconds);
    report.outcomes.push_back(std::move(result));
  }
  return report;
}

ArmComparison compare_arms(const ArmReport& from, const ArmReport& to) {
  ArmComparison cmp;
  cmp.from = from.arm;
  cmp.to = to.arm;
  const std::size_t n = std::min(from.outcomes.size(), to.outcomes.size());
  for (std::size_t i = 0; i < n; ++i) {
    const int delta =
        to.outcomes[i].verdict.score - from.outcomes[i].verdict.score;
    cmp.deltas.push_back(delta);
    if (delta > 0) {
      ++cmp.improved;
      cmp.max_gain = std::max(cmp.max_gain, delta);
    } else if (delta < 0) {
      ++cmp.degraded;
    } else {
      ++cmp.unchanged;
    }
  }
  return cmp;
}

std::string render_comparison_table(const ArmReport& from,
                                    const ArmReport& to) {
  std::string out;
  char line[160];
  std::snprintf(line, sizeof line, "%4s  %-12s %-12s %6s   %s\n", "Q#",
                from.arm.c_str(), to.arm.c_str(), "delta", "question");
  out += line;
  const std::size_t n = std::min(from.outcomes.size(), to.outcomes.size());
  for (std::size_t i = 0; i < n; ++i) {
    const int a = from.outcomes[i].verdict.score;
    const int b = to.outcomes[i].verdict.score;
    std::snprintf(line, sizeof line, "%4d  %-12d %-12d %+6d   %s\n",
                  from.outcomes[i].question_id, a, b, b - a,
                  pkb::util::ellipsize(from.outcomes[i].question, 58).c_str());
    out += line;
  }
  const ArmComparison cmp = compare_arms(from, to);
  std::snprintf(line, sizeof line,
                "improved: %zu   degraded: %zu   unchanged: %zu   "
                "max gain: +%d\n",
                cmp.improved, cmp.degraded, cmp.unchanged, cmp.max_gain);
  out += line;
  return out;
}

std::string render_score_distribution(const ArmReport& report) {
  std::string out = report.arm + " (" + report.model;
  if (!report.embedder.empty()) out += ", " + report.embedder;
  if (!report.reranker.empty()) out += ", " + report.reranker;
  out += ")\n";
  for (int score = 4; score >= 0; --score) {
    const std::size_t count = report.count_with_score(score);
    out += "  score " + std::to_string(score) + ": " +
           pkb::util::repeat("#", count) + "  (" + std::to_string(count) +
           ")\n";
  }
  out += "  mean: " + pkb::util::format_double(report.scores.mean(), 2) + "\n";
  return out;
}

}  // namespace pkb::eval
