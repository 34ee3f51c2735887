// The §V-A evaluation methodology, end to end: run questions through two
// pipeline arms, store every interaction in the shared history, hand the
// anonymized, shuffled answers to blind scorers (who cannot see which
// pipeline produced what), record their rubric scores, and only then unblind
// and compare the pipelines.
//
// The "scorers" here are the computable Table-I rubric applied
// independently; with a generated corpus the rubric IS the expert judgment
// (DESIGN.md Sec 1).

#include <cstdio>
#include <map>

#include "corpus/generator.h"
#include "corpus/questions.h"
#include "eval/rubric.h"
#include "rag/workflow.h"
#include "util/stats.h"

int main() {
  using namespace pkb;

  std::printf("=== Blind-review workflow (Sec V-A) ===\n\n");
  const rag::KnowledgeBase db =
      rag::KnowledgeBase::build(corpus::generate_corpus());

  history::HistoryStore store;
  pkb::util::SimClock clock;

  // Phase 1: collect answers from two arms into the shared history.
  const std::size_t n_questions = 10;
  std::map<std::uint64_t, const corpus::BenchmarkQuestion*> key_of;
  for (const rag::PipelineArm arm :
       {rag::PipelineArm::Baseline, rag::PipelineArm::RagRerank}) {
    rag::AugmentedWorkflow workflow(db, arm, llm::model_config("sim-gpt-4o"));
    workflow.attach_history(&store, &clock);
    for (std::size_t i = 0; i < n_questions; ++i) {
      const corpus::BenchmarkQuestion& q = corpus::krylov_benchmark()[i];
      const rag::WorkflowOutcome outcome = workflow.ask(q.question);
      key_of[outcome.history_id] = &q;
    }
  }
  std::printf("phase 1: %zu interactions recorded (%zu questions x 2 "
              "pipelines)\n", store.size(), n_questions);

  // Phase 2: blind scoring. Scorers see shuffled, anonymized items only.
  for (const char* scorer : {"reviewer-A", "reviewer-B"}) {
    const auto batch = store.blind_batch(
        "", pkb::util::seed_from(scorer));  // all pipelines, scorer's order
    for (const history::BlindItem& item : batch) {
      const corpus::BenchmarkQuestion* q = key_of.at(item.record_id);
      const eval::RubricVerdict verdict =
          eval::score_answer(*q, item.response);
      store.record_score(item.record_id,
                         {scorer, verdict.score, verdict.justification});
    }
    std::printf("phase 2: %s scored %zu anonymized answers\n", scorer,
                batch.size());
  }

  // Phase 3: unblind and compare.
  std::printf("\nphase 3: unblinded results\n");
  for (const char* pipeline : {"baseline", "rag+rerank"}) {
    pkb::util::Summary scores;
    for (const history::InteractionRecord* record :
         store.by_pipeline(pipeline)) {
      const auto mean = store.mean_score(record->id);
      if (mean.has_value()) scores.add(*mean);
    }
    std::printf("  %-12s mean rubric score %.2f over %zu answers\n", pipeline,
                scores.mean(), scores.count());
  }

  std::printf("\nthe history database now holds every question, response, "
              "prompt, model, latency, and score — searchable:\n");
  for (const history::InteractionRecord* record : store.search("KSPLSQR")) {
    std::printf("  #%llu [%s] mentions KSPLSQR\n",
                static_cast<unsigned long long>(record->id),
                record->pipeline.c_str());
  }
  return 0;
}
