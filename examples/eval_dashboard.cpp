// Example: run the three pipeline arms (baseline / RAG / rerank-enhanced
// RAG) over the 37-question Krylov benchmark and print a score dashboard
// with per-question rubric verdicts — the blind-review workflow of §V-A,
// fully automated.
//
// Usage: example_eval_dashboard [--model sim-gpt-4o] [--embedder sim-lsa-96]
//                               [--verbose]

#include <cstdio>
#include <cstring>
#include <string>

#include "corpus/generator.h"
#include "eval/runner.h"
#include "util/strings.h"

int main(int argc, char** argv) {
  std::string model = "sim-gpt-4o";
  std::string embedder = "sim-embed-3-large";
  std::string reranker = "sim-flashrank";
  bool verbose = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--model") == 0 && i + 1 < argc) {
      model = argv[++i];
    } else if (std::strcmp(argv[i], "--embedder") == 0 && i + 1 < argc) {
      embedder = argv[++i];
    } else if (std::strcmp(argv[i], "--reranker") == 0 && i + 1 < argc) {
      reranker = argv[++i];
    } else if (std::strcmp(argv[i], "--verbose") == 0) {
      verbose = true;
    }
  }

  std::printf("Building the PETSc knowledge base corpus...\n");
  const pkb::text::VirtualDir corpus = pkb::corpus::generate_corpus();
  pkb::rag::KnowledgeBaseOptions db_opts;
  db_opts.embedder = embedder;
  const pkb::rag::KnowledgeBase db =
      pkb::rag::KnowledgeBase::build(corpus, db_opts);
  const pkb::rag::SnapshotPtr snap = db.snapshot();
  std::printf("  %zu source documents -> %zu chunks (embedder %s)\n\n",
              snap->source_count, snap->chunks.size(),
              snap->embedder->name().c_str());

  pkb::rag::RetrieverOptions retriever_opts;
  retriever_opts.reranker = reranker;
  const pkb::eval::BenchmarkRunner runner(db, pkb::llm::model_config(model),
                                          retriever_opts);
  const auto baseline = runner.run(pkb::rag::PipelineArm::Baseline);
  const auto rag = runner.run(pkb::rag::PipelineArm::Rag);
  const auto rerank = runner.run(pkb::rag::PipelineArm::RagRerank);

  std::printf("%s\n", pkb::eval::render_score_distribution(baseline).c_str());
  std::printf("%s\n", pkb::eval::render_score_distribution(rag).c_str());
  std::printf("%s\n", pkb::eval::render_score_distribution(rerank).c_str());

  std::printf("--- baseline vs RAG (Fig 6a) ---\n%s\n",
              pkb::eval::render_comparison_table(baseline, rag).c_str());
  std::printf("--- baseline vs rerank-RAG (Fig 6b) ---\n%s\n",
              pkb::eval::render_comparison_table(baseline, rerank).c_str());
  std::printf("--- RAG vs rerank-RAG (Fig 6c) ---\n%s\n",
              pkb::eval::render_comparison_table(rag, rerank).c_str());

  if (verbose) {
    for (std::size_t i = 0; i < rerank.outcomes.size(); ++i) {
      const auto& b = baseline.outcomes[i];
      const auto& r = rag.outcomes[i];
      const auto& rr = rerank.outcomes[i];
      std::printf("Q%-3d [%d/%d/%d] %s\n", b.question_id, b.verdict.score,
                  r.verdict.score, rr.verdict.score, b.question.c_str());
      std::printf("  baseline(%s): %s\n", b.mode.c_str(),
                  pkb::util::ellipsize(b.answer, 140).c_str());
      std::printf("  rag(%s): %s\n", r.mode.c_str(),
                  pkb::util::ellipsize(r.answer, 140).c_str());
      std::printf("    ctx:");
      for (const auto& id : r.context_ids) std::printf(" %s", id.c_str());
      std::printf("\n  rerank(%s): %s\n", rr.mode.c_str(),
                  pkb::util::ellipsize(rr.answer, 140).c_str());
      std::printf("    ctx:");
      for (const auto& id : rr.context_ids) std::printf(" %s", id.c_str());
      std::printf("\n    verdict: %s\n", rr.verdict.justification.c_str());
    }
  }
  return 0;
}
