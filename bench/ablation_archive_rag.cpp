// Extension ablation (the paper's stated future work): add the petsc-users
// mailing-list archive to the RAG corpus and measure the effect on the
// 37-question benchmark.
//
// Paper: "In this study we targeted petsc-users but didn't touch its
// archives for RAG" and "We also want to incorporate additional information
// as part of PETSc-specific RAG." This bench quantifies that step: archive
// threads are informal restatements of manual facts in user phrasing, so
// they mainly add recall for terminology-mismatch questions — at the cost
// of more candidates competing for the attention window.
#include "bench_common.h"

int main() {
  using namespace pkb;

  std::printf("=== Ablation: mailing-list archive in the RAG corpus ===\n\n");
  std::printf("%-28s %10s %10s %10s %8s\n", "corpus", "baseline", "rag",
              "rag+rerank", "chunks");

  for (const bool with_archive : {false, true}) {
    corpus::CorpusOptions copts;
    copts.include_mailing_list_archive = with_archive;
    const text::VirtualDir tree = corpus::generate_corpus(copts);
    const rag::KnowledgeBase db = rag::KnowledgeBase::build(tree);
    const eval::BenchmarkRunner runner(db, llm::model_config("sim-gpt-4o"),
                                       rag::RetrieverOptions{});
    const double baseline =
        runner.run(rag::PipelineArm::Baseline).scores.mean();
    const double rag_mean = runner.run(rag::PipelineArm::Rag).scores.mean();
    const double rerank_mean =
        runner.run(rag::PipelineArm::RagRerank).scores.mean();
    std::printf("%-28s %10.2f %10.2f %10.2f %8zu\n",
                with_archive ? "docs + petsc-users archive" : "docs only",
                baseline, rag_mean, rerank_mean,
                db.snapshot()->chunks.size());
  }
  std::printf("\n(The baseline arm ignores the corpus; its column is a "
              "sanity check that only retrieval changes.)\n");
  return 0;
}
