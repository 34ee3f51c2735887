// Quickstart: build the PETSc knowledge-base RAG database, ask one question
// through the full reranking-enhanced pipeline, and print the answer with
// its sources — the minimal end-to-end use of the library.
//
// Usage: example_quickstart ["your question about PETSc Krylov solvers"]

#include <cstdio>
#include <string>

#include "corpus/generator.h"
#include "rag/workflow.h"

int main(int argc, char** argv) {
  const std::string question =
      argc > 1 ? argv[1]
               : "Can I use KSP to solve a system where the matrix is not "
                 "square, only rectangular?";

  // 1) Generate the knowledge base (in the paper: the PETSc docs tree).
  const pkb::text::VirtualDir corpus = pkb::corpus::generate_corpus();

  // 2) Build the RAG database: load -> chunk -> embed -> index (Fig 3,
  //    "Generating the RAG databases").
  const pkb::rag::KnowledgeBase db = pkb::rag::KnowledgeBase::build(corpus);
  const pkb::rag::SnapshotPtr snap = db.snapshot();
  std::printf("knowledge base: %zu documents -> %zu chunks (embedder %s)\n\n",
              snap->source_count, snap->chunks.size(),
              snap->embedder->name().c_str());

  // 3) Assemble the augmented workflow: retrieval (K=8) + keyword search +
  //    reranking (L=4) + LLM + postprocessing (Fig 3, boxes 1-4).
  const pkb::rag::AugmentedWorkflow workflow(
      db, pkb::rag::PipelineArm::RagRerank,
      pkb::llm::model_config("sim-gpt-4o"));

  // 4) Ask.
  const pkb::rag::WorkflowOutcome outcome = workflow.ask(question);

  std::printf("Q: %s\n\nA: %s\n\n", question.c_str(),
              outcome.response.text.c_str());
  std::printf("retrieved contexts:\n");
  for (const auto& ctx : outcome.retrieval.contexts) {
    std::printf("  %-48s via %-8s score %.3f\n", ctx.doc->id.c_str(),
                ctx.via.c_str(), ctx.score);
  }
  std::printf("\nretrieval %.1f ms (rerank %.1f ms) | simulated LLM latency "
              "%.1f s | mode %s\n",
              outcome.retrieval.rag_seconds() * 1e3,
              outcome.retrieval.rerank_seconds * 1e3,
              outcome.response.latency_seconds,
              outcome.response.mode.c_str());
  return 0;
}
