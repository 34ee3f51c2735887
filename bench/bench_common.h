#pragma once
// Shared setup for the figure/table reproduction benches: build the corpus
// and the RAG database once with the paper's headline configuration
// (GPT-4o-analogue model, text-embedding-3-large-analogue blend embedding,
// Flashrank-analogue reranker, K=8 -> L=4).

#include <cstdio>
#include <memory>
#include <string>

#include "corpus/generator.h"
#include "corpus/questions.h"
#include "eval/runner.h"
#include "rag/workflow.h"

namespace pkb::bench {

struct Setup {
  text::VirtualDir corpus;
  std::unique_ptr<rag::KnowledgeBase> db;
  llm::LlmConfig model;
  rag::RetrieverOptions retriever;

  [[nodiscard]] eval::BenchmarkRunner runner() const {
    return eval::BenchmarkRunner(*db, model, retriever);
  }
};

/// Build the headline configuration (quietly).
inline Setup make_setup(const std::string& embedder = "sim-embed-3-large",
                        const std::string& model = "sim-gpt-4o",
                        const std::string& reranker = "sim-flashrank") {
  Setup s;
  s.corpus = corpus::generate_corpus();
  rag::KnowledgeBaseOptions db_opts;
  db_opts.embedder = embedder;
  s.db = std::make_unique<rag::KnowledgeBase>(
      rag::KnowledgeBase::build(s.corpus, db_opts));
  s.model = llm::model_config(model);
  s.retriever.reranker = reranker;
  return s;
}

inline void print_header(const char* what, const Setup& s) {
  const rag::SnapshotPtr snap = s.db->snapshot();
  std::printf("=== %s ===\n", what);
  std::printf("corpus: %zu documents, %zu chunks | embedder %s | model %s | "
              "reranker %s | K=%zu L=%zu\n\n",
              snap->source_count, snap->chunks.size(),
              snap->embedder->name().c_str(), s.model.name.c_str(),
              s.retriever.reranker.c_str(), s.retriever.first_pass_k,
              s.retriever.final_l);
}

}  // namespace pkb::bench
