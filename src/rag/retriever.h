#pragma once
// The retrieval phase (§III-B/C/D): embedding search (first pass, K
// candidates) + PETSc keyword augmentation + optional reranking down to L,
// as the stage functions that the stage graph and the replay engine run.
//
// Generational model: every retrieval runs against one pinned Snapshot and
// the result carries that SnapshotPtr, so the contexts' Document pointers
// stay valid even after the knowledge base publishes newer generations.
// The question is analysed once, in embed_stage; the embedder, the symbol
// index and the reranker all read that RetrievalResult::query_analysis.

#include <cstdint>
#include <memory>
#include <string>

#include "rag/knowledge_base.h"
#include "rerank/reranker.h"
#include "resilience/fault_plan.h"

namespace pkb::rag {

/// Retrieval configuration. The paper's setting is K = 8, L = 4.
struct RetrieverOptions {
  std::size_t first_pass_k = 8;  ///< vector-search candidates
  std::size_t final_l = 4;       ///< contexts kept after reranking
  bool use_keyword_search = true;
  /// Reranker registry name; empty disables the rerank stage (plain RAG).
  std::string reranker = "sim-flashrank";
};

/// One retrieved context with provenance. `doc` is `&chunks[row]` of the
/// snapshot pinned by the owning RetrievalResult.
struct RetrievedContext {
  const text::Document* doc = nullptr;
  /// Row of `doc` in the snapshot's chunk list, vector store and chunk
  /// analyses.
  std::size_t row = 0;
  double score = 0.0;
  /// "vector", "keyword", or "vector+keyword" — how the candidate was found.
  std::string via;
  /// Rank in the first pass (0-based; keyword-only candidates rank after all
  /// vector candidates in arrival order).
  std::size_t first_pass_rank = 0;
};

/// Full retrieval outcome with stage timings (feeds Table II).
struct RetrievalResult {
  /// The generation this retrieval ran against. Owning this pointer is what
  /// keeps every `doc` pointer in `contexts` alive across later publishes.
  SnapshotPtr snapshot;
  /// Final contexts, best first. Plain RAG: first-pass order; rerank arm:
  /// rerank order, truncated to L.
  std::vector<RetrievedContext> contexts;
  /// The first-pass candidates before reranking (for the case-study benches
  /// that diff the two arms' context sets).
  std::vector<RetrievedContext> first_pass;
  double embed_seconds = 0.0;    ///< query embedding
  double search_seconds = 0.0;   ///< vector search + keyword lookup
  double rerank_seconds = 0.0;   ///< rerank stage (0 when disabled)
  /// The rerank stage failed (injected fault/timeout) and `contexts` is the
  /// unreranked first-pass order — the first rung of the degradation ladder.
  bool rerank_degraded = false;
  /// The query embedding that produced the first pass (shared so copies of
  /// the result stay cheap). Carried for the record/replay subsystem's
  /// Embed artifact. Null only for an empty (degraded) result.
  std::shared_ptr<const embed::Vector> query_embedding;
  /// The question's analysis, made by embed_stage or seeded by replay along
  /// with query_embedding, and null exactly when query_embedding is.
  std::shared_ptr<const text::QueryAnalysis> query_analysis;
  /// Total RAG processing time (embed + search + rerank).
  [[nodiscard]] double rag_seconds() const {
    return embed_seconds + search_seconds + rerank_seconds;
  }
  /// Generation id of the pinned snapshot (0 when unset).
  [[nodiscard]] std::uint64_t generation() const {
    return snapshot ? snapshot->generation : 0;
  }
};

/// Bound to a KnowledgeBase; owns its reranker. All stage functions are
/// const and safe to call concurrently from many threads: snapshots are
/// immutable and the reranker holds no corpus state — it scores against the
/// pinned snapshot's chunk analyses and term statistics.
class Retriever {
 public:
  Retriever(const KnowledgeBase& kb, RetrieverOptions opts = {});

  [[nodiscard]] const RetrieverOptions& options() const { return opts_; }
  [[nodiscard]] bool reranking_enabled() const {
    return !opts_.reranker.empty();
  }

  // --- stage functions ------------------------------------------------------
  // embed_stage -> search_stage -> augment_stage -> rerank_stage, cut along
  // the stage-graph cut points (rag/stage_graph.h).

  /// Analyse `query` once and embed the analysis against `snap`
  /// (embed_query span, embed_seconds, result.query_analysis,
  /// result.query_embedding).
  void embed_stage(const Snapshot& snap, std::string_view query,
                   RetrievalResult& result) const;

  /// First-pass vector hits for an already-embedded query (vector_search
  /// span, search_seconds). Throws FaultError when the search is lost past
  /// its hedges.
  [[nodiscard]] std::vector<vectordb::SearchResult> search_stage(
      const Snapshot& snap, const embed::Vector& query_vec,
      RetrievalResult& result) const;

  /// Keyword augmentation of result.query_analysis's symbols + candidate
  /// assembly (keyword_augment span, provenance counters); fills
  /// result.first_pass. `query` is unused.
  void augment_stage(const Snapshot& snap, std::string_view query,
                     const std::vector<vectordb::SearchResult>& vector_hits,
                     RetrievalResult& result) const;

  /// Rerank result.first_pass by result.query_analysis down to L into
  /// result.contexts (rerank span; a faulted rerank degrades to first-pass
  /// order), or pass first-pass order through when reranking is disabled.
  /// `query` is unused.
  void rerank_stage(const Snapshot& snap, std::string_view query,
                    RetrievalResult& result) const;

  /// Observe the per-stage latency histograms for a completed retrieval.
  void observe_retrieval_metrics(const RetrievalResult& result) const;

  /// Attach a chaos plan. Vector-search decisions are consulted here (the
  /// snapshot's store is immutable, so the retriever is the injection
  /// point on the serving path) with one hedged re-attempt before the
  /// fault propagates; the plan is also handed to the reranker, whose
  /// rerank faults are caught in rerank_stage and degrade to first-pass
  /// order. Pass nullptr to detach. Setup-time only — must not race
  /// in-flight retrievals.
  void set_fault_plan(const pkb::resilience::FaultPlan* plan);
  [[nodiscard]] const KnowledgeBase& kb() const { return kb_; }

 private:
  /// First-pass vector hits for one query — the snapshot's ANN index when
  /// it has one, the exact scan otherwise — with fault consultation and
  /// hedged re-attempts. Throws a FaultError when the search is lost past
  /// its hedges.
  [[nodiscard]] std::vector<vectordb::SearchResult> first_pass_hits(
      const Snapshot& snap, const embed::Vector& query_vec) const;

  const KnowledgeBase& kb_;
  RetrieverOptions opts_;
  /// Null when reranking is off.
  std::unique_ptr<rerank::Reranker> reranker_;
  const pkb::resilience::FaultPlan* fault_plan_ = nullptr;
};

}  // namespace pkb::rag
