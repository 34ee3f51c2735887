#pragma once
// Reranking-enhanced retrieval (§III-D, Fig 4 of the paper).
//
// The first-pass retriever returns K candidates quickly; the reranker
// re-scores each (query, document) pair with a more expensive model and
// keeps the best L. We provide two rerankers mirroring the paper's pair:
//
//  * FlashRanker       — the Flashrank analogue: lightweight CPU scoring
//                        (IDF-weighted term coverage + exact-symbol and
//                        bigram bonuses + BM25). Fast: one pass over each
//                        candidate's lowercased text counts every query
//                        term and bigram.
//  * CrossScoreReranker — the NVIDIA-reranker analogue: a cross-attention-
//                        style alignment score computed over all (query
//                        term, document term) pairs with positional
//                        proximity weighting. More expensive per pair,
//                        similar accuracy on this corpus (reproduced by
//                        bench/reranker_comparison).

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "lexical/term_stats.h"
#include "resilience/fault_plan.h"
#include "text/analysis.h"
#include "text/document.h"

namespace pkb::rerank {

/// A first-pass candidate entering the reranker.
struct RerankCandidate {
  const text::Document* doc = nullptr;
  /// Row of `doc` in the generation's chunk list: its analysis is
  /// CorpusAnalysis::chunks[row].
  std::size_t row = 0;
  /// First-pass (embedding or keyword) score, informational only.
  float retrieval_score = 0.0f;
};

/// A reranked document.
struct RerankResult {
  const text::Document* doc = nullptr;
  double score = 0.0;
  /// Position in the candidate list before reranking (0-based).
  std::size_t original_rank = 0;
};

/// Common interface. A reranker holds no corpus state and runs no token
/// rule: it builds its per-query plan from the request's query analysis
/// (made once, in the Embed stage), then scores each candidate against its
/// chunk analysis and the term statistics (IDF) of the caller's pinned
/// generation.
class Reranker {
 public:
  virtual ~Reranker() = default;

  [[nodiscard]] virtual std::string name() const = 0;

  /// Score and reorder; returns min(top_l, candidates.size()) results,
  /// descending score, ties broken by original rank. Deterministic. Consults
  /// the fault plan first; a call that returns records
  /// pkb_rerank_requests_total, pkb_rerank_candidates_total and
  /// pkb_rerank_seconds, labelled `reranker`.
  [[nodiscard]] std::vector<RerankResult> rerank(
      const text::QueryAnalysis& query, const lexical::CorpusAnalysis& corpus,
      const std::vector<RerankCandidate>& candidates,
      std::size_t top_l) const;

  /// The score of each candidate, in candidate order.
  [[nodiscard]] virtual std::vector<double> score(
      const text::QueryAnalysis& query, const lexical::CorpusAnalysis& corpus,
      const std::vector<RerankCandidate>& candidates) const = 0;

  /// Attach a chaos plan consulted (Stage::Rerank) at each rerank() entry:
  /// error/timeout decisions throw the matching resilience::FaultError,
  /// which the retrieval layer catches to fall back to first-pass order.
  /// Setup-time only — must not race in-flight rerank() calls.
  void set_fault_plan(const pkb::resilience::FaultPlan* plan) {
    fault_plan_ = plan;
  }

 private:
  const pkb::resilience::FaultPlan* fault_plan_ = nullptr;
};

/// Registry: "sim-flashrank" or "sim-nv-cross". Throws on unknown names.
[[nodiscard]] std::unique_ptr<Reranker> make_reranker(std::string_view name);

/// All registry names.
[[nodiscard]] std::vector<std::string> reranker_registry();

}  // namespace pkb::rerank
