#pragma once
// Shared-history retrieval — the dotted blue arrow of Fig 3: "material from
// the shared history will also eventually be included in the RAG and
// reranking processing and passed to the LLM."
//
// Vetted past interactions (mean blind-review score >= 3, or unscored
// answers written by human developers) become retrievable context: when a
// similar question arrives, the best past Q&A pairs are appended to the
// LLM's context list. This is how the system gets better from its own reviewed
// outputs without retraining anything.

#include <string>
#include <string_view>
#include <vector>

#include "history/store.h"
#include "lexical/bm25.h"
#include "llm/types.h"

namespace pkb::rag {

/// Indexes the vetted subset of a HistoryStore
/// (HistoryStore::vetted_records, the same rule ingestion uses) for
/// question-similarity lookup. Call refresh() after the store changes.
class HistoryRetriever {
 public:
  /// The store must outlive the retriever.
  explicit HistoryRetriever(const history::HistoryStore* store);

  /// Rebuild the index over the currently vetted records.
  void refresh();

  /// Ids of the vetted records currently indexed, in store order.
  [[nodiscard]] const std::vector<std::uint64_t>& record_ids() const {
    return record_ids_;
  }

  /// Past Q&A contexts relevant to `question` (at most two, each with BM25
  /// relevance >= 1), best first. Context ids are
  /// "history#<record-id>"; the text is "Q: ...\nVetted answer: ...".
  [[nodiscard]] std::vector<llm::ContextDoc> lookup(
      std::string_view question) const;

 private:
  const history::HistoryStore* store_;
  lexical::Bm25Index index_;
  std::vector<std::uint64_t> record_ids_;  ///< parallel to index docs
};

}  // namespace pkb::rag
