#pragma once
// Inverted index with BM25 ranking.
//
// Used by the history retriever and the parametric-knowledge lookup, and as
// a lexical baseline in the retrieval benches. The rerankers read the same
// idf from a snapshot's lexical::TermStats instead (lexical/term_stats.h).

#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "text/document.h"

namespace pkb::lexical {

/// One BM25 hit.
struct Bm25Result {
  std::size_t index = 0;  ///< document position in the indexed collection
  double score = 0.0;
  const text::Document* doc = nullptr;
};

/// Immutable-after-build inverted index.
class Bm25Index {
 public:
  /// Index a collection (replaces any previous contents). Documents are
  /// stored by value; the index owns them.
  void build(std::vector<text::Document> docs);

  [[nodiscard]] std::size_t size() const { return docs_.size(); }

  /// Top-k by BM25 (descending; ties by lower index). Query terms absent
  /// from the index contribute nothing.
  [[nodiscard]] std::vector<Bm25Result> search(std::string_view query,
                                               std::size_t k) const;

  /// Smoothed IDF of a term under the BM25 formula (0 when unknown).
  [[nodiscard]] double idf(std::string_view term) const;

 private:
  struct Posting {
    std::size_t doc = 0;
    std::uint32_t tf = 0;
  };

  [[nodiscard]] double score_posting(double idf, double tf,
                                     double doc_len) const;

  std::vector<text::Document> docs_;
  std::vector<double> doc_len_;
  double avg_len_ = 0.0;
  std::unordered_map<std::string, std::vector<Posting>> postings_;
};

}  // namespace pkb::lexical
