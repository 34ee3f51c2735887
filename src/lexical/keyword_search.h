#pragma once
// PETSc-specific keyword-search augmentation (§III-C of the paper):
// "Whenever a word in the query has a PETSc manual page associated with it,
//  for example KSPSolve, the manual page is added to the material that RAG
//  has found."
//
// SymbolIndex maps API symbols (exact or fuzzy) found in a query to the
// manual-page documents of the chunked corpus. The query's symbols come from
// its analysis (text::QueryAnalysis::symbols), computed once per request.

#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "text/document.h"

namespace pkb::lexical {

/// One keyword hit: a query symbol resolved to manual-page chunks.
struct KeywordHit {
  std::string symbol;             ///< the symbol as written in the query
  std::string resolved;           ///< the canonical symbol it resolved to
  std::string page;               ///< manual page path
  std::vector<std::size_t> chunks;  ///< chunk indices in the collection
};

/// Maps API symbols to the corpus chunks of their manual pages.
class SymbolIndex {
 public:
  /// `chunks` is the chunked corpus; a chunk belongs to a symbol's page when
  /// its metadata["source"] equals the symbol's manual-page path.
  /// Symbol->page mapping comes from the corpus ApiSpec table.
  explicit SymbolIndex(const std::vector<text::Document>& chunks);

  /// Resolve each of a query's API symbols to manual-page chunks, exactly
  /// or, for a typo, within edit distance 2. Unknown symbols resolve to no
  /// page but are still reported (the LLM needs to know the user asked
  /// about something nonexistent).
  [[nodiscard]] std::vector<KeywordHit> lookup(
      std::span<const std::string> symbols) const;

  /// Number of symbols with at least one chunk.
  [[nodiscard]] std::size_t symbol_count() const { return by_symbol_.size(); }

 private:
  std::unordered_map<std::string, std::vector<std::size_t>> by_symbol_;
};

}  // namespace pkb::lexical
