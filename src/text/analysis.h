#pragma once
// Analysed text, the one token stream retrieval reads: each chunk analysed
// once per snapshot (lexical::CorpusAnalysis), each question once per
// request (QueryAnalysis, in the Embed stage). Defined in tokenizer.cpp,
// next to the token rule.

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_set>
#include <vector>

#include "text/document.h"

namespace pkb::text {

/// A text analysed once, for embedding and scoring: its lowercased text,
/// its token stream and its distinct terms (both as spans of `lower`), and
/// its lowercased title (empty for a query). Token i equals
/// tokens_of(text)[i]. to_lower maps byte for byte, so a span also indexes
/// the original text.
struct TextAnalysis {
  struct Span {
    std::uint32_t offset = 0;
    std::uint32_t size = 0;
  };
  std::string lower;         ///< to_lower(text)
  std::vector<Span> tokens;  ///< the token stream, in text order
  std::vector<Span> terms;   ///< the distinct tokens, sorted
  std::string title;         ///< to_lower(doc.meta("title"))

  [[nodiscard]] std::string_view view(Span s) const {
    return std::string_view(lower).substr(s.offset, s.size);
  }
  /// True if `term` is one of the document's tokens (binary search).
  [[nodiscard]] bool has_term(std::string_view term) const;
};

/// A request's question analysed once: its TextAnalysis (no title) and its
/// API symbols as tokenize() reports them (original case, deduplicated, in
/// first-appearance order). Chunk analyses carry no symbols.
struct QueryAnalysis : TextAnalysis {
  std::vector<std::string> symbols;
};

/// Shared analyses, one per chunk of a generation.
using AnalysisPtr = std::shared_ptr<const TextAnalysis>;
using Analyses = std::vector<AnalysisPtr>;

/// Analyse `doc` with the same token rule as tokenize().
[[nodiscard]] TextAnalysis analyze(const Document& doc);

/// Analyse a query (a text with no title), symbols included.
[[nodiscard]] QueryAnalysis analyze(std::string_view query);

/// The built-in English stopword set.
[[nodiscard]] const std::unordered_set<std::string_view>& stopwords();

}  // namespace pkb::text
