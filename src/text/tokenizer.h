#pragma once
// Code-aware tokenization for scientific-software text.
//
// PETSc questions and docs are full of API symbols (`KSPSetType`), runtime
// options (`-ksp_monitor_true_residual`), and file paths. The tokenizer keeps
// these intact as single tokens, because they carry most of the retrieval
// signal; ordinary prose is lowercased and split on non-identifier characters.

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_set>
#include <vector>

#include "text/document.h"

namespace pkb::text {

/// Result of tokenizing: the flat token stream plus the API-ish symbols that
/// were seen (original case, deduplicated, in first-appearance order).
struct TokenizedText {
  std::vector<std::string> tokens;
  std::vector<std::string> symbols;
};

/// Tokenize `s`. Every token is lowercased (API symbols keep their case in
/// `symbols`) so query/doc matching is case-insensitive; stopwords stay in
/// the stream.
[[nodiscard]] TokenizedText tokenize(std::string_view s);

/// Convenience: just the token stream.
[[nodiscard]] std::vector<std::string> tokens_of(std::string_view s);

/// A document analysed once, for scoring it against many queries: its
/// lowercased text, its token stream and its distinct terms (both as spans
/// of `lower`), and its lowercased title. Token i equals tokens_of(text)[i].
struct TextAnalysis {
  struct Span {
    std::uint32_t offset = 0;
    std::uint32_t size = 0;
  };
  std::string lower;         ///< to_lower(doc.text)
  std::vector<Span> tokens;  ///< the token stream, in text order
  std::vector<Span> terms;   ///< the distinct tokens, sorted
  std::string title;         ///< to_lower(doc.meta("title"))

  [[nodiscard]] std::string_view view(Span s) const {
    return std::string_view(lower).substr(s.offset, s.size);
  }
  /// True if `term` is one of the document's tokens (binary search).
  [[nodiscard]] bool has_term(std::string_view term) const;
};

/// Analyse `doc` with the same token rule as tokenize().
[[nodiscard]] TextAnalysis analyze(const Document& doc);

/// True if `tok` looks like an API symbol: CamelCase with an internal capital
/// (KSPSolve), an ALLCAPS-prefixed identifier (KSPGMRES), or a runtime option
/// (-ksp_type).
[[nodiscard]] bool looks_like_symbol(std::string_view tok);

/// Split a string into sentences (period/question/exclamation followed by
/// whitespace + capital, with abbreviation guards like "e.g.").
[[nodiscard]] std::vector<std::string_view> split_sentences(std::string_view s);

/// The built-in English stopword set.
[[nodiscard]] const std::unordered_set<std::string>& stopwords();

/// Rough word-piece count used by the LLM latency model: whitespace tokens
/// times an empirical 1.33 subword expansion factor.
[[nodiscard]] std::size_t approx_llm_tokens(std::string_view s);

}  // namespace pkb::text
