#pragma once
// Code-aware tokenization for scientific-software text.
//
// PETSc questions and docs are full of API symbols (`KSPSetType`), runtime
// options (`-ksp_monitor_true_residual`), and file paths. The tokenizer keeps
// these intact as single tokens, because they carry most of the retrieval
// signal; ordinary prose is lowercased and split on non-identifier characters.
//
// Retrieval does not call tokenize(): it reads text::TextAnalysis
// (text/analysis.h), the same token rule applied once per chunk and once
// per request's question (QueryAnalysis). tokenize() serves the simulated
// LLM's parametric memory, the rubric and the post-processor, whose inputs
// are plain text.

#include <string>
#include <string_view>
#include <vector>

#include "text/analysis.h"

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

/// The distinct tokens of `lower`, an already lowercased text, as sorted
/// spans of it: analyze(text).terms when to_lower(text) == lower. The token
/// rule ignores case, so the spans are also those of the original text.
/// Overwrites `out`, keeping its capacity.
void term_spans(std::string_view lower, std::vector<TextAnalysis::Span>& out);

/// True if `tok` looks like an API symbol: CamelCase with an internal capital
/// (KSPSolve), an ALLCAPS-prefixed identifier (KSPGMRES), or a runtime option
/// (-ksp_type).
[[nodiscard]] bool looks_like_symbol(std::string_view tok);

/// Split a string into sentences (period/question/exclamation followed by
/// whitespace + capital, with abbreviation guards like "e.g.").
[[nodiscard]] std::vector<std::string_view> split_sentences(std::string_view s);

/// Rough word-piece count used by the LLM latency model: whitespace tokens
/// times an empirical 1.33 subword expansion factor.
[[nodiscard]] std::size_t approx_llm_tokens(std::string_view s);

}  // namespace pkb::text
