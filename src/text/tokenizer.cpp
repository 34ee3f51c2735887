#include "text/tokenizer.h"

#include <algorithm>
#include <cctype>
#include <limits>
#include <stdexcept>
#include <unordered_set>

#include "util/strings.h"

namespace pkb::text {

namespace {

bool is_symbol_char(char c) {
  return pkb::util::is_ident_char(c) || c == '-';
}

bool has_interior_upper(std::string_view tok) {
  for (std::size_t i = 1; i < tok.size(); ++i) {
    if (tok[i] >= 'A' && tok[i] <= 'Z') return true;
  }
  return false;
}

bool has_lower(std::string_view tok) {
  return std::any_of(tok.begin(), tok.end(),
                     [](char c) { return c >= 'a' && c <= 'z'; });
}

bool all_upper_or_digit(std::string_view tok) {
  return std::all_of(tok.begin(), tok.end(), [](char c) {
    return (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') || c == '_';
  });
}

/// The one definition of a token: calls `emit(offset, raw)` for every token
/// of `s` in order, where `raw` is the original-case token and `offset` its
/// position in `s`.
template <typename Emit>
void for_each_token(std::string_view s, Emit&& emit) {
  std::size_t i = 0;
  while (i < s.size()) {
    while (i < s.size() && !is_symbol_char(s[i])) ++i;
    std::size_t start = i;
    while (i < s.size() && is_symbol_char(s[i])) ++i;
    if (i == start) continue;
    // Strip leading '-' runs that are prose dashes (e.g. "--" separators) but
    // keep a single '-' when it forms a plausible runtime option.
    while (i - start > 1 && s[start] == '-' && s[start + 1] == '-') ++start;
    std::string_view raw = s.substr(start, i - start);
    if (raw == "-") continue;
    emit(start, raw);
  }
}

/// Appends the span of every token of `s` to `spans`.
void append_token_spans(std::string_view s,
                        std::vector<TextAnalysis::Span>& spans) {
  if (s.size() > std::numeric_limits<std::uint32_t>::max()) {
    throw std::length_error("analyze: text longer than a span can address");
  }
  for_each_token(s, [&](std::size_t offset, std::string_view raw) {
    spans.push_back(TextAnalysis::Span{
        static_cast<std::uint32_t>(offset),
        static_cast<std::uint32_t>(raw.size())});
  });
}

/// Sorts `spans` of `lower` by their text and drops repeats.
void sort_distinct(std::string_view lower,
                   std::vector<TextAnalysis::Span>& spans) {
  const auto view = [&](TextAnalysis::Span a) {
    return lower.substr(a.offset, a.size);
  };
  std::sort(spans.begin(), spans.end(),
            [&](TextAnalysis::Span a, TextAnalysis::Span b) {
              return view(a) < view(b);
            });
  spans.erase(std::unique(spans.begin(), spans.end(),
                          [&](TextAnalysis::Span a, TextAnalysis::Span b) {
                            return view(a) == view(b);
                          }),
              spans.end());
}

/// The lowercased text, token spans and distinct-term spans of `text`.
TextAnalysis analyze_text(std::string_view text) {
  TextAnalysis out;
  out.lower = pkb::util::to_lower(text);
  // The token rule ignores case, so tokenizing `lower` gives the spans of
  // the raw tokens. Spans are collected in a scratch vector so the analysis
  // keeps exact-size arrays.
  std::vector<TextAnalysis::Span> spans;
  append_token_spans(out.lower, spans);
  out.tokens.assign(spans.begin(), spans.end());
  sort_distinct(out.lower, spans);
  out.terms.assign(spans.begin(), spans.end());
  return out;
}

}  // namespace

bool looks_like_symbol(std::string_view tok) {
  if (tok.size() < 3) return false;
  // Product/project names that match the CamelCase pattern but are not API
  // entities.
  static constexpr std::string_view kNotSymbols[] = {
      "PETSc", "PETSC", "MPI_Comm", "LangChain", "ChatGPT", "OpenAI",
      "GitLab", "GitHub", "JavaScript", "BiCGStab", "BiCG", "Gram-Schmidt",
      "Golub-Kahan", "Eisenstat-Walker", "Runge-Kutta", "Gauss-Seidel",
      "Newton-Krylov", "Lanczos"};
  for (std::string_view ns : kNotSymbols) {
    if (tok == ns) return false;
  }
  // A symbol is a single identifier-like token: no spaces or punctuation
  // beyond '-' and '_' (callers sometimes pass whole titles).
  for (char c : tok) {
    if (!pkb::util::is_ident_char(c) && c != '-') return false;
  }
  // Runtime option: -ksp_type, -pc_type, -info ...
  if (tok[0] == '-' && tok.size() >= 4) {
    const std::string_view body = tok.substr(1);
    return std::all_of(body.begin(), body.end(), [](char c) {
      return (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c == '_';
    });
  }
  if (!((tok[0] >= 'A' && tok[0] <= 'Z'))) return false;
  // ALLCAPS identifier (KSPGMRES, MATAIJ) of length >= 4.
  if (all_upper_or_digit(tok) && tok.size() >= 4) return true;
  // CamelCase with interior capital and some lowercase (KSPSolve, MatSetValues).
  return has_interior_upper(tok) && has_lower(tok);
}

TokenizedText tokenize(std::string_view s) {
  QueryAnalysis a = analyze(s);
  TokenizedText out{{}, std::move(a.symbols)};
  out.tokens.reserve(a.tokens.size());
  for (const TextAnalysis::Span t : a.tokens) out.tokens.emplace_back(a.view(t));
  return out;
}

TextAnalysis analyze(const Document& doc) {
  TextAnalysis out = analyze_text(doc.text);
  out.title = pkb::util::to_lower(doc.meta("title"));
  return out;
}

QueryAnalysis analyze(std::string_view query) {
  QueryAnalysis out{analyze_text(query), {}};
  // tokenize()'s symbol rule, on each token's span of the original text.
  for (const TextAnalysis::Span tok : out.tokens) {
    const std::string_view raw = query.substr(tok.offset, tok.size);
    if (looks_like_symbol(raw) &&
        std::find(out.symbols.begin(), out.symbols.end(), raw) ==
            out.symbols.end()) {
      out.symbols.emplace_back(raw);
    }
  }
  return out;
}

bool TextAnalysis::has_term(std::string_view term) const {
  const auto it = std::lower_bound(
      terms.begin(), terms.end(), term,
      [&](Span a, std::string_view t) { return view(a) < t; });
  return it != terms.end() && view(*it) == term;
}

std::vector<std::string> tokens_of(std::string_view s) {
  std::vector<std::string> out;
  for_each_token(s, [&](std::size_t, std::string_view raw) {
    out.push_back(pkb::util::to_lower(raw));
  });
  return out;
}

void term_spans(std::string_view lower,
                std::vector<TextAnalysis::Span>& out) {
  out.clear();
  append_token_spans(lower, out);
  sort_distinct(lower, out);
}

std::vector<std::string_view> split_sentences(std::string_view s) {
  std::vector<std::string_view> out;
  std::size_t start = 0;
  auto is_abbrev_before = [&](std::size_t dot) {
    // Guard "e.g." / "i.e." / "cf." / single-letter initials.
    if (dot >= 1 && dot + 1 < s.size() && s[dot + 1] == 'g') return true;
    static constexpr std::string_view kAbbrevs[] = {"e.g", "i.e", "cf",
                                                    "etc", "vs", "Fig",
                                                    "fig", "Eq", "eq"};
    for (std::string_view a : kAbbrevs) {
      if (dot >= a.size() && s.substr(dot - a.size(), a.size()) == a) {
        return true;
      }
    }
    return false;
  };
  for (std::size_t i = 0; i < s.size(); ++i) {
    const char c = s[i];
    if (c != '.' && c != '?' && c != '!') continue;
    if (c == '.' && is_abbrev_before(i)) continue;
    // Sentence end requires whitespace next (or end of text).
    std::size_t j = i + 1;
    if (j < s.size() && s[j] != ' ' && s[j] != '\n' && s[j] != '\t') continue;
    std::string_view sent = pkb::util::trim(s.substr(start, i + 1 - start));
    if (!sent.empty()) out.push_back(sent);
    while (j < s.size() && (s[j] == ' ' || s[j] == '\n' || s[j] == '\t')) ++j;
    start = j;
    i = j - 1;
  }
  std::string_view tail = pkb::util::trim(s.substr(start));
  if (!tail.empty()) out.push_back(tail);
  return out;
}

const std::unordered_set<std::string_view>& stopwords() {
  static const std::unordered_set<std::string_view> kStopwords = {
      "a",    "an",   "and",  "are",  "as",   "at",   "be",    "but",
      "by",   "can",  "do",   "does", "for",  "from", "has",   "have",
      "how",  "i",    "if",   "in",   "is",   "it",   "its",   "may",
      "must", "not",  "of",   "on",   "or",   "so",   "such",  "that",
      "the",  "then", "there", "these", "this", "to",  "was",  "we",
      "what", "when", "where", "which", "will", "with", "you",  "your"};
  return kStopwords;
}

std::size_t approx_llm_tokens(std::string_view s) {
  const std::size_t words = pkb::util::count_words(s);
  return static_cast<std::size_t>(static_cast<double>(words) * 1.33) + 1;
}

}  // namespace pkb::text
