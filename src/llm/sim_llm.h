#pragma once
// The simulated LLM.
//
// SimLlm implements, explicitly and deterministically, the mechanisms that
// the paper's phenomena rest on:
//
//  * grounded mode (contexts supplied): extractive composition over the
//    attended contexts — answer quality is a function of whether the
//    decisive document made it into the attention window (top L = 4);
//  * caveat behaviour: a question about a symbol the contexts never mention
//    yields "there is no such function" (the RAG-side KSPBurb response);
//  * parametric mode (no contexts): popularity-gated recall of the spec
//    table — high-exposure topics answered well, mid-exposure partially,
//    low-exposure topics produce confident fabrications (the baseline-side
//    KSPBurb response);
//  * a calibrated token-rate latency model (no real time passes).
//
// Everything is deterministic given (model config, request).
//
// The grounded path reads the attended contexts in one pass per question
// needle (scan_sentences). The needles are the question's content terms
// (distinct non-stopword tokens of two or more characters), then its API
// symbols, lowercased. Each attended context is lowercased once, into one
// buffer, and split into sentences once; a needle is then searched for in
// each context. That one search gives the needle's document frequency
// across the attended contexts (its weight: 1 / (0.5 + df) for a term,
// 3 / (0.5 + df) for a symbol), whether a symbol is covered at all (the
// caveat test), and the sentences that contain the needle. A sentence
// contains a needle only when an occurrence lies wholly inside the
// sentence's span, which is what searching the lowercased sentence alone
// decides; sentence spans are the offsets of split_sentences' views into
// the context text, and to_lower maps byte for byte, so they index the
// buffer too. A sentence's score sums its needles' weights in needle order
// (terms, then symbols) and divides by 1 + 0.015 × its word count. Nothing
// is copied per sentence: the selection step reads views of the contexts,
// counts words in place, and tests near-duplicates by merging two sorted
// lists of distinct token spans (text::term_spans).

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "llm/model_config.h"
#include "llm/types.h"
#include "resilience/fault_plan.h"
#include "text/analysis.h"
#include "util/rng.h"

namespace pkb::llm {

/// The grounded path's reading of one request (see the file comment).
struct SentenceScan {
  /// A sentence of an attended context that contains a needle.
  struct Hit {
    std::size_t context = 0;   ///< rank of its context in the request
    std::size_t position = 0;  ///< index in split_sentences(context text)
    std::string_view text;     ///< the sentence, a view of the context text
    std::size_t lower_offset = 0;  ///< where the sentence starts in `lower`
    std::size_t words = 0;         ///< util::count_words(text)
    double score = 0.0;  ///< relevance, before the attention decay
  };
  /// The attended contexts lowercased, one after another.
  std::string lower;
  /// The sentences with a positive score, in (context, position) order.
  std::vector<Hit> hits;
  /// The question's symbols that no attended context contains in any case,
  /// in question order (views of the question analysis' symbols).
  std::vector<std::string_view> uncovered_symbols;

  /// The lowercased text of `hit`.
  [[nodiscard]] std::string_view lower_text(const Hit& hit) const {
    return std::string_view(lower).substr(hit.lower_offset, hit.text.size());
  }
};

/// Scores the sentences of the first `attended` of `contexts` (at most all
/// of them) against `question`, an analysis of the request's question.
[[nodiscard]] SentenceScan scan_sentences(
    const text::QueryAnalysis& question,
    const std::vector<ContextDoc>& contexts, std::size_t attended);

class SimLlm {
 public:
  explicit SimLlm(LlmConfig config);

  [[nodiscard]] const LlmConfig& config() const { return config_; }

  /// Attach a chaos plan consulted (Stage::Llm) at each complete() entry:
  /// error decisions throw the matching resilience::FaultError, latency
  /// spikes inflate the response's simulated latency. Pass nullptr to
  /// detach. Setup-time only — must not race in-flight complete() calls.
  void set_fault_plan(const pkb::resilience::FaultPlan* plan) {
    fault_plan_ = plan;
  }

  /// Run one completion.
  [[nodiscard]] LlmResponse complete(const LlmRequest& request) const;

 private:
  struct Draft {
    std::string text;
    std::string mode;
    std::vector<std::string> used_context_ids;
  };

  [[nodiscard]] Draft answer_grounded(const LlmRequest& request,
                                      pkb::util::Rng& rng) const;
  [[nodiscard]] Draft answer_parametric(const LlmRequest& request,
                                        pkb::util::Rng& rng) const;

  LlmConfig config_;
  const pkb::resilience::FaultPlan* fault_plan_ = nullptr;
};

}  // namespace pkb::llm
