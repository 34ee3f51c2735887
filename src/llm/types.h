#pragma once
// Request/response types of the simulated LLM.

#include <cstdint>
#include <string>
#include <vector>

namespace pkb::llm {

/// One retrieved context document handed to the model.
struct ContextDoc {
  std::string id;     ///< chunk id (source path + chunk index)
  std::string title;  ///< source document title (manual-page symbol), may be ""
  std::string text;   ///< chunk text
  double score = 0.0; ///< retrieval/rerank score (informational)
};

/// A completion request.
struct LlmRequest {
  /// System prompt (from the prompt library).
  std::string system;
  /// The user's question.
  std::string question;
  /// Retrieved contexts in pipeline order (best first). Empty = no-RAG
  /// baseline: the model answers from parametric memory alone.
  std::vector<ContextDoc> contexts;
  /// The model attends to at most this many leading contexts (context-window
  /// budget; the paper's pipeline passes L = 4 documents).
  std::size_t max_attended_contexts = 4;
  /// When true, the response text is a JSON object (§III-E).
  bool json_output = false;
};

/// A completion response.
struct LlmResponse {
  std::string text;
  /// Simulated wall-clock latency in seconds (token-rate model; no real
  /// time passes).
  double latency_seconds = 0.0;
  std::size_t prompt_tokens = 0;
  std::size_t completion_tokens = 0;
  /// "grounded", "grounded-caveat", "grounded-weak", "parametric",
  /// "parametric-partial", "hallucination", or "refusal" — the internal
  /// path taken, exposed for the interaction-history database and for
  /// tests. A real deployment would not have this; nothing in the
  /// evaluation rubric reads it.
  std::string mode;
  /// Ids of the context documents actually used in the answer.
  std::vector<std::string> used_context_ids;
};

}  // namespace pkb::llm
