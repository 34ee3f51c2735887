#pragma once
// Box 4 of Fig 3: postprocess raw LLM output before it reaches a user.
//
// Handles both output shapes the paper discusses: raw Markdown (parsed once,
// flattened to plain text, fenced code verified) and JSON-mode output ("LLMs
// are now making it possible to return their output in JSON, making
// postprocessing easier since we do not have to 'reverse engineer' the LLM
// output"). No HTML is rendered: every shipped surface sends Markdown or
// plain text.

#include <string>
#include <string_view>
#include <vector>

#include "post/code_check.h"

namespace pkb::post {

/// The structured result of postprocessing one LLM response.
struct ProcessedOutput {
  /// Plain-text answer (markup stripped) for terminal display / email.
  std::string plain_text;
  /// Verification report per code block found.
  std::vector<CodeCheckReport> code_reports;
  /// True when every code block verified cleanly.
  bool all_code_ok = true;
  /// Context ids cited by the model (JSON mode only).
  std::vector<std::string> sources;
};

/// Postprocess an LLM response. When `response` parses as a JSON object with
/// an "answer" member, JSON mode is used (answer extracted, sources read);
/// otherwise the whole response is treated as Markdown.
[[nodiscard]] ProcessedOutput postprocess_llm_output(std::string_view response);

}  // namespace pkb::post
