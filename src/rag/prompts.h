#pragma once
// The prompt library (§I: "supported by processing scripts, prompt
// libraries, and agentic memory systems").

#include <string>
#include <string_view>
#include <vector>

#include "llm/types.h"

namespace pkb::rag {

/// Named system prompts for the assistant's roles.
class PromptLibrary {
 public:
  /// Answering user questions with retrieved context (the QA role).
  [[nodiscard]] static std::string qa_system_prompt();

  /// Answering without retrieval (the baseline arm).
  [[nodiscard]] static std::string baseline_system_prompt();

  /// Render the full user prompt: the question plus the numbered context
  /// passages with their source ids (what actually goes to the model, and
  /// what the interaction history records).
  [[nodiscard]] static std::string render_user_prompt(
      std::string_view question, const std::vector<llm::ContextDoc>& contexts);
};

}  // namespace pkb::rag
