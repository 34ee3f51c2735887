#include "rag/prompts.h"

namespace pkb::rag {

std::string PromptLibrary::qa_system_prompt() {
  return "You are a PETSc expert assistant. Answer the user's question "
         "using the provided PETSc documentation passages. Prefer the "
         "passages over your own recollection; cite the source of any "
         "claim; if the passages do not contain the answer, say so rather "
         "than guessing. Use exact PETSc API names and runtime options.";
}

std::string PromptLibrary::baseline_system_prompt() {
  return "You are a PETSc expert assistant. Answer the user's question "
         "about the PETSc library precisely, using exact PETSc API names "
         "and runtime options.";
}

std::string PromptLibrary::render_user_prompt(
    std::string_view question, const std::vector<llm::ContextDoc>& contexts) {
  std::string prompt;
  if (!contexts.empty()) {
    prompt += "Context passages from the PETSc knowledge base:\n\n";
    for (std::size_t i = 0; i < contexts.size(); ++i) {
      prompt += '[';
      prompt += std::to_string(i + 1);
      prompt += "] (source: ";
      prompt += contexts[i].id;
      prompt += ")\n";
      prompt += contexts[i].text;
      prompt += "\n\n";
    }
    prompt += "---\n\n";
  }
  prompt += "Question: ";
  prompt += question;
  return prompt;
}

}  // namespace pkb::rag
