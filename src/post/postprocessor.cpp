#include "post/postprocessor.h"

#include "text/markdown.h"
#include "util/json.h"
#include "util/strings.h"

namespace pkb::post {

ProcessedOutput postprocess_llm_output(std::string_view response) {
  ProcessedOutput out;

  std::string_view markdown = response;
  pkb::util::Json json;  // owns the JSON-mode answer `markdown` views
  const std::string_view trimmed = pkb::util::trim(response);
  if (!trimmed.empty() && trimmed.front() == '{') {
    try {
      json = pkb::util::Json::parse(trimmed);
      const pkb::util::Json* answer =
          json.is_object() ? json.find("answer") : nullptr;
      if (answer != nullptr) {
        markdown = answer->is_string() ? std::string_view(answer->as_string())
                                       : std::string_view();
        if (const pkb::util::Json* sources = json.find("sources");
            sources != nullptr && sources->is_array()) {
          for (const pkb::util::Json& s : sources->as_array()) {
            if (s.is_string()) out.sources.push_back(s.as_string());
          }
        }
      }
    } catch (const pkb::util::JsonError&) {
      // Not JSON after all: treat as Markdown.
    }
  }

  const std::vector<text::MdBlock> blocks = text::parse_markdown(markdown);
  out.plain_text = text::strip_markdown(blocks);
  for (const text::MdBlock& block : blocks) {
    if (block.type != text::MdBlock::Type::CodeFence) continue;
    out.code_reports.push_back(check_code({block.language, block.text}));
    if (!out.code_reports.back().ok) out.all_code_ok = false;
  }
  return out;
}

}  // namespace pkb::post
