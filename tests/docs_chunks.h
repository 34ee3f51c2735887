#pragma once
// Docs chunks and question contexts for the golden tests. Contexts are
// picked by a test-local term count, not by retrieval, so no vector kernel
// decides them and one golden serves every kernel backend.

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "corpus/generator.h"
#include "llm/types.h"
#include "text/loader.h"
#include "text/splitter.h"
#include "text/tokenizer.h"
#include "util/strings.h"

namespace pkb::golden {

/// The generated docs corpus, loaded without headings and split as the
/// knowledge base splits it.
inline const std::vector<text::Document>& docs_chunks() {
  static const auto* chunks = [] {
    const text::MarkdownLoader loader(text::MarkdownMode::Single,
                                      /*drop_headings=*/true);
    const text::RecursiveCharacterTextSplitter splitter;
    return new std::vector<text::Document>(
        splitter.split_documents(loader.load(corpus::generate_corpus())));
  }();
  return *chunks;
}

/// The `n` chunks that contain the most of the question's tokens of four or
/// more characters (ties by chunk order).
inline std::vector<llm::ContextDoc> chunks_for(const std::string& question,
                                               std::size_t n) {
  std::vector<std::string> words;
  for (std::string& tok : text::tokens_of(question)) {
    if (tok.size() >= 4) words.push_back(std::move(tok));
  }
  const std::vector<text::Document>& chunks = docs_chunks();
  std::vector<std::pair<std::size_t, std::size_t>> ranked;  // (-hits, row)
  for (std::size_t row = 0; row < chunks.size(); ++row) {
    const std::string lower = util::to_lower(chunks[row].text);
    std::size_t hits = 0;
    for (const std::string& w : words) {
      if (lower.find(w) != std::string::npos) ++hits;
    }
    ranked.emplace_back(chunks.size() - hits, row);
  }
  std::sort(ranked.begin(), ranked.end());
  std::vector<llm::ContextDoc> out;
  for (std::size_t i = 0; i < n && i < ranked.size(); ++i) {
    const text::Document& chunk = chunks[ranked[i].second];
    out.push_back(llm::ContextDoc{chunk.id, std::string(chunk.meta("title")),
                                  chunk.text, 0.5});
  }
  return out;
}

}  // namespace pkb::golden
