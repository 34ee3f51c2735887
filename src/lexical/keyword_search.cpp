#include "lexical/keyword_search.h"

#include <utility>

#include "corpus/api_spec.h"

namespace pkb::lexical {

SymbolIndex::SymbolIndex(const std::vector<text::Document>& chunks) {
  // Map manual-page path -> chunk indices.
  std::unordered_map<std::string, std::vector<std::size_t>> by_source;
  for (std::size_t i = 0; i < chunks.size(); ++i) {
    by_source[std::string(chunks[i].meta("source"))].push_back(i);
  }
  for (const corpus::ApiSpec& spec : corpus::api_table()) {
    auto it = by_source.find(corpus::manual_page_path(spec));
    if (it == by_source.end()) continue;
    by_symbol_.emplace(spec.name, it->second);
  }
}

std::vector<KeywordHit> SymbolIndex::lookup(
    std::span<const std::string> symbols) const {
  std::vector<KeywordHit> hits;
  for (const std::string& symbol : symbols) {
    KeywordHit hit;
    hit.symbol = symbol;
    const corpus::ApiSpec* spec = corpus::find_spec(symbol);
    if (spec == nullptr) spec = corpus::find_spec_fuzzy(symbol);
    if (spec != nullptr) {
      hit.resolved = spec->name;
      hit.page = corpus::manual_page_path(*spec);
      auto it = by_symbol_.find(spec->name);
      if (it != by_symbol_.end()) hit.chunks = it->second;
    }
    hits.push_back(std::move(hit));
  }
  return hits;
}

}  // namespace pkb::lexical
