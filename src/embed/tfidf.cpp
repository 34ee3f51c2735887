#include "embed/tfidf.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <unordered_map>

namespace pkb::embed {

void Vocabulary::fit(std::span<const text::AnalysisPtr> docs) {
  // Views into the analyses, which outlive this call.
  std::unordered_map<std::string_view, std::size_t> df;
  for (const text::AnalysisPtr& doc : docs) {
    for (const text::TextAnalysis::Span term : doc->terms) {
      ++df[doc->view(term)];
    }
  }
  // Sorted terms make the ids deterministic across runs.
  std::vector<std::pair<std::string_view, std::size_t>> sorted(df.begin(),
                                                               df.end());
  std::sort(sorted.begin(), sorted.end());
  terms_.clear();
  idf_.clear();
  const double n = static_cast<double>(docs.size());
  for (const auto& [term, count] : sorted) {
    terms_.emplace_back(term);
    idf_.push_back(static_cast<float>(
        std::log((1.0 + n) / (1.0 + static_cast<double>(count))) + 1.0));
  }
}

std::size_t Vocabulary::id_of(std::string_view term) const {
  const auto it = std::lower_bound(terms_.begin(), terms_.end(), term);
  return it == terms_.end() || *it != term
             ? npos
             : static_cast<std::size_t>(it - terms_.begin());
}

std::vector<std::pair<std::size_t, float>> Vocabulary::tfidf(
    const text::TextAnalysis& text) const {
  std::unordered_map<std::size_t, float> tf;
  for (const text::TextAnalysis::Span tok : text.tokens) {
    const std::size_t id = id_of(text.view(tok));
    if (id != npos) tf[id] += 1.0f;
  }
  std::vector<std::pair<std::size_t, float>> out;
  out.reserve(tf.size());
  double norm_sq = 0.0;
  for (const auto& [id, count] : tf) {
    // Sublinear term frequency damps long documents.
    const float w = (1.0f + std::log(count)) * idf(id);
    out.emplace_back(id, w);
    norm_sq += static_cast<double>(w) * w;
  }
  if (norm_sq > 0.0) {
    const float inv = static_cast<float>(1.0 / std::sqrt(norm_sq));
    for (auto& [id, w] : out) w *= inv;
  }
  return out;
}

void TfidfEmbedder::fit(std::span<const text::AnalysisPtr> docs) {
  vocab_.fit(docs);
}

Vector TfidfEmbedder::embed(const text::TextAnalysis& text) const {
  if (vocab_.size() == 0) {
    throw std::logic_error("TfidfEmbedder::embed called before fit()");
  }
  Vector v(vocab_.size(), 0.0f);
  for (const auto& [id, w] : vocab_.tfidf(text)) v[id] = w;
  return v;  // tfidf() already L2-normalizes
}

}  // namespace pkb::embed
