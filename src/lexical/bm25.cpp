#include "lexical/bm25.h"

#include <algorithm>

#include "lexical/term_stats.h"
#include "text/tokenizer.h"

namespace pkb::lexical {

namespace {

// Standard Okapi BM25 parameters.
constexpr double kK1 = 1.2;  // term-frequency saturation
constexpr double kB = 0.75;  // length normalization strength

}  // namespace

void Bm25Index::build(std::vector<text::Document> docs) {
  docs_ = std::move(docs);
  doc_len_.assign(docs_.size(), 0.0);
  postings_.clear();

  double total_len = 0.0;
  for (std::size_t i = 0; i < docs_.size(); ++i) {
    std::unordered_map<std::string, std::uint32_t> tf;
    for (std::string& tok : text::tokens_of(docs_[i].text)) {
      ++tf[std::move(tok)];
    }
    double len = 0.0;
    for (const auto& [term, count] : tf) {
      postings_[term].push_back(Posting{i, count});
      len += count;
    }
    doc_len_[i] = len;
    total_len += len;
  }
  avg_len_ = docs_.empty() ? 0.0 : total_len / static_cast<double>(docs_.size());
}

double Bm25Index::idf(std::string_view term) const {
  auto it = postings_.find(std::string(term));
  if (it == postings_.end()) return 0.0;
  return bm25_idf(static_cast<double>(docs_.size()),
                  static_cast<double>(it->second.size()));
}

double Bm25Index::score_posting(double idf, double tf, double doc_len) const {
  const double denom =
      tf + kK1 * (1.0 - kB + kB * doc_len / std::max(avg_len_, 1e-9));
  return idf * tf * (kK1 + 1.0) / denom;
}

std::vector<Bm25Result> Bm25Index::search(std::string_view query,
                                          std::size_t k) const {
  if (k == 0 || docs_.empty()) return {};
  std::vector<double> scores(docs_.size(), 0.0);
  for (const std::string& term : text::tokens_of(query)) {
    auto it = postings_.find(term);
    if (it == postings_.end()) continue;
    const double term_idf = idf(term);
    for (const Posting& p : it->second) {
      scores[p.doc] += score_posting(term_idf, p.tf, doc_len_[p.doc]);
    }
  }
  std::vector<std::size_t> order;
  order.reserve(docs_.size());
  for (std::size_t i = 0; i < docs_.size(); ++i) {
    if (scores[i] > 0.0) order.push_back(i);
  }
  const std::size_t keep = std::min(k, order.size());
  std::partial_sort(order.begin(),
                    order.begin() + static_cast<std::ptrdiff_t>(keep),
                    order.end(), [&](std::size_t a, std::size_t b) {
                      if (scores[a] != scores[b]) return scores[a] > scores[b];
                      return a < b;
                    });
  order.resize(keep);
  std::vector<Bm25Result> out;
  out.reserve(keep);
  for (std::size_t i : order) {
    out.push_back(Bm25Result{i, scores[i], &docs_[i]});
  }
  return out;
}

}  // namespace pkb::lexical
