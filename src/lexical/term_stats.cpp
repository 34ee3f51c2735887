#include "lexical/term_stats.h"

namespace pkb::lexical {

namespace {

// Longest chain of delta tables before a publish counts every chunk again:
// bounds the lookups per idf() call.
constexpr std::size_t kMaxDeltaDepth = 8;

text::AnalysisPtr analyze_shared(const text::Document& doc) {
  return std::make_shared<const text::TextAnalysis>(text::analyze(doc));
}

}  // namespace

TermStats::TermStats(const Analyses& docs) : n_(docs.size()) {
  count(docs, 1);
}

TermStats::TermStats(std::shared_ptr<const TermStats> base,
                     const Analyses& removed, const Analyses& added)
    : base_(std::move(base)),
      n_(base_->n_ - removed.size() + added.size()),
      depth_(base_->depth_ + 1) {
  count(removed, -1);
  count(added, 1);
}

void TermStats::count(const Analyses& docs, std::int32_t sign) {
  for (const auto& doc : docs) {
    for (const text::TextAnalysis::Span term : doc->terms) {
      const std::string_view t = doc->view(term);
      const auto it = df_.find(t);
      if (it == df_.end()) {
        df_.emplace(std::string(t), sign);
      } else {
        it->second += sign;
      }
    }
  }
}

double TermStats::idf(std::string_view term) const {
  std::int64_t df = 0;
  for (const TermStats* s = this; s != nullptr; s = s->base_.get()) {
    const auto it = s->df_.find(term);
    if (it != s->df_.end()) df += it->second;
  }
  if (df == 0) return 0.0;
  return bm25_idf(static_cast<double>(n_), static_cast<double>(df));
}

std::shared_ptr<const CorpusAnalysis> CorpusAnalysis::build(
    const std::vector<text::Document>& docs) {
  auto out = std::make_shared<CorpusAnalysis>();
  out->chunks.reserve(docs.size());
  for (const text::Document& doc : docs) {
    out->chunks.push_back(analyze_shared(doc));
  }
  out->stats = std::make_shared<const TermStats>(out->chunks);
  return out;
}

std::shared_ptr<const CorpusAnalysis> CorpusAnalysis::next(
    const CorpusAnalysis& base, const std::vector<std::size_t>& retained,
    std::span<const text::Document> fresh) {
  auto out = std::make_shared<CorpusAnalysis>();
  out->chunks.reserve(retained.size() + fresh.size());
  Analyses removed;
  std::size_t r = 0;
  for (std::size_t i = 0; i < base.chunks.size(); ++i) {
    if (r < retained.size() && retained[r] == i) {
      out->chunks.push_back(base.chunks[i]);
      ++r;
    } else {
      removed.push_back(base.chunks[i]);
    }
  }
  Analyses added;
  added.reserve(fresh.size());
  for (const text::Document& doc : fresh) added.push_back(analyze_shared(doc));
  out->chunks.insert(out->chunks.end(), added.begin(), added.end());
  out->stats = base.stats->depth() < kMaxDeltaDepth
                   ? std::make_shared<const TermStats>(base.stats, removed,
                                                       added)
                   : std::make_shared<const TermStats>(out->chunks);
  return out;
}

}  // namespace pkb::lexical
