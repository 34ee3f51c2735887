#pragma once
// Per-generation text statistics: every chunk analysed once
// (text::TextAnalysis), which the embedder fits on and embeds from, and the
// document frequencies over those analyses, which the rerankers score
// with. Built first with the snapshot (build, load, ingest publish), never
// on the request path; an ingest publish analyses only its new chunks and
// updates the frequencies from the delta.

#include <cmath>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "text/analysis.h"
#include "text/document.h"

namespace pkb::lexical {

/// Smoothed BM25 idf of a term found in `df` of `n` documents (BM25+ style
/// floor at 0 via the +1 inside the log).
[[nodiscard]] inline double bm25_idf(double n, double df) {
  return std::log(1.0 + (n - df + 0.5) / (df + 0.5));
}

using text::Analyses;

/// Document frequencies over a set of analysed documents. A delta-built
/// table stores only the changed counts and reads the rest through its
/// base; counts are integers, so the idf is the same double as a full
/// build's.
class TermStats {
 public:
  TermStats() = default;
  /// Statistics over `docs`.
  explicit TermStats(const Analyses& docs);
  /// `base`'s statistics with `removed` taken out and `added` put in.
  TermStats(std::shared_ptr<const TermStats> base, const Analyses& removed,
            const Analyses& added);

  /// Bm25Index::idf over the same documents: bm25_idf, or 0 for a term no
  /// document contains.
  [[nodiscard]] double idf(std::string_view term) const;
  /// Delta tables between this one and its full build.
  [[nodiscard]] std::size_t depth() const { return depth_; }

 private:
  struct Hash {
    using is_transparent = void;
    std::size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>{}(s);
    }
  };
  void count(const Analyses& docs, std::int32_t sign);

  std::shared_ptr<const TermStats> base_;
  /// Full counts for a full build; signed changes against base_ otherwise.
  std::unordered_map<std::string, std::int32_t, Hash, std::equal_to<>> df_;
  std::size_t n_ = 0;
  std::size_t depth_ = 0;
};

/// One generation's analysed chunks, in chunk order, and their term
/// statistics. A chunk's analysis is shared by pointer with every
/// generation that keeps the chunk.
struct CorpusAnalysis {
  Analyses chunks;
  std::shared_ptr<const TermStats> stats;

  /// Analyse every document of `docs`.
  [[nodiscard]] static std::shared_ptr<const CorpusAnalysis> build(
      const std::vector<text::Document>& docs);
  /// The next generation of `base`: its rows `retained` (ascending), then
  /// `fresh` analysed. Only `fresh` is analysed, and the statistics are
  /// updated from the delta (a full count once the delta chain is long).
  [[nodiscard]] static std::shared_ptr<const CorpusAnalysis> next(
      const CorpusAnalysis& base, const std::vector<std::size_t>& retained,
      std::span<const text::Document> fresh);
};

}  // namespace pkb::lexical
