#include "vectordb/vector_store.h"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "util/clock.h"

namespace pkb::vectordb {

VectorStore VectorStore::from_analyses(
    std::span<const text::AnalysisPtr> docs, const embed::Embedder& embedder) {
  std::vector<embed::Vector> vecs = embedder.embed_batch(docs);
  VectorStore store(vecs.empty() ? 0 : vecs.front().size());
  store.reserve(vecs.size());
  for (embed::Vector& vec : vecs) store.add(std::move(vec));
  return store;
}

void VectorStore::add(embed::Vector vec) {
  embed::l2_normalize(vec);
  add_prenormalized(vec);
}

void VectorStore::add_prenormalized(std::span<const float> vec) {
  if (dim_ == 0 && empty()) {
    dim_ = vec.size();
  } else if (vec.size() != dim_) {
    // Either a preset dimension (VectorStore(dim)) or the dimension fixed
    // by the first entry.
    throw std::invalid_argument("VectorStore::add: dimension mismatch");
  }
  if (packed_.rows() == 0 && packed_.dim() != dim_) {
    packed_ = kernels::PackedF32(dim_);
  }
  packed_.append(vec.data());
}

std::span<const float> VectorStore::vec(std::size_t i) const {
  if (i >= size()) throw std::out_of_range("VectorStore::vec: row index");
  return {packed_.row(i), dim_};
}

std::vector<SearchResult> VectorStore::similarity_search(
    const embed::Vector& query, std::size_t k) const {
  if (k == 0 || empty()) return {};
  if (query.size() != dim_) {
    throw std::invalid_argument("similarity_search: dimension mismatch");
  }
  obs::MetricsRegistry& metrics = obs::global_metrics();
  metrics.counter(obs::kVectordbSearchesTotal).inc();
  pkb::util::Stopwatch watch;
  embed::Vector q = query;
  embed::l2_normalize(q);

  // Score the whole packed SoA block with one streaming kernel pass on the
  // calling thread, then select top-k with a partial sort. The query is
  // packed once (padded, aligned) so every row dot runs over the same lane
  // layout; score_range applies kernel_score's dot per row, so the scores
  // are the ones every index reports.
  const std::size_t n = size();
  pkb::util::AlignedBuffer qbuf(packed_.stride() * sizeof(float));
  packed_.pack_query(q.data(), qbuf.as<float>());
  std::vector<float> scores(n);
  packed_.score_range(qbuf.as<float>(), 0, n, scores.data());

  // Score descending, lower index first on ties — the order every index
  // reproduces.
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  const std::size_t keep = std::min(k, n);
  std::partial_sort(order.begin(), order.begin() + static_cast<std::ptrdiff_t>(keep),
                    order.end(), [&](std::size_t a, std::size_t b) {
                      if (scores[a] != scores[b]) return scores[a] > scores[b];
                      return a < b;
                    });
  std::vector<SearchResult> out;
  out.reserve(keep);
  for (std::size_t r = 0; r < keep; ++r) {
    out.push_back(SearchResult{order[r], scores[order[r]]});
  }
  metrics.histogram(obs::kVectordbSearchSeconds).observe(watch.seconds());
  return out;
}

}  // namespace pkb::vectordb
