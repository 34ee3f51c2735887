#include "vectordb/ivf.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "util/clock.h"
#include "util/thread_pool.h"
#include "vectordb/kmeans.h"

namespace pkb::vectordb {

IvfIndex::IvfIndex(const VectorStore& store, IvfOptions opts,
                   util::ThreadPool* pool)
    : store_(store), opts_(opts) {
  if (store_.empty()) {
    throw std::invalid_argument("IvfIndex: empty store");
  }
  if (opts_.clusters == 0) {
    opts_.clusters = static_cast<std::size_t>(
        std::ceil(std::sqrt(static_cast<double>(store_.size()))));
  }
  opts_.clusters = std::min(opts_.clusters, store_.size());
  opts_.nprobe = std::max<std::size_t>(1, std::min(opts_.nprobe, opts_.clusters));
  build(pool);
}

void IvfIndex::build(util::ThreadPool* pool) {
  // The coarse quantizer is the deterministic parallel trainer
  // (vectordb/kmeans.h): packed SIMD kernels, chunked double reductions
  // merged in fixed order, fresh-row degenerate re-seeds. Stored vectors
  // are unit norm, as the trainer's cosine geometry requires.
  KmeansOptions ko;
  ko.k = opts_.clusters;
  ko.iters = opts_.kmeans_iters;
  ko.seed = opts_.seed;
  ko.pool = pool;
  const KmeansResult km = kmeans_cluster(store_.packed(), ko);

  const std::size_t dim = store_.dimension();
  centroids_.assign(km.centroids.rows(), embed::Vector(dim, 0.0f));
  for (std::size_t c = 0; c < centroids_.size(); ++c) {
    const float* row = km.centroids.row(c);
    std::copy(row, row + dim, centroids_[c].begin());
  }
  buckets_.assign(centroids_.size(), {});
  for (std::size_t i = 0; i < km.assign.size(); ++i) {
    buckets_[km.assign[i]].push_back(i);
  }
  obs::global_metrics()
      .gauge(obs::kIvfClusters)
      .set(static_cast<double>(centroids_.size()));
}

std::vector<SearchResult> IvfIndex::search(const embed::Vector& query,
                                           std::size_t k) const {
  if (k == 0) return {};
  obs::MetricsRegistry& metrics = obs::global_metrics();
  metrics.counter(obs::kIvfSearchesTotal).inc();
  pkb::util::Stopwatch watch;
  embed::Vector q = query;
  embed::l2_normalize(q);

  // Rank clusters by centroid similarity (kernel dot over the unpadded
  // dimension — probe ORDER only; hit scores come from the store kernels).
  std::vector<std::size_t> cluster_order(centroids_.size());
  for (std::size_t c = 0; c < centroids_.size(); ++c) cluster_order[c] = c;
  std::vector<float> cscore(centroids_.size());
  for (std::size_t c = 0; c < centroids_.size(); ++c) {
    cscore[c] = kernels::dot_f32(q.data(), centroids_[c].data(),
                                 centroids_[c].size());
  }
  const std::size_t probes = std::min(opts_.nprobe, centroids_.size());
  std::partial_sort(cluster_order.begin(),
                    cluster_order.begin() + static_cast<std::ptrdiff_t>(probes),
                    cluster_order.end(), [&](std::size_t a, std::size_t b) {
                      if (cscore[a] != cscore[b]) return cscore[a] > cscore[b];
                      return a < b;
                    });

  // Score the probed buckets' entries with the store's packed kernels — the
  // exact flat-scan expression, so every hit's score is flat-scan-identical.
  const kernels::PackedF32& packed = store_.packed();
  pkb::util::AlignedBuffer qbuf(packed.stride() * sizeof(float));
  packed.pack_query(q.data(), qbuf.as<float>());
  std::vector<SearchResult> hits;
  for (std::size_t p = 0; p < probes; ++p) {
    for (std::size_t i : buckets_[cluster_order[p]]) {
      hits.push_back(
          SearchResult{i, store_.kernel_score(qbuf.as<float>(), i),
                       &store_.doc(i)});
    }
  }
  std::sort(hits.begin(), hits.end(), [](const SearchResult& a,
                                         const SearchResult& b) {
    if (a.score != b.score) return a.score > b.score;
    return a.index < b.index;
  });
  if (hits.size() > k) hits.resize(k);
  metrics.counter(obs::kIvfProbesTotal).inc(probes);
  metrics.histogram(obs::kIvfSearchSeconds).observe(watch.seconds());
  return hits;
}

double IvfIndex::recall_at_k(const std::vector<embed::Vector>& queries,
                             std::size_t k) const {
  if (queries.empty() || k == 0) return 1.0;
  std::size_t found = 0;
  std::size_t total = 0;
  for (const embed::Vector& q : queries) {
    const auto exact = store_.similarity_search(q, k);
    const auto approx = search(q, k);
    for (const SearchResult& e : exact) {
      ++total;
      for (const SearchResult& a : approx) {
        if (a.index == e.index) {
          ++found;
          break;
        }
      }
    }
  }
  return total == 0 ? 1.0 : static_cast<double>(found) / static_cast<double>(total);
}

}  // namespace pkb::vectordb
