#pragma once
// IVF (inverted file) approximate nearest-neighbor index over a VectorStore.
//
// Build: k-means++ seeds `clusters` centroids (seeded RNG — builds are
// deterministic for a given store + options), Lloyd iterations refine them,
// and every stored vector lands in the bucket of its nearest centroid. A
// query then ranks centroids by similarity and scans only the `nprobe`
// nearest buckets, trading recall for speed: cost drops from O(n) to
// roughly O(clusters + n·nprobe/clusters) per query.
//
// Scoring runs through the store's SIMD kernels (vectordb/kernels.h): the
// query is packed once and bucket entries are scored with the exact same
// expression the flat scan uses, so hits carry flat-scan-identical scores —
// only membership can differ (a true neighbor whose bucket was not probed).
// `recall_at_k()` measures the recall cost of a given `nprobe`, and
// bench/ann_frontier.cpp sweeps the whole frontier into BENCH_ann.json.
//
// The index is immutable after construction and holds a reference to its
// store, which must outlive it and must not grow after build — the
// generational KB satisfies both by rebuilding indexes per Snapshot
// (ingest/ingestor.cpp → rag::Snapshot::attach_indexes).

#include <cstdint>

#include "vectordb/vector_store.h"

namespace pkb::util {
class ThreadPool;
}

namespace pkb::vectordb {

/// IVF build/search parameters.
struct IvfOptions {
  /// Number of clusters; 0 means ceil(sqrt(n)).
  std::size_t clusters = 0;
  /// K-means iterations.
  std::size_t kmeans_iters = 10;
  /// Clusters probed per query.
  std::size_t nprobe = 4;
  /// RNG seed for centroid initialization (k-means++).
  std::uint64_t seed = 42;

  bool operator==(const IvfOptions&) const = default;
};

/// Approximate index bound to a VectorStore (which must outlive it and must
/// not grow after build()).
class IvfIndex {
 public:
  /// Build the index. The k-means runs on vectordb/kmeans.h — packed SIMD
  /// kernels over `pool` (nullptr = util::global_pool()); the build is
  /// deterministic for a given store + options at any worker count.
  explicit IvfIndex(const VectorStore& store, IvfOptions opts = {},
                    util::ThreadPool* pool = nullptr);

  /// Number of clusters actually built.
  [[nodiscard]] std::size_t cluster_count() const { return centroids_.size(); }

  /// Entry ids per cluster (exposed for build-quality tests).
  [[nodiscard]] const std::vector<std::vector<std::size_t>>& buckets() const {
    return buckets_;
  }

  /// Approximate top-k: probes the `nprobe` nearest clusters.
  [[nodiscard]] std::vector<SearchResult> search(const embed::Vector& query,
                                                 std::size_t k) const;

  /// Recall@k of this index vs exact search for the given queries (fraction
  /// of exact top-k hits the index also returned).
  [[nodiscard]] double recall_at_k(const std::vector<embed::Vector>& queries,
                                   std::size_t k) const;

  [[nodiscard]] const IvfOptions& options() const { return opts_; }

 private:
  void build(util::ThreadPool* pool);

  const VectorStore& store_;
  IvfOptions opts_;
  std::vector<embed::Vector> centroids_;
  std::vector<std::vector<std::size_t>> buckets_;  ///< entry ids per cluster
};

}  // namespace pkb::vectordb
