#pragma once
// Index selection — one handle over the ANN strategies in vectordb.
//
// `IndexSpec` names a point on the recall-vs-latency frontier: an index
// kind (flat scan, IVF, HNSW) with its tuning options. Every kind scans the
// store's fp32 rows. `build_index` turns a spec into an immutable
// `AnnIndex` bound to a VectorStore; the generational KB stores a spec in
// `rag::KnowledgeBaseOptions::index`, builds the index per Snapshot
// (rebuilt on every ingest publish), and the retriever routes searches
// through it.
//
// Flat is the identity spec: build_index returns nullptr and callers fall
// through to VectorStore::similarity_search, the exact scan.
//
// All search() calls are instrumented here (pkb_ann_* metrics, the
// `ann_search` span) so the strategies themselves stay mechanism-only.

#include <memory>
#include <string>

#include "vectordb/hnsw.h"
#include "vectordb/ivf.h"
#include "vectordb/vector_store.h"

namespace pkb::vectordb {

/// Which ANN strategy serves a snapshot's searches.
enum class IndexKind : std::uint8_t {
  Flat = 0,  ///< exact scan (the default)
  Ivf = 1,   ///< inverted-file clusters (ivf.h)
  Hnsw = 2,  ///< navigable small-world graph (hnsw.h)
};

/// A point on the recall-vs-latency frontier. Persisted with snapshots (rag
/// snapshot format v6).
struct IndexSpec {
  IndexKind kind = IndexKind::Flat;
  IvfOptions ivf;
  HnswOptions hnsw;

  /// Stable label for metrics and bench output: "flat", "ivf" or "hnsw".
  [[nodiscard]] std::string name() const;

  bool operator==(const IndexSpec&) const = default;
};

/// An immutable search index over one VectorStore. Every hit's score is
/// bit-equal to the flat scan's score for the same row (the store's kernel
/// expression); only membership is approximate.
class AnnIndex {
 public:
  virtual ~AnnIndex() = default;

  /// The spec's name() this index was built from.
  [[nodiscard]] virtual std::string_view name() const = 0;

  /// Approximate top-k (query need not be normalized).
  [[nodiscard]] virtual std::vector<SearchResult> search(
      const embed::Vector& query, std::size_t k) const = 0;
};

/// Build the index `spec` describes over `store`. Returns nullptr for the
/// flat spec and for an empty store — callers fall back to the flat scan.
/// The store must outlive the returned index. Emits pkb_ann_build_seconds
/// and the pkb_ann_index_entries / pkb_ann_graph_edges gauges.
[[nodiscard]] std::shared_ptr<const AnnIndex> build_index(
    const VectorStore& store, const IndexSpec& spec);

}  // namespace pkb::vectordb
