#pragma once
// Index selection — which of the two search paths serves a snapshot.
//
// `IndexSpec` names a point on the recall-vs-latency frontier: the exact
// flat scan, or an HNSW graph with its tuning options. Both score the
// store's packed fp32 rows and return (row index, score) hits; the caller
// resolves a row to its document (rag::Snapshot::chunks[row]).
// `build_index` turns a spec into an immutable `HnswIndex` bound to a
// VectorStore; the generational KB stores a spec in
// `rag::KnowledgeBaseOptions::index`, builds the index per Snapshot
// (rebuilt on every ingest publish), and the retriever routes searches
// through it.
//
// Flat is the identity spec: build_index returns nullptr and callers fall
// through to VectorStore::similarity_search, the exact scan.

#include <memory>
#include <string>

#include "vectordb/hnsw.h"
#include "vectordb/vector_store.h"

namespace pkb::vectordb {

/// Which search path serves a snapshot's searches.
enum class IndexKind : std::uint8_t {
  Flat,  ///< exact scan (the default)
  Hnsw,  ///< navigable small-world graph (hnsw.h)
};

/// A point on the recall-vs-latency frontier.
struct IndexSpec {
  IndexKind kind = IndexKind::Flat;
  HnswOptions hnsw;

  /// Stable label for bench output: "flat" or "hnsw".
  [[nodiscard]] std::string name() const;

  bool operator==(const IndexSpec&) const = default;
};

/// Build the index `spec` describes over `store`. Returns nullptr for the
/// flat spec and for an empty store — callers fall back to the flat scan.
/// The store must outlive the returned index. Emits pkb_ann_build_seconds
/// and the pkb_ann_index_entries / pkb_ann_graph_edges gauges.
[[nodiscard]] std::shared_ptr<const HnswIndex> build_index(
    const VectorStore& store, const IndexSpec& spec);

}  // namespace pkb::vectordb
