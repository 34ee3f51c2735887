#pragma once
// Index selection — one handle over the ANN strategies in vectordb.
//
// `IndexSpec` names a point on the recall-vs-latency frontier: an index
// kind (flat scan, IVF, HNSW) crossed with a quantizer (none, int8, or PQ
// with ADC lookup tables — always with exact fp32 re-rank). `build_index`
// turns a spec into an immutable `AnnIndex`
// bound to a VectorStore; the generational KB stores a spec in
// `rag::KnowledgeBaseOptions::index`, builds the index per Snapshot
// (rebuilt on every ingest publish), and the retriever routes searches
// through it. The ShardRouter composes the same way — one index per shard,
// merge unchanged — because every index returns store-local hit indices
// with flat-scan-exact fp32 scores.
//
// Flat+fp32 is the identity spec: build_index returns nullptr and callers
// fall through to VectorStore::similarity_search, keeping the default
// configuration byte-for-byte the pre-index behavior.
//
// All search() calls are instrumented here (pkb_ann_* metrics, the
// `ann_search` span) so the strategies themselves stay mechanism-only.

#include <memory>
#include <string>

#include "vectordb/hnsw.h"
#include "vectordb/ivf.h"
#include "vectordb/pq.h"
#include "vectordb/quantize.h"
#include "vectordb/vector_store.h"

namespace pkb::vectordb {

/// Which ANN strategy serves a snapshot's searches.
enum class IndexKind : std::uint8_t {
  Flat = 0,  ///< exact scan (the default)
  Ivf = 1,   ///< inverted-file clusters (ivf.h)
  Hnsw = 2,  ///< navigable small-world graph (hnsw.h)
};

/// Which compressed representation the candidate scan reads (the re-rank is
/// always exact fp32).
enum class Quantizer : std::uint8_t {
  None = 0,  ///< scan fp32 rows
  Int8 = 1,  ///< scalar int8 codes (quantize.h), ~4× smaller
  Pq = 2,    ///< product-quantization ADC (pq.h), ~16× smaller
};

/// A point on the recall-vs-latency-vs-memory frontier. Persisted with
/// snapshots (rag snapshot format v4), so keep fields append-only.
struct IndexSpec {
  IndexKind kind = IndexKind::Flat;
  /// Scan quantized codes and exactly re-rank k × rerank_factor survivors.
  Quantizer quant = Quantizer::None;
  /// Survivor multiplier for the quantized re-rank (≥ 1).
  std::size_t rerank_factor = 4;
  IvfOptions ivf;
  HnswOptions hnsw;
  PqOptions pq;

  /// The identity spec — no index is built, callers use the flat scan.
  [[nodiscard]] bool is_flat_fp32() const {
    return kind == IndexKind::Flat && quant == Quantizer::None;
  }

  /// Stable label for metrics and bench output: "flat", "ivf_int8",
  /// "hnsw_pq", ...
  [[nodiscard]] std::string name() const;

  bool operator==(const IndexSpec&) const = default;
};

/// An immutable search index over one VectorStore. Implementations return
/// store-local indices with exact fp32 scores (the flat scan's expression),
/// which is what lets the ShardRouter merge hits from per-shard indexes
/// with the monolithic comparator.
class AnnIndex {
 public:
  virtual ~AnnIndex() = default;

  /// The spec's name() this index was built from.
  [[nodiscard]] virtual std::string_view name() const = 0;

  /// Approximate top-k (query need not be normalized).
  [[nodiscard]] virtual std::vector<SearchResult> search(
      const embed::Vector& query, std::size_t k) const = 0;

  /// Bytes of the per-vector representation the candidate scan reads (fp32
  /// rows, int8 codes, or PQ codes, padded strides included). The fp32
  /// store backing the exact re-rank is not counted — this is the metric
  /// the memory gate in bench/ann_frontier.cpp measures.
  [[nodiscard]] virtual std::size_t scan_bytes_per_vector() const = 0;
};

/// Build the index `spec` describes over `store`. Returns nullptr for the
/// identity spec (flat + fp32) and for an empty store — callers fall back
/// to the flat scan. The store must outlive the returned index. Emits
/// pkb_ann_build_seconds and the pkb_ann_index_entries / pkb_ann_graph_edges
/// gauges.
[[nodiscard]] std::shared_ptr<const AnnIndex> build_index(
    const VectorStore& store, const IndexSpec& spec);

}  // namespace pkb::vectordb
