#pragma once
// Vector database — the Chroma equivalent of §III-A.
//
// Stores (document, embedding) pairs and answers top-k similarity queries.
// Exact search scans a packed SoA mirror of the vectors with the SIMD
// kernels in kernels.h on the calling thread (partial-sort top-k); the HNSW
// graph in hnsw.h is the approximate fast path. Collections persist to a
// simple binary format.

#include <functional>
#include <iosfwd>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "embed/embedder.h"
#include "resilience/fault_plan.h"
#include "text/document.h"
#include "vectordb/kernels.h"

namespace pkb::vectordb {

/// One search hit. `index` is the entry's position in the store.
struct SearchResult {
  std::size_t index = 0;
  float score = 0.0f;  ///< cosine similarity (vectors are unit norm)
  const text::Document* doc = nullptr;

  bool operator==(const SearchResult&) const = default;
};

/// Optional metadata predicate applied before scoring.
using MetadataFilter = std::function<bool(const text::Metadata&)>;

/// Flat (exact) vector store.
class VectorStore {
 public:
  VectorStore() = default;

  /// An empty store with its dimension fixed up front: add() and
  /// add_prenormalized() then reject any other dimension from the first
  /// entry on, and an empty store still validates query dimensions.
  explicit VectorStore(std::size_t dim) : dim_(dim) {}

  /// Build a store by embedding every document with `embedder` (which must
  /// already be fitted). Mirrors Chroma.from_documents.
  static VectorStore from_documents(std::vector<text::Document> docs,
                                    const embed::Embedder& embedder);

  /// Add one entry. The vector is L2-normalized on insertion; its dimension
  /// must match existing entries.
  void add(text::Document doc, embed::Vector vec);

  /// Add one entry whose vector is already unit norm (copied from another
  /// store or read back by load()). Skipping the re-normalization keeps the
  /// vector bit-identical — the ingest delta-merge relies on this so old
  /// chunks score exactly as they did in the previous generation.
  void add_prenormalized(text::Document doc, embed::Vector vec);

  [[nodiscard]] std::size_t size() const { return docs_.size(); }
  [[nodiscard]] bool empty() const { return docs_.empty(); }
  [[nodiscard]] std::size_t dimension() const { return dim_; }

  /// Entry access.
  [[nodiscard]] const text::Document& doc(std::size_t i) const;
  [[nodiscard]] const embed::Vector& vec(std::size_t i) const;

  /// The packed SoA mirror of the stored vectors (64-byte-aligned rows,
  /// dimension padded to a lane multiple). Both scoring paths — the flat
  /// scan here and HNSW traversal — read rows from this block through the
  /// same kernel, which is what keeps their scores mutually bit-identical.
  [[nodiscard]] const kernels::PackedF32& packed() const { return packed_; }

  /// Score one stored row against a packed query (kernels::PackedF32
  /// layout, stride() floats). This is THE scoring expression of the store:
  /// indexes call it so their hits carry exactly the scores the flat scan
  /// would produce.
  [[nodiscard]] float kernel_score(const float* packed_query,
                                   std::size_t i) const {
    return kernels::dot_f32(packed_query, packed_.row(i), packed_.stride());
  }

  /// Exact top-k by cosine similarity (descending). Ties break by lower
  /// index for determinism. `filter`, when given, drops entries before
  /// scoring.
  [[nodiscard]] std::vector<SearchResult> similarity_search(
      const embed::Vector& query, std::size_t k,
      const MetadataFilter* filter = nullptr) const;

  /// Convenience: embed the query text with `embedder` then search.
  [[nodiscard]] std::vector<SearchResult> similarity_search_text(
      std::string_view query, std::size_t k,
      const embed::Embedder& embedder) const;

  /// Find the entry whose document id equals `id`; nullopt when absent.
  [[nodiscard]] std::optional<std::size_t> find_id(std::string_view id) const;

  /// Attach a chaos plan consulted (Stage::VectorSearch) at each
  /// similarity_search entry: error decisions
  /// throw the matching resilience::FaultError (latency spikes are ignored —
  /// search time here is real, not simulated). Not persisted by save/load.
  /// Setup-time only — must not race in-flight searches. Stores pinned in
  /// rag snapshots are reached through const pointers, so the serving path
  /// injects at the retriever instead; this hook serves direct store users.
  void set_fault_plan(const pkb::resilience::FaultPlan* plan) {
    fault_plan_ = plan;
  }

  /// Persist to / restore from a binary file. Throws std::runtime_error on
  /// I/O errors or format mismatch: load() validates magic, version, counts
  /// and dimensions, and every read, so a truncated or corrupt file is a
  /// clear error instead of a garbage store.
  void save(const std::string& path) const;
  static VectorStore load(const std::string& path);

  /// Stream variants: the store blob embeds cleanly inside a larger file
  /// (rag::Snapshot persistence writes one as its vector section). load()
  /// consumes exactly the blob and leaves the stream positioned after it.
  void save(std::ostream& out) const;
  static VectorStore load(std::istream& in);

 private:
  /// Top-k selection over a precomputed score array (score descending,
  /// lower index first on ties — the order every index reproduces).
  [[nodiscard]] std::vector<SearchResult> select_top_k(
      const std::vector<float>& scores, std::size_t k,
      const MetadataFilter* filter) const;

  std::vector<text::Document> docs_;
  std::vector<embed::Vector> vecs_;
  kernels::PackedF32 packed_;  ///< SoA mirror of vecs_, scanned by kernels
  std::size_t dim_ = 0;
  const pkb::resilience::FaultPlan* fault_plan_ = nullptr;
};

}  // namespace pkb::vectordb
