#pragma once
// Vector database — the Chroma equivalent of §III-A.
//
// Stores unit-norm embeddings, one row per entry, and answers top-k
// similarity queries by row index. The store holds no documents: the
// caller keeps the entries' documents in its own list, in row order
// (rag::Snapshot::chunks), and resolves hits through SearchResult::index.
// The rows live in one packed SoA block (kernels::PackedF32), the only
// copy of each vector. Exact search scans that block with the SIMD kernels
// in kernels.h on the calling thread (partial-sort top-k); the HNSW graph
// in hnsw.h is the approximate fast path over the same rows.

#include <span>
#include <vector>

#include "embed/embedder.h"
#include "vectordb/kernels.h"

namespace pkb::vectordb {

/// One search hit: the entry's row in the store and its score.
struct SearchResult {
  std::size_t index = 0;
  float score = 0.0f;  ///< cosine similarity (vectors are unit norm)

  bool operator==(const SearchResult&) const = default;
};

/// Flat (exact) vector store.
class VectorStore {
 public:
  VectorStore() = default;

  /// An empty store with its dimension fixed up front: add() and
  /// add_prenormalized() then reject any other dimension from the first
  /// entry on, and an empty store still validates query dimensions.
  explicit VectorStore(std::size_t dim) : packed_(dim), dim_(dim) {}

  /// Build a store by embedding every analysed document with `embedder`
  /// (which must already be fitted); row i embeds docs[i]. Mirrors
  /// Chroma.from_documents, except that the documents stay with the caller.
  static VectorStore from_analyses(std::span<const text::AnalysisPtr> docs,
                                   const embed::Embedder& embedder);

  /// Append one row. The vector is L2-normalized on insertion; its dimension
  /// must match existing rows.
  void add(embed::Vector vec);

  /// Append one row that is already unit norm (copied from another store's
  /// vec(i); never a view of this store's own rows, which the append may
  /// move). Skipping the re-normalization keeps the row bit-identical — the
  /// ingest delta-merge relies on this so old chunks score exactly as they
  /// did in the previous generation.
  void add_prenormalized(std::span<const float> vec);

  /// Allocate the packed block for `rows` rows at once, so a store whose
  /// final size is known holds exactly its rows instead of a doubled block.
  /// Needs the dimension (the VectorStore(dim) constructor or a first row);
  /// a store of unknown dimension ignores the call.
  void reserve(std::size_t rows) {
    if (dim_ > 0) packed_.reserve(rows);
  }

  [[nodiscard]] std::size_t size() const { return packed_.rows(); }
  [[nodiscard]] bool empty() const { return packed_.rows() == 0; }
  [[nodiscard]] std::size_t dimension() const { return dim_; }

  /// Row i of the packed block, dimension() floats long; valid until the
  /// next add. Throws std::out_of_range for i >= size().
  [[nodiscard]] std::span<const float> vec(std::size_t i) const;

  /// The packed SoA block holding every row (64-byte-aligned rows,
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
  /// index for determinism.
  [[nodiscard]] std::vector<SearchResult> similarity_search(
      const embed::Vector& query, std::size_t k) const;

 private:
  kernels::PackedF32 packed_;  ///< every row, scanned by the kernels
  std::size_t dim_ = 0;
};

}  // namespace pkb::vectordb
