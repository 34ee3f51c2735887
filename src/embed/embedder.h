#pragma once
// Embedding models.
//
// The paper evaluates several embedding models (OpenAI text-embedding-3-large
// performing best). We hand-roll four families spanning the same
// quality/speed/semantics trade-off space, all behind one interface:
//
//   * TfidfEmbedder     — sparse-in-spirit lexical embedding (exact terms)
//   * HashEmbedder      — hashing-trick bag of words, fixed dimension
//   * LsaEmbedder       — dense semantic embedding via truncated SVD of the
//                         TF-IDF matrix (the "neural-like" model: lossy,
//                         captures topical similarity, misses exact terms)
//   * CharNgramEmbedder — hashed character n-grams (robust to typos and
//                         API-symbol morphology)
//
// All embedders L2-normalize their output so inner product == cosine.
// They read text only as text::TextAnalysis: the snapshot's chunk analyses
// and the request's QueryAnalysis.

#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "text/analysis.h"

namespace pkb::embed {

/// Dense embedding vector.
using Vector = std::vector<float>;

/// Euclidean norm.
[[nodiscard]] float norm(const Vector& v);

/// Scale to unit norm (no-op on the zero vector).
void l2_normalize(Vector& v);

/// Common interface. Lifecycle: construct -> fit(analyses) -> embed(analysis).
/// fit() may be a no-op for models without corpus statistics.
class Embedder {
 public:
  virtual ~Embedder() = default;

  /// Stable model identifier, e.g. "sim-tfidf".
  [[nodiscard]] virtual std::string name() const = 0;

  /// Output dimensionality (valid after fit()).
  [[nodiscard]] virtual std::size_t dimension() const = 0;

  /// Learn corpus statistics (vocabulary, IDF, SVD basis, ...).
  virtual void fit(std::span<const text::AnalysisPtr> docs) = 0;

  /// Embed one analysed text: a chunk's, or text::analyze(question). Must be
  /// called after fit(). Thread-safe.
  [[nodiscard]] virtual Vector embed(const text::TextAnalysis& text) const = 0;

  /// Embed many analysed texts in parallel (uses the global thread pool).
  [[nodiscard]] std::vector<Vector> embed_batch(
      std::span<const text::AnalysisPtr> docs) const;
};

/// Create an embedder by registry name:
///   "sim-tfidf";
///   "sim-lsa-<rank>", "sim-hash-<dim>", "sim-charngram-<dim>"
///     (e.g. "sim-lsa-64", "sim-hash-512", "sim-charngram-512");
///   "sim-blend-<rank>-<dim>-w<pct>" — BlendEmbedder(rank, dim, pct / 100):
///     LSA rank <rank> blended with a <dim>-bucket hashed bag of words at
///     lexical weight <pct>% (e.g. "sim-blend-32-256-w25");
/// plus the paper-flavored aliases
///   "sim-embed-3-large" (= BlendEmbedder(32, 256, 0.10): the strongest
///                          retrieval model here),
///   "sim-embed-3-small" (= BlendEmbedder(16, 128, 0.2)),
///   "sim-embed-ada"     (= HashEmbedder(256), i.e. "sim-hash-256").
/// Throws std::invalid_argument for unknown names.
[[nodiscard]] std::unique_ptr<Embedder> make_embedder(std::string_view name);

}  // namespace pkb::embed
