#pragma once
// HNSW (hierarchical navigable small world) graph index over a VectorStore —
// the one approximate search path (the flat scan is the exact one).
//
// Build: every vector becomes a graph node with a geometrically distributed
// top level (seeded RNG — builds are deterministic for a given store +
// options). Insertion greedily descends from the global entry point through
// the upper layers, then at each layer ≤ the node's level runs a beam
// search of width `ef_construction` and links the node bidirectionally to
// neighbors chosen by the paper's diversity heuristic (Algorithm 4: keep a
// candidate only if it is closer to the new node than to any already-kept
// neighbor — naive nearest-m linking collapses recall on high-dim data).
// Layer 0 allows 2m links, upper layers m; overful neighbor lists are
// re-selected with the same heuristic. Adjacency lists live in one
// util::Arena slab sized to them exactly — fixed-capacity arrays, no
// per-node malloc.
//
// Build cost: the re-selection re-scores the overful list against its
// owner, and the heuristic scores candidate pairs again on every prune of
// the same list, so one build would compute each row pair ~20 times. A
// store of at most kMemoRows (4096) rows therefore builds with a memo of
// row-pair scores: a lower-triangular float table, filled lazily and
// dropped when build() returns, so the published index holds no extra
// state. Larger stores score every pair directly; their cold table reads
// cost more than the dots they save. A memoized score is exactly the float
// a recomputation returns, because dot_f32(a, b) == dot_f32(b, a) bit for
// bit on every backend (float×float products are exact in double, and the
// FMA is commutative in its multiplicands). The graph is the same either
// way. Beam searches and greedy steps are not memoized: they score the
// inserted row with the store's kernel_score, as query-time search does.
//
// Search: greedy descent through the upper layers to a good entry, then a
// beam search of width max(ef_search, k) on layer 0; the best k of the beam
// are returned. Scores on returned hits are computed with the store's fp32
// kernels — the flat scan's exact expression — so hits carry
// flat-scan-identical scores; only membership is approximate. Cost is
// O(ef · log n) distance evaluations versus the flat scan's O(n). Every
// search is instrumented (pkb_ann_* metrics, the `ann_search` span).
//
// The index is immutable after construction; the store must outlive it.
// Concurrent search() calls are safe — all scratch is per-call.

#include <cstdint>
#include <span>

#include "util/arena.h"
#include "vectordb/vector_store.h"

namespace pkb::vectordb {

/// Largest accepted HnswOptions::m: layer 0 holds 2m links and its
/// capacity must fit Links::cap (uint16_t).
inline constexpr std::size_t kHnswMaxM = 32767;

/// HNSW build/search parameters.
struct HnswOptions {
  /// Max links per node on layers ≥ 1 (layer 0 allows 2m); at most
  /// kHnswMaxM.
  std::size_t m = 32;
  /// Beam width during construction.
  std::size_t ef_construction = 128;
  /// Default beam width during search (≥ k for sensible recall).
  std::size_t ef_search = 64;
  /// RNG seed for level assignment.
  std::uint64_t seed = 42;

  bool operator==(const HnswOptions&) const = default;
};

/// Graph index bound to a VectorStore (which must outlive it and must not
/// grow after construction).
class HnswIndex {
 public:
  /// Build the graph over every row of `store`. Throws
  /// std::invalid_argument for an empty store or m > kHnswMaxM.
  explicit HnswIndex(const VectorStore& store, HnswOptions opts = {});

  /// Approximate top-k (query need not be normalized) with a beam of width
  /// max(options().ef_search, k). Hits are (row index, score) pairs, like
  /// VectorStore::similarity_search's.
  [[nodiscard]] std::vector<SearchResult> search(const embed::Vector& query,
                                                 std::size_t k) const;

  /// Recall@k of this index vs exact search for the given queries.
  [[nodiscard]] double recall_at_k(const std::vector<embed::Vector>& queries,
                                   std::size_t k) const;

  [[nodiscard]] const HnswOptions& options() const { return opts_; }
  [[nodiscard]] std::size_t max_level() const { return max_level_; }
  /// Total directed links across all layers.
  [[nodiscard]] std::size_t edge_count() const;

  /// Read-only view of the graph (tests pin its exact shape): the global
  /// entry node, a node's top layer, and its links on one layer in order.
  [[nodiscard]] std::uint32_t entry_point() const { return entry_; }
  [[nodiscard]] std::size_t level(std::size_t node) const {
    return links_[node].size() - 1;
  }
  [[nodiscard]] std::span<const std::uint32_t> neighbors(
      std::size_t node, std::size_t layer) const {
    const Links& l = links_[node][layer];
    return {l.nbr, l.count};
  }

 private:
  /// Fixed-capacity adjacency list for one node on one layer; `nbr` points
  /// into arena_.
  struct Links {
    std::uint32_t* nbr = nullptr;
    std::uint16_t count = 0;
    std::uint16_t cap = 0;
  };

  /// Build-scoped memo of scores between two stored rows (hnsw.cpp).
  class PairScores;

  void build();
  /// search() without the instrumentation around it.
  [[nodiscard]] std::vector<SearchResult> search_beam(
      const embed::Vector& query, std::size_t k) const;
  void insert(std::size_t node, std::size_t level, const float* packed_query,
              PairScores& pairs);
  /// Fill `out` with up to `cap` diverse neighbors from a best-first
  /// candidate list (the paper's Algorithm-4 heuristic; scores in
  /// `candidates` are similarities to the base point, row-to-row scores
  /// come from `pairs`).
  void select_neighbors(const std::vector<std::pair<float, std::uint32_t>>&
                            candidates,
                        std::size_t cap, Links& out, PairScores& pairs) const;
  /// Beam search of width ef on `layer` from `entry` for a packed query;
  /// returns (score, id) best-first. Scores are the store's fp32 kernel
  /// scores, so the beam already carries flat-scan-exact scores.
  [[nodiscard]] std::vector<std::pair<float, std::uint32_t>> search_layer(
      const float* packed_query, std::uint32_t entry, std::size_t ef,
      std::size_t layer) const;
  /// Greedy descent from `entry` on one upper layer; returns the local best.
  [[nodiscard]] std::uint32_t greedy_step(const float* packed_query,
                                          std::uint32_t entry,
                                          std::size_t layer) const;

  const VectorStore& store_;
  HnswOptions opts_;
  util::Arena arena_;
  std::vector<std::vector<Links>> links_;  ///< per node, layers 0..level
  std::uint32_t entry_ = 0;
  std::size_t max_level_ = 0;
};

}  // namespace pkb::vectordb
