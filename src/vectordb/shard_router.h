#pragma once
// Sharded scatter–gather retrieval — the horizontal-scaling layer of the
// vector database (ROADMAP: partition the store so the index scales past
// one scan's memory bandwidth).
//
// A ShardRouter holds N immutable VectorStore shards covering contiguous,
// disjoint global index ranges. Each query scans shards 0..N-1 in order on
// the calling thread, then the per-shard top-k lists are merged with
// exactly the monolithic comparator (score descending, global index
// ascending). Because shard vectors are copied pre-normalized
// and scored with the same SIMD kernels (vectordb/kernels.h) the monolithic
// scan uses, the merged result is bit-identical to
// VectorStore::similarity_search on the unsharded store — indices, scores,
// and order.
//
// Partition tolerance reuses the resilience layer per shard: each shard has
// its own CircuitBreaker and a kill switch (kill_shard); a scan that faults
// (injected FaultPlan decision or dead shard) is hedged, and a shard lost
// past its hedges degrades the answer — the Scatter comes back `partial()`
// with that shard's documents missing — instead of failing the request.
// Everything is observable under pkb_shard_* and the shard_scatter /
// shard_merge spans (docs/OBSERVABILITY.md).
//
// Index composition: ShardRouterOptions::index carries an IndexSpec
// (index.h); each shard builds its own AnnIndex over its slice at
// construction, and scans route through it (per-shard ANN, merge
// unchanged). This composes because every index returns shard-local hit
// indices with flat-scan-exact fp32 scores — after the offset remap the
// merge comparator cannot tell indexed hits from scanned ones. The
// identity spec (flat fp32) builds no index and scans the stores directly.
// Metadata filters bypass per-shard indexes (ANN candidate sets are not
// filter-aware); filtered scatters use the exact scan.
//
// Generational use: rag::Snapshot owns at most one router, built from the
// snapshot's store at publish time. Routers are immutable in shape;
// with_shard_replaced() derives the next generation's router by swapping a
// single shard while *sharing* the untouched shard objects (stores, breakers,
// dead flags), so a rolling shard-by-shard rollout is N cheap snapshot
// publishes — and a reader's pinned snapshot pins every shard of its
// generation, never observing a mixed one.

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "resilience/fault_plan.h"
#include "resilience/policy.h"
#include "vectordb/index.h"
#include "vectordb/vector_store.h"

namespace pkb::vectordb {

struct ShardRouterOptions {
  /// Per-shard circuit breaker configuration.
  resilience::BreakerOptions breaker;
  /// Breaker cooldown clock; defaults to resilience::mono_seconds. Tests
  /// inject a fake clock to drive open -> half-open deterministically.
  resilience::Clock breaker_clock;
  /// ANN spec built per shard over its slice (index.h). The identity spec
  /// (flat fp32, the default) builds nothing and shards scan exactly.
  IndexSpec index;
};

/// One scatter–gather answer. `hits` is bit-identical to the monolithic
/// top-k when every shard answered; with failed shards it is the exact
/// top-k over the surviving shards' documents (partial, tagged).
struct Scatter {
  std::vector<SearchResult> hits;
  std::size_t shards_failed = 0;
  std::size_t shards_total = 0;
  [[nodiscard]] bool partial() const { return shards_failed > 0; }
};

class ShardRouter {
 public:
  /// Partition `store` into `shards` contiguous slices (sizes differ by at
  /// most one). Vectors are copied pre-normalized, so shard-local scores are
  /// bit-identical to the monolithic scan's. Requires shards >= 1.
  static std::shared_ptr<ShardRouter> partition(const VectorStore& store,
                                                std::size_t shards,
                                                ShardRouterOptions opts = {});

  /// Derive a router with shard `shard` replaced by `replacement` (same
  /// role in the global index space; its size may differ — offsets are
  /// recomputed). All other shard objects are shared with this router, so a
  /// rolling shard-by-shard swap allocates only the shard actually changing.
  [[nodiscard]] std::shared_ptr<ShardRouter> with_shard_replaced(
      std::size_t shard, VectorStore replacement) const;

  /// Scan every live shard for one query, in shard order on the calling
  /// thread, and merge per-shard top-k into the global top-k (score
  /// descending, global index ascending — the exact select_top_k order).
  /// `plan` (nullable) is consulted (Stage::VectorSearch) once per shard
  /// scan attempt, and a faulted shard scan is re-attempted
  /// resilience::kSearchHedges times before the shard is declared lost for
  /// this query. Throws std::invalid_argument on dimension mismatch; shard
  /// failures degrade the Scatter instead of throwing.
  [[nodiscard]] Scatter search(
      const embed::Vector& query, std::size_t k,
      const MetadataFilter* filter = nullptr,
      const resilience::FaultPlan* plan = nullptr) const;

  [[nodiscard]] std::size_t shard_count() const { return shards_.size(); }
  /// Total documents across shards.
  [[nodiscard]] std::size_t size() const { return total_; }
  [[nodiscard]] std::size_t dimension() const { return dim_; }
  /// Shard `i`'s store and its global index offset (entry j of shard i is
  /// global index shard_offset(i) + j).
  [[nodiscard]] const VectorStore& shard(std::size_t i) const;
  [[nodiscard]] std::size_t shard_offset(std::size_t i) const;

  /// Chaos switches: a dead shard fails every scan (through the breaker, so
  /// sustained death trips it open) until revived. Thread-safe; shared with
  /// routers derived via with_shard_replaced (killing a shard kills it in
  /// every generation that shares the shard object).
  void kill_shard(std::size_t i);
  void revive_shard(std::size_t i);
  [[nodiscard]] bool shard_dead(std::size_t i) const;
  [[nodiscard]] resilience::CircuitBreaker::State breaker_state(
      std::size_t i) const;

 private:
  struct Shard {
    std::shared_ptr<const VectorStore> store;
    /// Per-shard ANN index (null for the identity spec); owned alongside
    /// the store so a derived router shares both or neither.
    std::shared_ptr<const AnnIndex> index;
    std::shared_ptr<resilience::CircuitBreaker> breaker;
    std::shared_ptr<std::atomic<bool>> dead;
  };

  ShardRouter() = default;
  void rebuild_offsets();
  [[nodiscard]] Shard make_shard(VectorStore store) const;

  /// One shard's scan of `query`, breaker-gated and hedged. On success
  /// stores the globally re-indexed hits in `out`; returns false when the
  /// shard is lost.
  [[nodiscard]] bool scan_shard(std::size_t shard, const embed::Vector& query,
                                std::size_t k, const MetadataFilter* filter,
                                const resilience::FaultPlan* plan,
                                std::vector<SearchResult>& out) const;

  std::vector<Shard> shards_;
  std::vector<std::size_t> offsets_;  ///< global index base per shard
  std::size_t total_ = 0;
  std::size_t dim_ = 0;
  ShardRouterOptions opts_;
};

}  // namespace pkb::vectordb
