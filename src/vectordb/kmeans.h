#pragma once
// Deterministic parallel k-means — the coarse quantizer under the IVF build
// (ivf.cpp). Points are unit norm and distance is 1 − dot; centroids are
// re-normalized every iteration.
//
// The trainer runs entirely on the packed SIMD kernels (vectordb/kernels.h)
// and a util::ThreadPool, yet is bit-deterministic regardless of worker
// count: every parallel pass splits the rows into chunks whose boundaries
// depend only on n (never on pool size), each chunk accumulates its partial
// sums in double, and the partials are merged on the calling thread in
// ascending chunk order. RNG draws (k-means++ sampling, degenerate
// re-seeds) all happen sequentially on the calling thread. Same data + same
// options ⇒ byte-identical centroids and assignments at 1, 2, or 64
// workers, and across SIMD backends wherever the kernel contract holds
// (double-exact products, one rounding).
//
// k-means++ seeds on a deterministic evenly-strided subsample of at most
// max(2048, 8k) rows (a pure function of n and k, so determinism is
// untouched): seeding is O(k · sample) with an inherently sequential
// weighted draw per round. Lloyd refinement always runs on every row.
//
// Degenerate re-seeds (a k-means++ round with zero total weight, or a Lloyd
// cluster that lost all members) draw a random starting row and then probe
// forward for a row whose value differs from every current centroid, so a
// re-seed never wastes a cluster on a duplicate while fresh points exist —
// the failure mode the old in-line IVF k-means had. `find_fresh_row` is
// exposed for the regression test.
//
// `kmeans_cluster_reference` is the same algorithm as plain single-thread
// scalar loops (no kernels, no pool) — the honest baseline the
// bench/ann_frontier build-speedup gate compares against.

#include <cstdint>
#include <vector>

#include "vectordb/kernels.h"

namespace pkb::util {
class ThreadPool;
}

namespace pkb::vectordb {

struct KmeansOptions {
  /// Cluster count; clamped to the number of rows.
  std::size_t k = 1;
  /// Lloyd iterations after k-means++ initialization.
  std::size_t iters = 10;
  /// Seed for k-means++ sampling and degenerate re-seeds.
  std::uint64_t seed = 42;
  /// Pool for the chunked passes; nullptr = util::global_pool(). Worker
  /// count never changes the result.
  util::ThreadPool* pool = nullptr;
};

struct KmeansResult {
  /// k centroid rows (dim = input dim).
  kernels::PackedF32 centroids;
  /// Nearest centroid per input row (argmax score, lower index on ties).
  std::vector<std::uint32_t> assign;
  /// Members per centroid under `assign`.
  std::vector<std::uint32_t> counts;
};

/// Cluster the rows of `data`. Deterministic: same data + options yields
/// byte-identical centroids/assign/counts for any pool size. Throws
/// std::invalid_argument on an empty matrix or k == 0.
[[nodiscard]] KmeansResult kmeans_cluster(const kernels::PackedF32& data,
                                          const KmeansOptions& opts);

/// Single-thread scalar reference (plain double-accumulated loops, no SIMD
/// kernels, no pool). Same algorithm and RNG stream; exists as the honest
/// baseline for build-speed comparisons, not for bit-parity with
/// kmeans_cluster.
[[nodiscard]] KmeansResult kmeans_cluster_reference(
    const kernels::PackedF32& data, const KmeansOptions& opts);

/// Starting at a random row (one RNG draw), probe forward cyclically for a
/// row whose value differs from every centroid in `centroids`; returns the
/// drawn row when all rows duplicate some centroid. This is the degenerate
/// re-seed rule: it never picks a row already equal to a centroid while a
/// fresh row exists. Exposed for the re-seed regression test.
[[nodiscard]] std::size_t find_fresh_row(const kernels::PackedF32& data,
                                         const kernels::PackedF32& centroids,
                                         std::uint64_t random_start);

}  // namespace pkb::vectordb
