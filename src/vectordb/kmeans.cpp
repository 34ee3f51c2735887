#include "vectordb/kmeans.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <future>
#include <limits>
#include <stdexcept>

#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "util/clock.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace pkb::vectordb {

namespace {

/// Chunk boundaries depend only on n — never on pool size — so partial
/// reductions merge in the same order no matter how many workers ran them.
constexpr std::size_t kMaxChunks = 256;
constexpr std::size_t kMinChunk = 1024;

std::size_t chunk_size_for(std::size_t n) {
  return std::max(kMinChunk, (n + kMaxChunks - 1) / kMaxChunks);
}

std::size_t chunk_count_for(std::size_t n) {
  const std::size_t chunk = chunk_size_for(n);
  return n == 0 ? 0 : (n + chunk - 1) / chunk;
}

/// Run fn(chunk_index, begin, end) over [0, n) on the pool; blocks until all
/// chunks finish. Single-chunk ranges run inline.
void run_chunks(
    util::ThreadPool& pool, std::size_t n,
    const std::function<void(std::size_t, std::size_t, std::size_t)>& fn) {
  const std::size_t chunk = chunk_size_for(n);
  const std::size_t nchunks = chunk_count_for(n);
  if (nchunks <= 1) {
    if (n > 0) fn(0, 0, n);
    return;
  }
  std::vector<std::future<void>> futures;
  futures.reserve(nchunks);
  for (std::size_t c = 0; c < nchunks; ++c) {
    const std::size_t b = c * chunk;
    const std::size_t e = std::min(n, b + chunk);
    futures.push_back(pool.submit([&fn, c, b, e] { fn(c, b, e); }));
  }
  for (auto& f : futures) f.get();
}

bool row_equals(const float* a, const float* b, std::size_t dim) {
  return std::memcmp(a, b, dim * sizeof(float)) == 0;
}

bool row_matches_any(const float* row, const kernels::PackedF32& centroids) {
  for (std::size_t c = 0; c < centroids.rows(); ++c) {
    if (row_equals(row, centroids.row(c), centroids.dim())) return true;
  }
  return false;
}

}  // namespace

std::size_t find_fresh_row(const kernels::PackedF32& data,
                           const kernels::PackedF32& centroids,
                           std::uint64_t random_start) {
  const std::size_t n = data.rows();
  const std::size_t start = static_cast<std::size_t>(random_start % n);
  for (std::size_t off = 0; off < n; ++off) {
    const std::size_t i = (start + off) % n;
    if (!row_matches_any(data.row(i), centroids)) return i;
  }
  return start;  // every row duplicates a centroid; nothing better exists
}

KmeansResult kmeans_cluster(const kernels::PackedF32& data,
                            const KmeansOptions& opts_in) {
  const std::size_t n = data.rows();
  if (n == 0 || opts_in.k == 0) {
    throw std::invalid_argument("kmeans_cluster: empty input or k == 0");
  }
  pkb::util::Stopwatch watch;
  KmeansOptions opts = opts_in;
  opts.k = std::min(opts.k, n);
  util::ThreadPool& pool = opts.pool ? *opts.pool : util::global_pool();
  const std::size_t k = opts.k;
  const std::size_t dim = data.dim();
  util::Rng rng(opts.seed);
  const std::size_t nchunks = chunk_count_for(n);

  // --- k-means++ initialization -------------------------------------------
  // Seeding works on a deterministic evenly-strided subsample: every round
  // updates min-distances and walks a weighted draw over the whole pool,
  // and the draw is inherently sequential scalar work, so on the full
  // corpus it dominated the build. The sample is a pure function of n and
  // k — determinism is untouched — and Lloyd below refines on every row.
  const std::size_t seed_n = std::min(n, std::max<std::size_t>(2048, 8 * k));
  const auto sample_row = [n, seed_n](std::size_t i) {
    return i * n / seed_n;  // evenly strided, strictly increasing
  };
  const std::size_t seed_chunks = chunk_count_for(seed_n);

  // Dimension-major copy of the sampled rows (data_trans[d * seed_n + i] =
  // sampled row i, dim d): one centroid scored against a chunk of rows is
  // then a dots_trans_f32 call with full lane occupancy.
  std::vector<float> data_trans(dim * seed_n);
  run_chunks(pool, seed_n, [&](std::size_t, std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) {
      const float* row = data.row(sample_row(i));
      for (std::size_t d = 0; d < dim; ++d) {
        data_trans[d * seed_n + i] = row[d];
      }
    }
  });

  // Distance updates are chunked on the pool; the weighted draw itself is
  // sequential on this thread (one rng stream, fixed order). Zero-weight
  // rows (duplicates of already-chosen centroids) are skipped by the walk,
  // and a zero total falls back to a fresh-row probe over the full data —
  // both degenerate paths of the old in-line IVF k-means that could waste
  // a cluster.
  kernels::PackedF32 centroids(dim);
  centroids.append(data.row(rng.below(n)));
  std::vector<double> min_dist(seed_n, 2.0);
  std::vector<double> chunk_total(seed_chunks, 0.0);
  while (centroids.rows() < k) {
    const float* latest = centroids.row(centroids.rows() - 1);
    run_chunks(pool, seed_n, [&](std::size_t c, std::size_t b, std::size_t e) {
      // One transposed kernel pass per chunk: the new centroid against rows
      // [b, e) of the dimension-major copy, each dot bit-identical to the
      // scalar backend.
      std::vector<float> dots(e - b);
      kernels::dots_trans_f32(latest, data_trans.data() + b, dim, e - b,
                              seed_n, dots.data());
      double total = 0.0;
      for (std::size_t i = b; i < e; ++i) {
        const double d =
            std::max(0.0, 1.0 - static_cast<double>(dots[i - b]));
        if (d < min_dist[i]) min_dist[i] = d;
        total += min_dist[i];
      }
      chunk_total[c] = total;
    });
    double total = 0.0;
    for (std::size_t c = 0; c < seed_chunks; ++c) total += chunk_total[c];

    std::size_t chosen;
    if (total <= 0.0) {
      chosen = find_fresh_row(data, centroids, rng.below(n));
    } else {
      double target = rng.uniform() * total;
      std::size_t last_positive = seed_n;
      for (std::size_t i = 0; i < seed_n; ++i) {
        if (min_dist[i] <= 0.0) continue;
        last_positive = i;
        target -= min_dist[i];
        if (target <= 0.0) break;
      }
      // total > 0 guarantees a positive-weight row.
      chosen = sample_row(last_positive);
    }
    centroids.append(data.row(chosen));
  }

  // --- Lloyd refinement ----------------------------------------------------
  KmeansResult res;
  res.assign.assign(n, 0);
  std::vector<std::uint32_t>& assign = res.assign;
  std::vector<std::uint32_t> counts(k, 0);

  // Assignment scores every row against every centroid — the build's hot
  // loop. It runs on the fused transposed kernel (nearest_trans_f32):
  // centroids in dimension-major order, SIMD lanes across centroids with the
  // running max kept in registers, so no score buffer is materialized.
  //
  // Columns are padded to a multiple of 16 with copies of centroid 0 so the
  // kernel's widest vector loop covers every column (IVF's k = ⌈√n⌉ leaves
  // a scalar per-row tail otherwise). A duplicate of column 0 scores
  // bit-identically to column 0 and therefore can never win the argmax —
  // ties resolve to the lowest index — so padding never changes an
  // assignment.
  const std::size_t kpad = (k + 15) / 16 * 16;

  std::vector<float> trans(dim * kpad);
  const auto refresh_trans = [&] {
    for (std::size_t c = 0; c < k; ++c) {
      const float* row = centroids.row(c);
      for (std::size_t d = 0; d < dim; ++d) trans[d * kpad + c] = row[d];
    }
    const float* row0 = centroids.row(0);
    for (std::size_t c = k; c < kpad; ++c) {
      for (std::size_t d = 0; d < dim; ++d) trans[d * kpad + c] = row0[d];
    }
  };

  const auto assign_pass = [&] {
    run_chunks(pool, n, [&](std::size_t, std::size_t b, std::size_t e) {
      for (std::size_t i = b; i < e; ++i) {
        assign[i] = static_cast<std::uint32_t>(kernels::nearest_trans_f32(
            data.row(i), trans.data(), dim, kpad, kpad));
      }
    });
  };

  // Per-chunk double partial sums, merged in ascending chunk order: the
  // accumulation order is a function of n alone, so centroid means are
  // byte-identical at any worker count.
  std::vector<double> sums;
  const auto reduce_pass = [&] {
    std::vector<std::vector<double>> part_sums(nchunks);
    std::vector<std::vector<std::uint32_t>> part_counts(nchunks);
    run_chunks(pool, n, [&](std::size_t c, std::size_t b, std::size_t e) {
      auto& ps = part_sums[c];
      auto& pc = part_counts[c];
      ps.assign(k * dim, 0.0);
      pc.assign(k, 0);
      for (std::size_t i = b; i < e; ++i) {
        const float* row = data.row(i);
        double* dst = ps.data() + assign[i] * dim;
        for (std::size_t d = 0; d < dim; ++d) dst[d] += row[d];
        ++pc[assign[i]];
      }
    });
    sums.assign(k * dim, 0.0);
    counts.assign(k, 0);
    for (std::size_t c = 0; c < nchunks; ++c) {
      for (std::size_t j = 0; j < k * dim; ++j) sums[j] += part_sums[c][j];
      for (std::size_t j = 0; j < k; ++j) counts[j] += part_counts[c][j];
    }
  };

  std::vector<float> tmp(dim);
  const auto update_pass = [&] {
    for (std::size_t c = 0; c < k; ++c) {
      if (counts[c] == 0) {
        // Lost every member — re-seed from a row that duplicates no current
        // centroid (including ones re-seeded earlier this pass).
        centroids.set_row(
            c, data.row(find_fresh_row(data, centroids, rng.below(n))));
        continue;
      }
      const double inv = 1.0 / static_cast<double>(counts[c]);
      const double* src = sums.data() + c * dim;
      double norm = 0.0;
      for (std::size_t d = 0; d < dim; ++d) {
        const double v = src[d] * inv;
        norm += v * v;
      }
      norm = std::sqrt(norm);
      if (norm <= 0.0) {
        centroids.set_row(
            c, data.row(find_fresh_row(data, centroids, rng.below(n))));
        continue;
      }
      for (std::size_t d = 0; d < dim; ++d) {
        tmp[d] = static_cast<float>(src[d] * inv / norm);
      }
      centroids.set_row(c, tmp.data());
    }
  };

  for (std::size_t iter = 0; iter < opts.iters; ++iter) {
    refresh_trans();
    assign_pass();
    reduce_pass();
    update_pass();
  }

  // Final assignment. A centroid can still end up memberless here (it was
  // re-seeded after the last full pass, or lost a tie); give empties a few
  // fresh re-seed rounds so a cluster is only ever wasted when the data has
  // fewer distinct rows than k.
  for (std::size_t round = 0; round < 4; ++round) {
    refresh_trans();
    assign_pass();
    counts.assign(k, 0);
    for (std::size_t i = 0; i < n; ++i) ++counts[assign[i]];
    bool fixed_one = false;
    for (std::size_t c = 0; c < k; ++c) {
      if (counts[c] != 0) continue;
      const std::size_t fresh =
          find_fresh_row(data, centroids, rng.below(n));
      if (row_matches_any(data.row(fresh), centroids)) continue;  // no fix
      centroids.set_row(c, data.row(fresh));
      fixed_one = true;
    }
    if (!fixed_one) break;
  }

  res.centroids = std::move(centroids);
  res.counts = std::move(counts);
  obs::global_metrics()
      .histogram(obs::kAnnBuildKmeansSeconds)
      .observe(watch.seconds());
  return res;
}

KmeansResult kmeans_cluster_reference(const kernels::PackedF32& data,
                                      const KmeansOptions& opts_in) {
  const std::size_t n = data.rows();
  if (n == 0 || opts_in.k == 0) {
    throw std::invalid_argument(
        "kmeans_cluster_reference: empty input or k == 0");
  }
  KmeansOptions opts = opts_in;
  opts.k = std::min(opts.k, n);
  const std::size_t k = opts.k;
  const std::size_t dim = data.dim();
  util::Rng rng(opts.seed);

  const auto ref_dot = [dim](const float* a, const float* b) {
    double acc = 0.0;
    for (std::size_t d = 0; d < dim; ++d) {
      acc += static_cast<double>(a[d]) * b[d];
    }
    return acc;
  };

  // Same evenly-strided seeding subsample as kmeans_cluster (pure function
  // of n and k), so the two trainers run the same algorithm.
  const std::size_t seed_n = std::min(n, std::max<std::size_t>(2048, 8 * k));
  const auto sample_row = [n, seed_n](std::size_t i) {
    return i * n / seed_n;
  };

  kernels::PackedF32 centroids(dim);
  centroids.append(data.row(rng.below(n)));
  std::vector<double> min_dist(seed_n, 2.0);
  while (centroids.rows() < k) {
    const float* latest = centroids.row(centroids.rows() - 1);
    double total = 0.0;
    for (std::size_t i = 0; i < seed_n; ++i) {
      const double d =
          std::max(0.0, 1.0 - ref_dot(latest, data.row(sample_row(i))));
      if (d < min_dist[i]) min_dist[i] = d;
      total += min_dist[i];
    }
    std::size_t chosen;
    if (total <= 0.0) {
      chosen = find_fresh_row(data, centroids, rng.below(n));
    } else {
      double target = rng.uniform() * total;
      std::size_t last_positive = seed_n;
      for (std::size_t i = 0; i < seed_n; ++i) {
        if (min_dist[i] <= 0.0) continue;
        last_positive = i;
        target -= min_dist[i];
        if (target <= 0.0) break;
      }
      chosen = sample_row(last_positive);
    }
    centroids.append(data.row(chosen));
  }

  KmeansResult res;
  res.assign.assign(n, 0);
  std::vector<std::uint32_t> counts(k, 0);
  std::vector<double> sums(k * dim, 0.0);
  std::vector<float> tmp(dim);

  const auto assign_pass = [&] {
    for (std::size_t i = 0; i < n; ++i) {
      const float* row = data.row(i);
      std::size_t arg = 0;
      double best = -std::numeric_limits<double>::infinity();
      for (std::size_t c = 0; c < k; ++c) {
        const double s = ref_dot(row, centroids.row(c));
        if (s > best) {
          best = s;
          arg = c;
        }
      }
      res.assign[i] = static_cast<std::uint32_t>(arg);
    }
  };

  for (std::size_t iter = 0; iter < opts.iters; ++iter) {
    assign_pass();
    std::fill(sums.begin(), sums.end(), 0.0);
    counts.assign(k, 0);
    for (std::size_t i = 0; i < n; ++i) {
      const float* row = data.row(i);
      double* dst = sums.data() + res.assign[i] * dim;
      for (std::size_t d = 0; d < dim; ++d) dst[d] += row[d];
      ++counts[res.assign[i]];
    }
    for (std::size_t c = 0; c < k; ++c) {
      if (counts[c] == 0) {
        centroids.set_row(
            c, data.row(find_fresh_row(data, centroids, rng.below(n))));
        continue;
      }
      const double inv = 1.0 / static_cast<double>(counts[c]);
      const double* src = sums.data() + c * dim;
      double norm = 0.0;
      for (std::size_t d = 0; d < dim; ++d) {
        const double v = src[d] * inv;
        norm += v * v;
      }
      norm = std::sqrt(norm);
      if (norm <= 0.0) {
        centroids.set_row(
            c, data.row(find_fresh_row(data, centroids, rng.below(n))));
        continue;
      }
      for (std::size_t d = 0; d < dim; ++d) {
        tmp[d] = static_cast<float>(src[d] * inv / norm);
      }
      centroids.set_row(c, tmp.data());
    }
  }

  assign_pass();
  counts.assign(k, 0);
  for (std::size_t i = 0; i < n; ++i) ++counts[res.assign[i]];
  res.centroids = std::move(centroids);
  res.counts = std::move(counts);
  return res;
}

}  // namespace pkb::vectordb
