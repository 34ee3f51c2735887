#pragma once
// SIMD scoring kernels and the packed row layout — the raw-speed substrate
// of the vector hot path.
//
// Every similarity score the vector database produces (flat scan, HNSW
// traversal) is an fp32 dot product with double accumulation — the exact
// scoring contract `embed::dot` established (accumulate in double, round
// once to float), which is what keeps top-k selection deterministic and the
// index-vs-flat exactness gates meaningful.
//
// Backends are selected ONCE at first use (CPUID on x86: AVX2+FMA; NEON on
// aarch64; portable scalar otherwise) and never change for the process, so
// all scores within a process are mutually consistent — the property the
// bit-exactness gates (index vs flat, rerank vs flat) rely on. Building
// with -DPKB_FORCE_SCALAR=ON pins the scalar backend at compile time; CI
// runs that configuration to keep the fallback honest on every change.
//
// Layout: `PackedF32` stores vectors row-major in one cache-line-aligned
// buffer (util/arena.h) with the dimension padded to a lane multiple.
// Padding lanes are exact zeros and contribute exactly zero to every
// accumulator, so a padded scan equals the unpadded scan — see
// AlignedBuffer's zero-fill contract.

#include <cstddef>
#include <string_view>

#include "util/arena.h"

namespace pkb::vectordb::kernels {

/// fp32 lane multiple rows are padded to (16 floats = one cache line).
inline constexpr std::size_t kF32Pad = 16;

/// Name of the dispatched backend: "avx2", "neon", or "scalar". Forced to
/// "scalar" under -DPKB_FORCE_SCALAR=ON.
[[nodiscard]] std::string_view backend_name();

/// Dot product of two fp32 vectors of length `n`, accumulated in double and
/// rounded once to float — the `embed::dot` contract. No alignment
/// requirement (handles unpacked query vectors).
[[nodiscard]] float dot_f32(const float* a, const float* b, std::size_t n);

/// Score `rows` consecutive padded rows of a PackedF32 against one padded
/// query: out[r] = dot(query, row r). `stride` is the padded dimension;
/// both pointers must be 64-byte aligned (PackedF32 guarantees this).
void dots_f32(const float* query, const float* rows_base, std::size_t rows,
              std::size_t stride, float* out);

/// Row-major fp32 matrix, 64-byte-aligned, dimension padded to kF32Pad with
/// zeros. This is the cache-blocked SoA layout the flat scan iterates: each
/// row is one contiguous aligned span, rows are adjacent, and a block of
/// rows is scored with one streaming pass (dots_f32).
class PackedF32 {
 public:
  PackedF32() = default;

  /// Fix the logical dimension; rows are appended with append().
  explicit PackedF32(std::size_t dim)
      : dim_(dim), stride_(util::align_up(dim == 0 ? 1 : dim, kF32Pad)) {}

  /// Append one row (length dim); tail lanes stay zero.
  void append(const float* row);

  /// Size the block for `rows` rows in one allocation when the row count is
  /// known up front; appends past it grow by doubling.
  void reserve(std::size_t rows) {
    buf_.reserve(rows * stride_ * sizeof(float));
  }

  /// Pack a query into a padded aligned scratch buffer (tail zeroed).
  /// `scratch` must hold stride() floats.
  void pack_query(const float* query, float* scratch) const;

  [[nodiscard]] std::size_t rows() const { return rows_; }
  [[nodiscard]] std::size_t dim() const { return dim_; }
  [[nodiscard]] std::size_t stride() const { return stride_; }
  [[nodiscard]] const float* row(std::size_t r) const {
    return buf_.as<float>() + r * stride_;
  }

  /// Score rows [begin, end) against the padded query (stride() floats,
  /// aligned): out[r - begin] = dot(query, row r).
  void score_range(const float* packed_query, std::size_t begin,
                   std::size_t end, float* out) const;

 private:
  std::size_t dim_ = 0;
  std::size_t stride_ = 0;
  std::size_t rows_ = 0;
  util::AlignedBuffer buf_;
};

}  // namespace pkb::vectordb::kernels
