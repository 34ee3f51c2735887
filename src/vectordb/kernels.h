#pragma once
// SIMD scoring kernels and packed SoA layouts — the raw-speed substrate of
// the vector hot path.
//
// Every similarity score the vector database produces (flat scan, shard
// scans, IVF buckets, HNSW traversal, int8 candidate generation) funnels
// through the two kernel families here:
//
//   * fp32 dot products with double accumulation — the exact scoring
//     contract `embed::dot` established (accumulate in double, round once
//     to float), which is what keeps top-k selection deterministic and the
//     shard equivalence gates meaningful;
//   * int8 dot products with int32 accumulation — integer math is exact,
//     so the quantized scores are bit-identical across scalar/AVX2/NEON
//     backends by construction;
//   * ADC (asymmetric distance computation) table accumulation for product
//     quantization — per-query lookup tables are gathered per code byte and
//     accumulated in double, same rounding contract as the fp32 family.
//
// Backends are selected ONCE at first use (CPUID on x86: AVX2+FMA; NEON on
// aarch64; portable scalar otherwise) and never change for the process, so
// all scores within a process are mutually consistent — the property the
// bit-exactness gates (sharded vs monolithic, index vs flat, rerank vs
// flat) rely on. Building with -DPKB_FORCE_SCALAR=ON pins the scalar
// backend at compile time; CI runs that configuration to keep the fallback
// honest on every change.
//
// Layouts: `PackedF32` / `PackedI8` store vectors row-major in one
// cache-line-aligned buffer (util/arena.h) with the dimension padded to a
// lane multiple. Padding lanes are exact zeros and contribute exactly zero
// to every accumulator, so a padded scan equals the unpadded scan — see
// AlignedBuffer's zero-fill contract.

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

#include "util/arena.h"

namespace pkb::vectordb::kernels {

/// fp32 lane multiple rows are padded to (16 floats = one cache line).
inline constexpr std::size_t kF32Pad = 16;
/// int8 lane multiple rows are padded to (64 bytes = one cache line).
inline constexpr std::size_t kI8Pad = 64;
/// PQ code rows are padded to this many bytes (keeps gather loads aligned).
inline constexpr std::size_t kPqPad = 8;
/// Centroids per PQ sub-quantizer: codes are one byte, LUTs are laid out
/// [m][kPqBook] floats regardless of how many centroids were trained
/// (untrained slots are zero).
inline constexpr std::size_t kPqBook = 256;

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

/// Transposed scoring for codebook training and PQ LUT expansion: `trans`
/// holds k columns in dimension-major (struct-of-arrays) order with leading
/// dimension `ld` — trans[d * ld + c] is dimension d of column c (ld = k
/// for a dense matrix; ld > k addresses a column sub-range). Computes
/// out[c] = Σ_d q[d] · trans[d*ld+c] with every product exact in double,
/// accumulated in ascending d, rounded once to float. SIMD backends
/// vectorize across c — the summation dimension stays sequential — so each
/// out[c] is bit-identical to the scalar backend (unlike the row-major dot,
/// whose lanes re-associate), and no padding lanes are wasted at small
/// dimensions.
void dots_trans_f32(const float* q, const float* trans, std::size_t dim,
                    std::size_t k, std::size_t ld, float* out);

/// Nearest column under the dot score: returns argmax_c of
/// Σ_d q[d] · trans[d*ld+c] (+ adjust[c] when `adjust` is non-null — pass
/// −‖c‖²/2 for L2 geometry), ties to the lowest c. Accumulation is single
/// precision — this is the k-means training / PQ-encode assignment
/// primitive, NOT part of the double-exact scoring contract: each backend
/// is internally deterministic (same inputs ⇒ same argmax in a process),
/// but backends may disagree on knife-edge assignments. Requires k ≥ 1.
[[nodiscard]] std::size_t nearest_trans_f32(const float* q, const float* trans,
                                            std::size_t dim, std::size_t k,
                                            std::size_t ld,
                                            const float* adjust);

/// Dot product of two int8 code vectors of length `n` (padded or not),
/// accumulated exactly in int32. Identical across backends.
[[nodiscard]] std::int32_t dot_i8(const std::int8_t* a, const std::int8_t* b,
                                  std::size_t n);

/// ADC score of one PQ-coded row: sum over the `m` sub-quantizers of
/// lut[s * kPqBook + codes[s]], accumulated in double and rounded once to
/// float. The AVX2 backend gathers 8 table entries per step
/// (_mm256_i32gather_ps) and widens to double accumulators; NEON and scalar
/// walk the table sequentially — the summands are identical floats, so the
/// result matches across backends exactly like the fp32 dot family.
[[nodiscard]] float adc_f32(const float* lut, const std::uint8_t* codes,
                            std::size_t m);

/// ADC scores of `rows` consecutive code rows: out[r] = adc_f32 of row r.
/// `stride` is the padded code-row width in bytes (PqCodes::stride()).
void adc_scores(const float* lut, const std::uint8_t* codes_base,
                std::size_t rows, std::size_t m, std::size_t stride,
                float* out);

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

  /// Overwrite row r with `row` (length dim); tail lanes stay zero. Used by
  /// the k-means trainers to update centroids in place.
  void set_row(std::size_t r, const float* row);

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

/// Row-major int8 code matrix with per-row dequantization scales, padded to
/// kI8Pad. Produced by quantize.h; scanned by the int8 kernels.
class PackedI8 {
 public:
  PackedI8() = default;
  explicit PackedI8(std::size_t dim)
      : dim_(dim), stride_(util::align_up(dim == 0 ? 1 : dim, kI8Pad)) {}

  /// Append one code row (length dim) and its dequantization scale.
  void append(const std::int8_t* codes, float scale);

  [[nodiscard]] std::size_t rows() const { return rows_; }
  [[nodiscard]] std::size_t dim() const { return dim_; }
  [[nodiscard]] std::size_t stride() const { return stride_; }
  [[nodiscard]] const std::int8_t* row(std::size_t r) const {
    return buf_.as<std::int8_t>() + r * stride_;
  }
  [[nodiscard]] float scale(std::size_t r) const { return scales_[r]; }

  /// Approximate scores of rows [begin, end) against a quantized query:
  /// out[r - begin] = query_scale * scale(r) * dot_i8(query_codes, row r).
  /// `query_codes` must hold stride() bytes (tail zeroed).
  void score_range(const std::int8_t* query_codes, float query_scale,
                   std::size_t begin, std::size_t end, float* out) const;

 private:
  std::size_t dim_ = 0;
  std::size_t stride_ = 0;
  std::size_t rows_ = 0;
  util::AlignedBuffer buf_;
  std::vector<float> scales_;
};

}  // namespace pkb::vectordb::kernels
