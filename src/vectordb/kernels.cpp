#include "vectordb/kernels.h"

#include <cmath>
#include <limits>

#if defined(__x86_64__) && !defined(PKB_FORCE_SCALAR)
#include <immintrin.h>
#define PKB_KERNELS_X86 1
#elif defined(__aarch64__) && !defined(PKB_FORCE_SCALAR)
#include <arm_neon.h>
#define PKB_KERNELS_NEON 1
#endif

namespace pkb::vectordb::kernels {

namespace {

// ---------------------------------------------------------------------------
// Scalar backend — the portable reference. Sequential double accumulation is
// exactly the embed::dot contract.
// ---------------------------------------------------------------------------

float dot_f32_scalar(const float* a, const float* b, std::size_t n) {
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    acc += static_cast<double>(a[i]) * b[i];
  }
  return static_cast<float>(acc);
}

void dots_trans_f32_scalar(const float* q, const float* trans,
                           std::size_t dim, std::size_t k, std::size_t ld,
                           float* out) {
  for (std::size_t c = 0; c < k; ++c) {
    double acc = 0.0;
    for (std::size_t d = 0; d < dim; ++d) {
      acc += static_cast<double>(q[d]) * trans[d * ld + c];
    }
    out[c] = static_cast<float>(acc);
  }
}

std::size_t nearest_trans_f32_scalar(const float* q, const float* trans,
                                     std::size_t dim, std::size_t k,
                                     std::size_t ld) {
  std::size_t best_c = 0;
  float best = -std::numeric_limits<float>::infinity();
  for (std::size_t c = 0; c < k; ++c) {
    float acc = 0.0f;
    for (std::size_t d = 0; d < dim; ++d) {
      acc += q[d] * trans[d * ld + c];
    }
    if (acc > best) {
      best = acc;
      best_c = c;
    }
  }
  return best_c;
}

#if defined(PKB_KERNELS_X86)

// ---------------------------------------------------------------------------
// AVX2 backend. The fp32 kernel widens each 8-float step to two 4-double
// lanes and FMAs into double accumulators: float*float products are exact in
// double, so precision matches the scalar path (both round once, to float,
// at the end); only the association order differs, which top-k selection
// tolerates because every score in a process comes from this same kernel.
// ---------------------------------------------------------------------------

__attribute__((target("avx2,fma"))) float dot_f32_avx2(const float* a,
                                                       const float* b,
                                                       std::size_t n) {
  __m256d acc_lo = _mm256_setzero_pd();
  __m256d acc_hi = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 va = _mm256_loadu_ps(a + i);
    const __m256 vb = _mm256_loadu_ps(b + i);
    acc_lo = _mm256_fmadd_pd(_mm256_cvtps_pd(_mm256_castps256_ps128(va)),
                             _mm256_cvtps_pd(_mm256_castps256_ps128(vb)),
                             acc_lo);
    acc_hi = _mm256_fmadd_pd(_mm256_cvtps_pd(_mm256_extractf128_ps(va, 1)),
                             _mm256_cvtps_pd(_mm256_extractf128_ps(vb, 1)),
                             acc_hi);
  }
  alignas(32) double lanes[4];
  _mm256_store_pd(lanes, _mm256_add_pd(acc_lo, acc_hi));
  double acc = (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
  for (; i < n; ++i) {
    acc += static_cast<double>(a[i]) * b[i];
  }
  return static_cast<float>(acc);
}

// The transposed kernel runs 16 centroids per pass (four 4-double
// accumulators for ILP — a single chain would be FMA-latency-bound). Each
// lane's sum is the scalar sequential double accumulation exactly: products
// are exact in double and d advances in order, so out[] is bit-identical to
// dots_trans_f32_scalar.
__attribute__((target("avx2,fma"))) void dots_trans_f32_avx2(
    const float* q, const float* trans, std::size_t dim, std::size_t k,
    std::size_t ld, float* out) {
  std::size_t c = 0;
  for (; c + 16 <= k; c += 16) {
    __m256d a0 = _mm256_setzero_pd();
    __m256d a1 = _mm256_setzero_pd();
    __m256d a2 = _mm256_setzero_pd();
    __m256d a3 = _mm256_setzero_pd();
    for (std::size_t d = 0; d < dim; ++d) {
      const __m256d qd = _mm256_set1_pd(static_cast<double>(q[d]));
      const float* base = trans + d * ld + c;
      a0 = _mm256_fmadd_pd(qd, _mm256_cvtps_pd(_mm_loadu_ps(base)), a0);
      a1 = _mm256_fmadd_pd(qd, _mm256_cvtps_pd(_mm_loadu_ps(base + 4)), a1);
      a2 = _mm256_fmadd_pd(qd, _mm256_cvtps_pd(_mm_loadu_ps(base + 8)), a2);
      a3 = _mm256_fmadd_pd(qd, _mm256_cvtps_pd(_mm_loadu_ps(base + 12)), a3);
    }
    _mm_storeu_ps(out + c, _mm256_cvtpd_ps(a0));
    _mm_storeu_ps(out + c + 4, _mm256_cvtpd_ps(a1));
    _mm_storeu_ps(out + c + 8, _mm256_cvtpd_ps(a2));
    _mm_storeu_ps(out + c + 12, _mm256_cvtpd_ps(a3));
  }
  for (; c + 4 <= k; c += 4) {
    __m256d acc = _mm256_setzero_pd();
    for (std::size_t d = 0; d < dim; ++d) {
      acc = _mm256_fmadd_pd(_mm256_set1_pd(static_cast<double>(q[d])),
                            _mm256_cvtps_pd(_mm_loadu_ps(trans + d * ld + c)),
                            acc);
    }
    _mm_storeu_ps(out + c, _mm256_cvtpd_ps(acc));
  }
  for (; c < k; ++c) {
    double acc = 0.0;
    for (std::size_t d = 0; d < dim; ++d) {
      acc += static_cast<double>(q[d]) * trans[d * ld + c];
    }
    out[c] = static_cast<float>(acc);
  }
}

// Fused assignment: 8 single-precision scores per pass, running max and its
// column index kept in registers (strict-greater blend preserves the lowest
// index within each lane slot). The horizontal resolve picks the max lane,
// lowest index on ties, which reproduces the scalar first-index rule; the
// sub-8 tail merges after with the same strict-greater test, and its indices
// are always above every vector index.
__attribute__((target("avx2,fma"))) std::size_t nearest_trans_f32_avx2(
    const float* q, const float* trans, std::size_t dim, std::size_t k,
    std::size_t ld) {
  std::size_t best_c = 0;
  float best = -std::numeric_limits<float>::infinity();
  std::size_t c = 0;
  if (k >= 16) {
    // Two independent running-max/index chains. The cmp→blend update is a
    // loop-carried dependency (several cycles), so one chain serializes the
    // whole column scan at small dim; interleaving two halves the critical
    // path. Chain 0 owns columns ≡ 0–7 (mod 16), chain 1 owns 8–15; the
    // final resolve applies the same strict-greater / lowest-index rule
    // across all 16 lane slots, so ties still go to the lowest column.
    __m256 vbest0 = _mm256_set1_ps(best);
    __m256 vbest1 = vbest0;
    __m256i vbidx0 = _mm256_setzero_si256();
    __m256i vbidx1 = _mm256_setzero_si256();
    __m256i vidx0 = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
    __m256i vidx1 = _mm256_setr_epi32(8, 9, 10, 11, 12, 13, 14, 15);
    const __m256i vstep = _mm256_set1_epi32(16);
    for (; c + 16 <= k; c += 16) {
      __m256 acc0 = _mm256_setzero_ps();
      __m256 acc1 = _mm256_setzero_ps();
      for (std::size_t d = 0; d < dim; ++d) {
        const __m256 qv = _mm256_set1_ps(q[d]);
        acc0 = _mm256_fmadd_ps(qv, _mm256_loadu_ps(trans + d * ld + c), acc0);
        acc1 =
            _mm256_fmadd_ps(qv, _mm256_loadu_ps(trans + d * ld + c + 8), acc1);
      }
      const __m256 gt0 = _mm256_cmp_ps(acc0, vbest0, _CMP_GT_OQ);
      const __m256 gt1 = _mm256_cmp_ps(acc1, vbest1, _CMP_GT_OQ);
      vbest0 = _mm256_blendv_ps(vbest0, acc0, gt0);
      vbest1 = _mm256_blendv_ps(vbest1, acc1, gt1);
      vbidx0 = _mm256_blendv_epi8(vbidx0, vidx0, _mm256_castps_si256(gt0));
      vbidx1 = _mm256_blendv_epi8(vbidx1, vidx1, _mm256_castps_si256(gt1));
      vidx0 = _mm256_add_epi32(vidx0, vstep);
      vidx1 = _mm256_add_epi32(vidx1, vstep);
    }
    // Branch-free resolve: horizontal max of both chains, then the lowest
    // column index among max-equal lanes — non-max lanes are masked to
    // INT_MAX before a horizontal min, preserving the tie-to-lowest rule.
    const __m256 vm = _mm256_max_ps(vbest0, vbest1);
    __m128 m4 = _mm_max_ps(_mm256_castps256_ps128(vm),
                           _mm256_extractf128_ps(vm, 1));
    m4 = _mm_max_ps(m4, _mm_movehl_ps(m4, m4));
    m4 = _mm_max_ss(m4, _mm_shuffle_ps(m4, m4, 1));
    const float chain_best = _mm_cvtss_f32(m4);
    const __m256 vmax = _mm256_set1_ps(chain_best);
    const __m256i big = _mm256_set1_epi32(
        std::numeric_limits<std::int32_t>::max());
    const __m256i cand0 = _mm256_blendv_epi8(
        big, vbidx0,
        _mm256_castps_si256(_mm256_cmp_ps(vbest0, vmax, _CMP_EQ_OQ)));
    const __m256i cand1 = _mm256_blendv_epi8(
        big, vbidx1,
        _mm256_castps_si256(_mm256_cmp_ps(vbest1, vmax, _CMP_EQ_OQ)));
    const __m256i cmin = _mm256_min_epi32(cand0, cand1);
    __m128i c4 = _mm_min_epi32(_mm256_castsi256_si128(cmin),
                               _mm256_extracti128_si256(cmin, 1));
    c4 = _mm_min_epi32(c4, _mm_shuffle_epi32(c4, 0x4E));
    c4 = _mm_min_epi32(c4, _mm_shuffle_epi32(c4, 0xB1));
    best = chain_best;
    best_c = static_cast<std::size_t>(
        static_cast<std::uint32_t>(_mm_cvtsi128_si32(c4)));
  }
  if (c + 8 <= k) {
    // At most one 8-wide remainder block after the 16-wide loop.
    __m256 acc = _mm256_setzero_ps();
    for (std::size_t d = 0; d < dim; ++d) {
      acc = _mm256_fmadd_ps(_mm256_set1_ps(q[d]),
                            _mm256_loadu_ps(trans + d * ld + c), acc);
    }
    alignas(32) float lane_best[8];
    _mm256_store_ps(lane_best, acc);
    for (int l = 0; l < 8; ++l) {
      const std::size_t idx = c + static_cast<std::size_t>(l);
      if (lane_best[l] > best || (lane_best[l] == best && idx < best_c)) {
        best = lane_best[l];
        best_c = idx;
      }
    }
    c += 8;
  }
  for (; c < k; ++c) {
    float acc = 0.0f;
    for (std::size_t d = 0; d < dim; ++d) {
      acc += q[d] * trans[d * ld + c];
    }
    if (acc > best) {
      best = acc;
      best_c = c;
    }
  }
  return best_c;
}

#elif defined(PKB_KERNELS_NEON)

// NEON backend (aarch64). float64x2 accumulation mirrors the AVX2 shape:
// widen 4-float steps to two 2-double lanes.

float dot_f32_neon(const float* a, const float* b, std::size_t n) {
  float64x2_t acc_lo = vdupq_n_f64(0.0);
  float64x2_t acc_hi = vdupq_n_f64(0.0);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const float32x4_t va = vld1q_f32(a + i);
    const float32x4_t vb = vld1q_f32(b + i);
    acc_lo = vfmaq_f64(acc_lo, vcvt_f64_f32(vget_low_f32(va)),
                       vcvt_f64_f32(vget_low_f32(vb)));
    acc_hi = vfmaq_f64(acc_hi, vcvt_f64_f32(vget_high_f32(va)),
                       vcvt_f64_f32(vget_high_f32(vb)));
  }
  double acc = vaddvq_f64(acc_lo) + vaddvq_f64(acc_hi);
  for (; i < n; ++i) {
    acc += static_cast<double>(a[i]) * b[i];
  }
  return static_cast<float>(acc);
}

// 8 centroids per pass, four 2-double accumulators; like the AVX2 leg, each
// lane accumulates sequentially over d so results match the scalar kernel.
void dots_trans_f32_neon(const float* q, const float* trans, std::size_t dim,
                         std::size_t k, std::size_t ld, float* out) {
  std::size_t c = 0;
  for (; c + 8 <= k; c += 8) {
    float64x2_t a0 = vdupq_n_f64(0.0);
    float64x2_t a1 = vdupq_n_f64(0.0);
    float64x2_t a2 = vdupq_n_f64(0.0);
    float64x2_t a3 = vdupq_n_f64(0.0);
    for (std::size_t d = 0; d < dim; ++d) {
      const float64x2_t qd = vdupq_n_f64(static_cast<double>(q[d]));
      const float* base = trans + d * ld + c;
      a0 = vfmaq_f64(a0, qd, vcvt_f64_f32(vld1_f32(base)));
      a1 = vfmaq_f64(a1, qd, vcvt_f64_f32(vld1_f32(base + 2)));
      a2 = vfmaq_f64(a2, qd, vcvt_f64_f32(vld1_f32(base + 4)));
      a3 = vfmaq_f64(a3, qd, vcvt_f64_f32(vld1_f32(base + 6)));
    }
    vst1_f32(out + c, vcvt_f32_f64(a0));
    vst1_f32(out + c + 2, vcvt_f32_f64(a1));
    vst1_f32(out + c + 4, vcvt_f32_f64(a2));
    vst1_f32(out + c + 6, vcvt_f32_f64(a3));
  }
  for (; c < k; ++c) {
    double acc = 0.0;
    for (std::size_t d = 0; d < dim; ++d) {
      acc += static_cast<double>(q[d]) * trans[d * ld + c];
    }
    out[c] = static_cast<float>(acc);
  }
}

// Fused assignment, 4 single-precision scores per pass with in-register
// running max + index (strict-greater select keeps the lowest index per lane
// slot); horizontal resolve and tail merging follow the AVX2 leg's rule, so
// the scalar first-index tie-break is reproduced.
std::size_t nearest_trans_f32_neon(const float* q, const float* trans,
                                   std::size_t dim, std::size_t k,
                                   std::size_t ld) {
  std::size_t best_c = 0;
  float best = -std::numeric_limits<float>::infinity();
  std::size_t c = 0;
  if (k >= 8) {
    // Two independent running-max chains, mirroring the AVX2 kernel: the
    // cmp→bsl update is loop-carried, so interleaving two chains halves the
    // critical path. The final resolve keeps the lowest column on ties.
    float32x4_t vbest0 = vdupq_n_f32(best);
    float32x4_t vbest1 = vdupq_n_f32(best);
    uint32x4_t vbidx0 = vdupq_n_u32(0);
    uint32x4_t vbidx1 = vdupq_n_u32(0);
    const uint32x4_t step = vdupq_n_u32(8);
    uint32x4_t vidx0 = {0u, 1u, 2u, 3u};
    uint32x4_t vidx1 = {4u, 5u, 6u, 7u};
    for (; c + 8 <= k; c += 8) {
      float32x4_t acc0 = vdupq_n_f32(0.0f);
      float32x4_t acc1 = vdupq_n_f32(0.0f);
      for (std::size_t d = 0; d < dim; ++d) {
        acc0 = vfmaq_n_f32(acc0, vld1q_f32(trans + d * ld + c), q[d]);
        acc1 = vfmaq_n_f32(acc1, vld1q_f32(trans + d * ld + c + 4), q[d]);
      }
      const uint32x4_t gt0 = vcgtq_f32(acc0, vbest0);
      const uint32x4_t gt1 = vcgtq_f32(acc1, vbest1);
      vbest0 = vbslq_f32(gt0, acc0, vbest0);
      vbest1 = vbslq_f32(gt1, acc1, vbest1);
      vbidx0 = vbslq_u32(gt0, vidx0, vbidx0);
      vbidx1 = vbslq_u32(gt1, vidx1, vbidx1);
      vidx0 = vaddq_u32(vidx0, step);
      vidx1 = vaddq_u32(vidx1, step);
    }
    float lane_best[8];
    std::uint32_t lane_idx[8];
    vst1q_f32(lane_best, vbest0);
    vst1q_f32(lane_best + 4, vbest1);
    vst1q_u32(lane_idx, vbidx0);
    vst1q_u32(lane_idx + 4, vbidx1);
    for (int l = 0; l < 8; ++l) {
      const auto idx = static_cast<std::size_t>(lane_idx[l]);
      if (lane_best[l] > best || (lane_best[l] == best && idx < best_c)) {
        best = lane_best[l];
        best_c = idx;
      }
    }
  }
  if (c + 4 <= k) {
    // At most one 4-wide remainder block after the 8-wide loop.
    float32x4_t acc = vdupq_n_f32(0.0f);
    for (std::size_t d = 0; d < dim; ++d) {
      acc = vfmaq_n_f32(acc, vld1q_f32(trans + d * ld + c), q[d]);
    }
    float lane_best[4];
    vst1q_f32(lane_best, acc);
    for (int l = 0; l < 4; ++l) {
      const std::size_t idx = c + static_cast<std::size_t>(l);
      if (lane_best[l] > best || (lane_best[l] == best && idx < best_c)) {
        best = lane_best[l];
        best_c = idx;
      }
    }
    c += 4;
  }
  for (; c < k; ++c) {
    float acc = 0.0f;
    for (std::size_t d = 0; d < dim; ++d) {
      acc += q[d] * trans[d * ld + c];
    }
    if (acc > best) {
      best = acc;
      best_c = c;
    }
  }
  return best_c;
}

#endif

// ---------------------------------------------------------------------------
// Dispatch: resolved once per process at first kernel use. All scores in a
// process therefore come from one backend — the invariant the bit-exactness
// gates (index vs flat, rerank vs flat) rest on.
// ---------------------------------------------------------------------------

using DotF32Fn = float (*)(const float*, const float*, std::size_t);
using DotsTransF32Fn = void (*)(const float*, const float*, std::size_t,
                                std::size_t, std::size_t, float*);
using NearestTransF32Fn = std::size_t (*)(const float*, const float*,
                                          std::size_t, std::size_t,
                                          std::size_t);

struct Backend {
  DotF32Fn dot_f32;
  DotsTransF32Fn dots_trans_f32;
  NearestTransF32Fn nearest_trans_f32;
  std::string_view name;
};

Backend select_backend() {
#if defined(PKB_KERNELS_X86)
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) {
    return Backend{dot_f32_avx2, dots_trans_f32_avx2, nearest_trans_f32_avx2,
                   "avx2"};
  }
#elif defined(PKB_KERNELS_NEON)
  return Backend{dot_f32_neon, dots_trans_f32_neon, nearest_trans_f32_neon,
                 "neon"};
#endif
  return Backend{dot_f32_scalar, dots_trans_f32_scalar,
                 nearest_trans_f32_scalar, "scalar"};
}

const Backend& backend() {
  static const Backend b = select_backend();
  return b;
}

}  // namespace

std::string_view backend_name() { return backend().name; }

float dot_f32(const float* a, const float* b, std::size_t n) {
  return backend().dot_f32(a, b, n);
}

void dots_f32(const float* query, const float* rows_base, std::size_t rows,
              std::size_t stride, float* out) {
  const DotF32Fn dot = backend().dot_f32;
  for (std::size_t r = 0; r < rows; ++r) {
    out[r] = dot(query, rows_base + r * stride, stride);
  }
}

void dots_trans_f32(const float* q, const float* trans, std::size_t dim,
                    std::size_t k, std::size_t ld, float* out) {
  backend().dots_trans_f32(q, trans, dim, k, ld, out);
}

std::size_t nearest_trans_f32(const float* q, const float* trans,
                              std::size_t dim, std::size_t k,
                              std::size_t ld) {
  return backend().nearest_trans_f32(q, trans, dim, k, ld);
}

// ---------------------------------------------------------------------------
// Packed layouts.
// ---------------------------------------------------------------------------

void PackedF32::append(const float* row) {
  buf_.resize((rows_ + 1) * stride_ * sizeof(float));
  float* dst = buf_.as<float>() + rows_ * stride_;
  for (std::size_t d = 0; d < dim_; ++d) dst[d] = row[d];
  // Tail lanes [dim_, stride_) are zero via AlignedBuffer's zero-fill.
  ++rows_;
}

void PackedF32::set_row(std::size_t r, const float* row) {
  float* dst = buf_.as<float>() + r * stride_;
  for (std::size_t d = 0; d < dim_; ++d) dst[d] = row[d];
}

void PackedF32::pack_query(const float* query, float* scratch) const {
  std::size_t d = 0;
  for (; d < dim_; ++d) scratch[d] = query[d];
  for (; d < stride_; ++d) scratch[d] = 0.0f;
}

void PackedF32::score_range(const float* packed_query, std::size_t begin,
                            std::size_t end, float* out) const {
  dots_f32(packed_query, row(begin), end - begin, stride_, out);
}

}  // namespace pkb::vectordb::kernels
