#include "vectordb/kernels.h"

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
// Scalar backend — the portable reference: sequential double accumulation.
// ---------------------------------------------------------------------------

float dot_f32_scalar(const float* a, const float* b, std::size_t n) {
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    acc += static_cast<double>(a[i]) * b[i];
  }
  return static_cast<float>(acc);
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

#endif

// ---------------------------------------------------------------------------
// Dispatch: resolved once per process at first kernel use. All scores in a
// process therefore come from one backend — the invariant the bit-exactness
// gates (index vs flat, rerank vs flat) rest on.
// ---------------------------------------------------------------------------

using DotF32Fn = float (*)(const float*, const float*, std::size_t);

struct Backend {
  DotF32Fn dot_f32;
  std::string_view name;
};

Backend select_backend() {
#if defined(PKB_KERNELS_X86)
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) {
    return Backend{dot_f32_avx2, "avx2"};
  }
#elif defined(PKB_KERNELS_NEON)
  return Backend{dot_f32_neon, "neon"};
#endif
  return Backend{dot_f32_scalar, "scalar"};
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
