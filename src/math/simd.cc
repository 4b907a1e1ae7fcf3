// ISA-specific kernel implementations. See simd.h for the dispatch rules
// and the numerics contract; the short version is that every reduction
// accumulates into kAccumulatorLanes (8) interleaved double partial sums
// combined in a fixed order, and every kernel keeps each rounding step in
// a named temporary so no compiler may contract mul+add into an FMA where
// the contract forbids it. FMA is used only where the product is exact in
// double (products of two converted floats), which keeps the AVX2, NEON,
// and scalar builds bit-identical on Dot / DotBatch / SquaredNorm.
#include "math/simd.h"

#include <algorithm>
#include <cmath>

#if defined(__AVX2__) && defined(__FMA__)
#define KGE_SIMD_ISA_AVX2 1
#include <immintrin.h>
#elif defined(__aarch64__) && defined(__ARM_NEON)
#define KGE_SIMD_ISA_NEON 1
#include <arm_neon.h>
#else
#define KGE_SIMD_ISA_SCALAR 1
#endif

namespace kge::simd {
namespace {

// Fixed combine order of the 8 partial sums (see simd.h): a balanced tree
// whose shape matches the in-register pairwise adds of the SIMD paths.
inline double Combine8(const double p[kAccumulatorLanes]) {
  const double s01 = p[0] + p[1];
  const double s23 = p[2] + p[3];
  const double s45 = p[4] + p[5];
  const double s67 = p[6] + p[7];
  const double lo = s01 + s23;
  const double hi = s45 + s67;
  return lo + hi;
}

// ---- Portable 8-lane reference scheme --------------------------------------
// These define the bit-exact semantics of every reduction. The scalar
// build dispatches straight to them (the independent lanes let the
// compiler auto-vectorize legally); the AVX2/NEON paths reuse them for
// loop tails by continuing the lane pattern from an extracted partial
// array (element d of a tail starting at a multiple of 8 belongs to lane
// d mod 8 — exactly lane d − tail_start).

inline void DotTail(const float* a, const float* b, size_t begin, size_t n,
                    double p[kAccumulatorLanes]) {
  for (size_t d = begin; d < n; ++d) {
    const double x = double(a[d]);
    const double y = double(b[d]);
    const double m = x * y;
    p[d % kAccumulatorLanes] += m;
  }
}

inline void TrilinearTail(const float* a, const float* b, const float* c,
                          size_t begin, size_t n,
                          double p[kAccumulatorLanes]) {
  for (size_t d = begin; d < n; ++d) {
    const double m = double(a[d]) * double(b[d]);  // exact
    const double q = m * double(c[d]);             // rounds once
    p[d % kAccumulatorLanes] += q;
  }
}

inline void L1NormTail(const float* a, size_t begin, size_t n,
                       double p[kAccumulatorLanes]) {
  for (size_t d = begin; d < n; ++d) {
    p[d % kAccumulatorLanes] += std::fabs(double(a[d]));
  }
}

inline void L1DistanceTail(const float* a, const float* b, size_t begin,
                           size_t n, double p[kAccumulatorLanes]) {
  for (size_t d = begin; d < n; ++d) {
    const double diff = double(a[d]) - double(b[d]);
    p[d % kAccumulatorLanes] += std::fabs(diff);
  }
}

inline void L2DistanceTail(const float* a, const float* b, size_t begin,
                           size_t n, double p[kAccumulatorLanes]) {
  for (size_t d = begin; d < n; ++d) {
    const double diff = double(a[d]) - double(b[d]);
    const double sq = diff * diff;  // rounds; no FMA with the add below
    p[d % kAccumulatorLanes] += sq;
  }
}

[[maybe_unused]] inline double ScalarDot(const float* a, const float* b, size_t n) {
  double p[kAccumulatorLanes] = {};
  DotTail(a, b, 0, n, p);
  return Combine8(p);
}

[[maybe_unused]] inline double ScalarTrilinearDot(const float* a, const float* b,
                                 const float* c, size_t n) {
  double p[kAccumulatorLanes] = {};
  TrilinearTail(a, b, c, 0, n, p);
  return Combine8(p);
}

[[maybe_unused]] inline double ScalarL1Norm(const float* a, size_t n) {
  double p[kAccumulatorLanes] = {};
  L1NormTail(a, 0, n, p);
  return Combine8(p);
}

[[maybe_unused]] inline double ScalarL1Distance(const float* a, const float* b, size_t n) {
  double p[kAccumulatorLanes] = {};
  L1DistanceTail(a, b, 0, n, p);
  return Combine8(p);
}

[[maybe_unused]] inline double ScalarSquaredL2Distance(const float* a, const float* b,
                                      size_t n) {
  double p[kAccumulatorLanes] = {};
  L2DistanceTail(a, b, 0, n, p);
  return Combine8(p);
}

// ---- Float 8-lane scheme (precision tiers) ---------------------------------
// The float twins of Combine8/DotTail define the bit-exact semantics of
// the float32 and int8 scoring tiers (see simd.h's precision-tier
// contract). A float product is inexact in float, so every path —
// including the vector kernels below — is strictly mul-then-add; an FMA
// would skip the per-product rounding these tails perform.

inline float CombineF32(const float p[kAccumulatorLanes]) {
  const float s01 = p[0] + p[1];
  const float s23 = p[2] + p[3];
  const float s45 = p[4] + p[5];
  const float s67 = p[6] + p[7];
  const float lo = s01 + s23;
  const float hi = s45 + s67;
  return lo + hi;
}

inline void DotTailF32(const float* a, const float* b, size_t begin, size_t n,
                       float p[kAccumulatorLanes]) {
  for (size_t d = begin; d < n; ++d) {
    const float m = a[d] * b[d];  // rounds once; the add rounds once
    p[d % kAccumulatorLanes] += m;
  }
}

inline void DotTailI8(const float* q, const std::int8_t* r, size_t begin,
                      size_t n, float p[kAccumulatorLanes]) {
  for (size_t d = begin; d < n; ++d) {
    const float m = q[d] * float(r[d]);  // int8 → float is exact
    p[d % kAccumulatorLanes] += m;
  }
}

[[maybe_unused]] inline float ScalarDotF32(const float* a, const float* b,
                                           size_t n) {
  float p[kAccumulatorLanes] = {};
  DotTailF32(a, b, 0, n, p);
  return CombineF32(p);
}

[[maybe_unused]] inline float ScalarDotI8(const float* q, const std::int8_t* r,
                                          float scale, size_t n) {
  float p[kAccumulatorLanes] = {};
  DotTailI8(q, r, 0, n, p);
  const float sum = CombineF32(p);
  return scale * sum;
}

}  // namespace

// ---- ISA id ----------------------------------------------------------------

Isa ActiveIsa() {
#if defined(KGE_SIMD_ISA_AVX2)
  return Isa::kAvx2Fma;
#elif defined(KGE_SIMD_ISA_NEON)
  return Isa::kNeon;
#else
  return Isa::kScalar;
#endif
}

const char* IsaName() {
  switch (ActiveIsa()) {
    case Isa::kAvx2Fma:
      return "avx2+fma";
    case Isa::kNeon:
      return "neon";
    case Isa::kScalar:
      return "scalar";
  }
  return "?";
}

// ---- AVX2 + FMA ------------------------------------------------------------

#if defined(KGE_SIMD_ISA_AVX2)

namespace {

// Extracts [acc_lo | acc_hi] into the 8-lane partial array so scalar
// tails can continue the lane pattern.
inline void StorePartials(__m256d acc_lo, __m256d acc_hi,
                          double p[kAccumulatorLanes]) {
  _mm256_storeu_pd(p, acc_lo);
  _mm256_storeu_pd(p + 4, acc_hi);
}

inline __m256d CvtLo(const float* x) {
  return _mm256_cvtps_pd(_mm_loadu_ps(x));
}

}  // namespace

double Dot(const float* a, const float* b, size_t n) {
  __m256d acc_lo = _mm256_setzero_pd();
  __m256d acc_hi = _mm256_setzero_pd();
  size_t d = 0;
  for (; d + kAccumulatorLanes <= n; d += kAccumulatorLanes) {
    // Products of converted floats are exact in double: FMA == mul+add.
    acc_lo = _mm256_fmadd_pd(CvtLo(a + d), CvtLo(b + d), acc_lo);
    acc_hi = _mm256_fmadd_pd(CvtLo(a + d + 4), CvtLo(b + d + 4), acc_hi);
  }
  double p[kAccumulatorLanes];
  StorePartials(acc_lo, acc_hi, p);
  DotTail(a, b, d, n, p);
  return Combine8(p);
}

double TrilinearDot(const float* a, const float* b, const float* c,
                    size_t n) {
  __m256d acc_lo = _mm256_setzero_pd();
  __m256d acc_hi = _mm256_setzero_pd();
  size_t d = 0;
  for (; d + kAccumulatorLanes <= n; d += kAccumulatorLanes) {
    // m is exact, q rounds once, the add rounds once — FMA would skip q's
    // rounding and diverge from the scalar scheme, so stay mul+add.
    const __m256d m_lo = _mm256_mul_pd(CvtLo(a + d), CvtLo(b + d));
    const __m256d q_lo = _mm256_mul_pd(m_lo, CvtLo(c + d));
    acc_lo = _mm256_add_pd(acc_lo, q_lo);
    const __m256d m_hi = _mm256_mul_pd(CvtLo(a + d + 4), CvtLo(b + d + 4));
    const __m256d q_hi = _mm256_mul_pd(m_hi, CvtLo(c + d + 4));
    acc_hi = _mm256_add_pd(acc_hi, q_hi);
  }
  double p[kAccumulatorLanes];
  StorePartials(acc_lo, acc_hi, p);
  TrilinearTail(a, b, c, d, n, p);
  return Combine8(p);
}

double SquaredNorm(const float* a, size_t n) { return Dot(a, a, n); }

double L1Norm(const float* a, size_t n) {
  const __m256d sign_mask = _mm256_set1_pd(-0.0);
  __m256d acc_lo = _mm256_setzero_pd();
  __m256d acc_hi = _mm256_setzero_pd();
  size_t d = 0;
  for (; d + kAccumulatorLanes <= n; d += kAccumulatorLanes) {
    acc_lo = _mm256_add_pd(acc_lo,
                           _mm256_andnot_pd(sign_mask, CvtLo(a + d)));
    acc_hi = _mm256_add_pd(acc_hi,
                           _mm256_andnot_pd(sign_mask, CvtLo(a + d + 4)));
  }
  double p[kAccumulatorLanes];
  StorePartials(acc_lo, acc_hi, p);
  L1NormTail(a, d, n, p);
  return Combine8(p);
}

double L1Distance(const float* a, const float* b, size_t n) {
  const __m256d sign_mask = _mm256_set1_pd(-0.0);
  __m256d acc_lo = _mm256_setzero_pd();
  __m256d acc_hi = _mm256_setzero_pd();
  size_t d = 0;
  for (; d + kAccumulatorLanes <= n; d += kAccumulatorLanes) {
    const __m256d diff_lo = _mm256_sub_pd(CvtLo(a + d), CvtLo(b + d));
    acc_lo = _mm256_add_pd(acc_lo, _mm256_andnot_pd(sign_mask, diff_lo));
    const __m256d diff_hi = _mm256_sub_pd(CvtLo(a + d + 4), CvtLo(b + d + 4));
    acc_hi = _mm256_add_pd(acc_hi, _mm256_andnot_pd(sign_mask, diff_hi));
  }
  double p[kAccumulatorLanes];
  StorePartials(acc_lo, acc_hi, p);
  L1DistanceTail(a, b, d, n, p);
  return Combine8(p);
}

double SquaredL2Distance(const float* a, const float* b, size_t n) {
  __m256d acc_lo = _mm256_setzero_pd();
  __m256d acc_hi = _mm256_setzero_pd();
  size_t d = 0;
  for (; d + kAccumulatorLanes <= n; d += kAccumulatorLanes) {
    // diff² is inexact in double, so no FMA (see TrilinearDot).
    const __m256d diff_lo = _mm256_sub_pd(CvtLo(a + d), CvtLo(b + d));
    const __m256d sq_lo = _mm256_mul_pd(diff_lo, diff_lo);
    acc_lo = _mm256_add_pd(acc_lo, sq_lo);
    const __m256d diff_hi = _mm256_sub_pd(CvtLo(a + d + 4), CvtLo(b + d + 4));
    const __m256d sq_hi = _mm256_mul_pd(diff_hi, diff_hi);
    acc_hi = _mm256_add_pd(acc_hi, sq_hi);
  }
  double p[kAccumulatorLanes];
  StorePartials(acc_lo, acc_hi, p);
  L2DistanceTail(a, b, d, n, p);
  return Combine8(p);
}

double MaxAbsDiff(const float* a, const float* b, size_t n) {
  // Subtract in double like the scalar path: the difference of two
  // floats is not always representable in float, so a float subtract
  // would round differently. Max itself is order-insensitive.
  const __m256d sign_mask = _mm256_set1_pd(-0.0);
  __m256d vmax_lo = _mm256_setzero_pd();
  __m256d vmax_hi = _mm256_setzero_pd();
  size_t d = 0;
  for (; d + kAccumulatorLanes <= n; d += kAccumulatorLanes) {
    const __m256d diff_lo = _mm256_sub_pd(CvtLo(a + d), CvtLo(b + d));
    vmax_lo = _mm256_max_pd(vmax_lo, _mm256_andnot_pd(sign_mask, diff_lo));
    const __m256d diff_hi = _mm256_sub_pd(CvtLo(a + d + 4), CvtLo(b + d + 4));
    vmax_hi = _mm256_max_pd(vmax_hi, _mm256_andnot_pd(sign_mask, diff_hi));
  }
  double lanes[kAccumulatorLanes];
  StorePartials(vmax_lo, vmax_hi, lanes);
  double max_diff = 0.0;
  for (double lane : lanes) {
    if (lane > max_diff) max_diff = lane;
  }
  for (; d < n; ++d) {
    const double diff = std::fabs(double(a[d]) - double(b[d]));
    if (diff > max_diff) max_diff = diff;
  }
  return max_diff;
}

namespace {

// One kDotBatchTileRows-row tile of DotBatch: four independent two-
// register accumulator groups, each following the exact Dot scheme, with
// every load/convert of v shared across the four rows. Writes
// out[0..3] = float(Dot(v, r_i)). Factored out so the contiguous
// (DotBatch) and id-indirected (DotBatchIndexed) drivers share one body.
inline void DotTile4(const float* v, const float* r0, const float* r1,
                     const float* r2, const float* r3, size_t n,
                     float* out) {
  __m256d a0_lo = _mm256_setzero_pd(), a0_hi = _mm256_setzero_pd();
  __m256d a1_lo = _mm256_setzero_pd(), a1_hi = _mm256_setzero_pd();
  __m256d a2_lo = _mm256_setzero_pd(), a2_hi = _mm256_setzero_pd();
  __m256d a3_lo = _mm256_setzero_pd(), a3_hi = _mm256_setzero_pd();
  size_t d = 0;
  for (; d + kAccumulatorLanes <= n; d += kAccumulatorLanes) {
    const __m256d v_lo = CvtLo(v + d);
    const __m256d v_hi = CvtLo(v + d + 4);
    a0_lo = _mm256_fmadd_pd(CvtLo(r0 + d), v_lo, a0_lo);
    a0_hi = _mm256_fmadd_pd(CvtLo(r0 + d + 4), v_hi, a0_hi);
    a1_lo = _mm256_fmadd_pd(CvtLo(r1 + d), v_lo, a1_lo);
    a1_hi = _mm256_fmadd_pd(CvtLo(r1 + d + 4), v_hi, a1_hi);
    a2_lo = _mm256_fmadd_pd(CvtLo(r2 + d), v_lo, a2_lo);
    a2_hi = _mm256_fmadd_pd(CvtLo(r2 + d + 4), v_hi, a2_hi);
    a3_lo = _mm256_fmadd_pd(CvtLo(r3 + d), v_lo, a3_lo);
    a3_hi = _mm256_fmadd_pd(CvtLo(r3 + d + 4), v_hi, a3_hi);
  }
  double p0[kAccumulatorLanes], p1[kAccumulatorLanes];
  double p2[kAccumulatorLanes], p3[kAccumulatorLanes];
  StorePartials(a0_lo, a0_hi, p0);
  StorePartials(a1_lo, a1_hi, p1);
  StorePartials(a2_lo, a2_hi, p2);
  StorePartials(a3_lo, a3_hi, p3);
  DotTail(v, r0, d, n, p0);
  DotTail(v, r1, d, n, p1);
  DotTail(v, r2, d, n, p2);
  DotTail(v, r3, d, n, p3);
  out[0] = float(Combine8(p0));
  out[1] = float(Combine8(p1));
  out[2] = float(Combine8(p2));
  out[3] = float(Combine8(p3));
}

// 2-query × 2-row register block of DotBatchMulti: four accumulator
// groups (q×r), eight live __m256d accumulators, with each row
// load/convert shared across both queries and each query load/convert
// shared across both rows. out0/out1 receive the two rows' scores for
// q0/q1 respectively; every cell rounds exactly like Dot.
inline void DotTile2x2(const float* q0, const float* q1, const float* r0,
                       const float* r1, size_t n, float* out0, float* out1) {
  __m256d a00_lo = _mm256_setzero_pd(), a00_hi = _mm256_setzero_pd();
  __m256d a01_lo = _mm256_setzero_pd(), a01_hi = _mm256_setzero_pd();
  __m256d a10_lo = _mm256_setzero_pd(), a10_hi = _mm256_setzero_pd();
  __m256d a11_lo = _mm256_setzero_pd(), a11_hi = _mm256_setzero_pd();
  size_t d = 0;
  for (; d + kAccumulatorLanes <= n; d += kAccumulatorLanes) {
    const __m256d q0_lo = CvtLo(q0 + d);
    const __m256d q0_hi = CvtLo(q0 + d + 4);
    const __m256d q1_lo = CvtLo(q1 + d);
    const __m256d q1_hi = CvtLo(q1 + d + 4);
    const __m256d r0_lo = CvtLo(r0 + d);
    const __m256d r0_hi = CvtLo(r0 + d + 4);
    a00_lo = _mm256_fmadd_pd(r0_lo, q0_lo, a00_lo);
    a00_hi = _mm256_fmadd_pd(r0_hi, q0_hi, a00_hi);
    a10_lo = _mm256_fmadd_pd(r0_lo, q1_lo, a10_lo);
    a10_hi = _mm256_fmadd_pd(r0_hi, q1_hi, a10_hi);
    const __m256d r1_lo = CvtLo(r1 + d);
    const __m256d r1_hi = CvtLo(r1 + d + 4);
    a01_lo = _mm256_fmadd_pd(r1_lo, q0_lo, a01_lo);
    a01_hi = _mm256_fmadd_pd(r1_hi, q0_hi, a01_hi);
    a11_lo = _mm256_fmadd_pd(r1_lo, q1_lo, a11_lo);
    a11_hi = _mm256_fmadd_pd(r1_hi, q1_hi, a11_hi);
  }
  double p00[kAccumulatorLanes], p01[kAccumulatorLanes];
  double p10[kAccumulatorLanes], p11[kAccumulatorLanes];
  StorePartials(a00_lo, a00_hi, p00);
  StorePartials(a01_lo, a01_hi, p01);
  StorePartials(a10_lo, a10_hi, p10);
  StorePartials(a11_lo, a11_hi, p11);
  DotTail(q0, r0, d, n, p00);
  DotTail(q0, r1, d, n, p01);
  DotTail(q1, r0, d, n, p10);
  DotTail(q1, r1, d, n, p11);
  out0[0] = float(Combine8(p00));
  out0[1] = float(Combine8(p01));
  out1[0] = float(Combine8(p10));
  out1[1] = float(Combine8(p11));
}

// Two queries against a contiguous row block: row pairs go through the
// 2×2 register kernel, a trailing odd row falls back to Dot per query.
inline void DotBatchDual(const float* q0, const float* q1, const float* rows,
                         size_t num_rows, size_t n, float* out0,
                         float* out1) {
  size_t row = 0;
  for (; row + 2 <= num_rows; row += 2) {
    DotTile2x2(q0, q1, rows + row * n, rows + (row + 1) * n, n, out0 + row,
               out1 + row);
  }
  if (row < num_rows) {
    const float* r = rows + row * n;
    out0[row] = float(Dot(q0, r, n));
    out1[row] = float(Dot(q1, r, n));
  }
}

// ---- Precision-tier cells (float 8-lane scheme; see simd.h) ----------------

// 8 int8 codes → 8 floats, exactly (|code| ≤ 127 « 2^24).
inline __m256 CvtI8(const std::int8_t* r) {
  const __m128i codes =
      _mm_loadl_epi64(reinterpret_cast<const __m128i*>(r));
  return _mm256_cvtepi32_ps(_mm256_cvtepi8_epi32(codes));
}

// One (query, row) cell of the float32 tier: a single __m256 holds the 8
// float lanes, mul-then-add only (vfmadd*ps would skip the per-product
// rounding the scalar scheme performs).
inline float DotCellF32(const float* a, const float* b, size_t n) {
  __m256 acc = _mm256_setzero_ps();
  size_t d = 0;
  for (; d + kAccumulatorLanes <= n; d += kAccumulatorLanes) {
    const __m256 m = _mm256_mul_ps(_mm256_loadu_ps(a + d),
                                   _mm256_loadu_ps(b + d));
    acc = _mm256_add_ps(acc, m);
  }
  float p[kAccumulatorLanes];
  _mm256_storeu_ps(p, acc);
  DotTailF32(a, b, d, n, p);
  return CombineF32(p);
}

// One (query, row) cell of the int8 tier: convert 8 codes per step
// (exact), run the float lane scheme, scale once after the combine.
inline float DotCellI8(const float* q, const std::int8_t* r, float scale,
                       size_t n) {
  __m256 acc = _mm256_setzero_ps();
  size_t d = 0;
  for (; d + kAccumulatorLanes <= n; d += kAccumulatorLanes) {
    const __m256 m = _mm256_mul_ps(_mm256_loadu_ps(q + d), CvtI8(r + d));
    acc = _mm256_add_ps(acc, m);
  }
  float p[kAccumulatorLanes];
  _mm256_storeu_ps(p, acc);
  DotTailI8(q, r, d, n, p);
  const float sum = CombineF32(p);
  return scale * sum;
}

// 2-query × 2-row register block of DotBatchMultiF32 (DotTile2x2's float
// twin): four live __m256 accumulators, each row load shared across both
// queries and vice versa, every cell rounding exactly like DotCellF32.
inline void DotTile2x2F32(const float* q0, const float* q1, const float* r0,
                          const float* r1, size_t n, float* out0,
                          float* out1) {
  __m256 a00 = _mm256_setzero_ps(), a01 = _mm256_setzero_ps();
  __m256 a10 = _mm256_setzero_ps(), a11 = _mm256_setzero_ps();
  size_t d = 0;
  for (; d + kAccumulatorLanes <= n; d += kAccumulatorLanes) {
    const __m256 vq0 = _mm256_loadu_ps(q0 + d);
    const __m256 vq1 = _mm256_loadu_ps(q1 + d);
    const __m256 vr0 = _mm256_loadu_ps(r0 + d);
    a00 = _mm256_add_ps(a00, _mm256_mul_ps(vr0, vq0));
    a10 = _mm256_add_ps(a10, _mm256_mul_ps(vr0, vq1));
    const __m256 vr1 = _mm256_loadu_ps(r1 + d);
    a01 = _mm256_add_ps(a01, _mm256_mul_ps(vr1, vq0));
    a11 = _mm256_add_ps(a11, _mm256_mul_ps(vr1, vq1));
  }
  float p00[kAccumulatorLanes], p01[kAccumulatorLanes];
  float p10[kAccumulatorLanes], p11[kAccumulatorLanes];
  _mm256_storeu_ps(p00, a00);
  _mm256_storeu_ps(p01, a01);
  _mm256_storeu_ps(p10, a10);
  _mm256_storeu_ps(p11, a11);
  DotTailF32(q0, r0, d, n, p00);
  DotTailF32(q0, r1, d, n, p01);
  DotTailF32(q1, r0, d, n, p10);
  DotTailF32(q1, r1, d, n, p11);
  out0[0] = CombineF32(p00);
  out0[1] = CombineF32(p01);
  out1[0] = CombineF32(p10);
  out1[1] = CombineF32(p11);
}

// The int8 twin: each row's 8-code convert is shared across both queries.
inline void DotTile2x2I8(const float* q0, const float* q1,
                         const std::int8_t* r0, const std::int8_t* r1,
                         float s0, float s1, size_t n, float* out0,
                         float* out1) {
  __m256 a00 = _mm256_setzero_ps(), a01 = _mm256_setzero_ps();
  __m256 a10 = _mm256_setzero_ps(), a11 = _mm256_setzero_ps();
  size_t d = 0;
  for (; d + kAccumulatorLanes <= n; d += kAccumulatorLanes) {
    const __m256 vq0 = _mm256_loadu_ps(q0 + d);
    const __m256 vq1 = _mm256_loadu_ps(q1 + d);
    const __m256 vr0 = CvtI8(r0 + d);
    a00 = _mm256_add_ps(a00, _mm256_mul_ps(vr0, vq0));
    a10 = _mm256_add_ps(a10, _mm256_mul_ps(vr0, vq1));
    const __m256 vr1 = CvtI8(r1 + d);
    a01 = _mm256_add_ps(a01, _mm256_mul_ps(vr1, vq0));
    a11 = _mm256_add_ps(a11, _mm256_mul_ps(vr1, vq1));
  }
  float p00[kAccumulatorLanes], p01[kAccumulatorLanes];
  float p10[kAccumulatorLanes], p11[kAccumulatorLanes];
  _mm256_storeu_ps(p00, a00);
  _mm256_storeu_ps(p01, a01);
  _mm256_storeu_ps(p10, a10);
  _mm256_storeu_ps(p11, a11);
  DotTailI8(q0, r0, d, n, p00);
  DotTailI8(q0, r1, d, n, p01);
  DotTailI8(q1, r0, d, n, p10);
  DotTailI8(q1, r1, d, n, p11);
  const float sum00 = CombineF32(p00);
  const float sum01 = CombineF32(p01);
  const float sum10 = CombineF32(p10);
  const float sum11 = CombineF32(p11);
  out0[0] = s0 * sum00;
  out0[1] = s1 * sum01;
  out1[0] = s0 * sum10;
  out1[1] = s1 * sum11;
}

// Two queries against a contiguous float32 row block (DotBatchDual's
// float twin); a trailing odd row falls back to the single cell.
inline void DotBatchDualF32(const float* q0, const float* q1,
                            const float* rows, size_t num_rows, size_t n,
                            float* out0, float* out1) {
  size_t row = 0;
  for (; row + 2 <= num_rows; row += 2) {
    DotTile2x2F32(q0, q1, rows + row * n, rows + (row + 1) * n, n,
                  out0 + row, out1 + row);
  }
  if (row < num_rows) {
    const float* r = rows + row * n;
    out0[row] = DotCellF32(q0, r, n);
    out1[row] = DotCellF32(q1, r, n);
  }
}

inline void DotBatchDualI8(const float* q0, const float* q1,
                           const std::int8_t* rows8, const float* scales,
                           size_t num_rows, size_t n, float* out0,
                           float* out1) {
  size_t row = 0;
  for (; row + 2 <= num_rows; row += 2) {
    DotTile2x2I8(q0, q1, rows8 + row * n, rows8 + (row + 1) * n,
                 scales[row], scales[row + 1], n, out0 + row, out1 + row);
  }
  if (row < num_rows) {
    const std::int8_t* r = rows8 + row * n;
    out0[row] = DotCellI8(q0, r, scales[row], n);
    out1[row] = DotCellI8(q1, r, scales[row], n);
  }
}

}  // namespace

void DotBatch(const float* v, const float* rows, size_t num_rows, size_t n,
              float* out) {
  // Tiles of kDotBatchTileRows rows; each row keeps the same two-register
  // accumulator group as Dot, so out[row] == float(Dot(v, row)) exactly.
  // The tile shares every load/convert of v across its rows, turning the
  // ranking loop into a blocked matrix-vector product.
  size_t row = 0;
  for (; row + kDotBatchTileRows <= num_rows; row += kDotBatchTileRows) {
    DotTile4(v, rows + (row + 0) * n, rows + (row + 1) * n,
             rows + (row + 2) * n, rows + (row + 3) * n, n, out + row);
  }
  for (; row < num_rows; ++row) {
    out[row] = float(Dot(v, rows + row * n, n));
  }
}

void DotBatchIndexed(const float* v, const float* rows,
                     const std::int32_t* ids, size_t num_ids, size_t n,
                     float* out) {
  size_t i = 0;
  for (; i + kDotBatchTileRows <= num_ids; i += kDotBatchTileRows) {
    DotTile4(v, rows + size_t(ids[i + 0]) * n, rows + size_t(ids[i + 1]) * n,
             rows + size_t(ids[i + 2]) * n, rows + size_t(ids[i + 3]) * n, n,
             out + i);
  }
  for (; i < num_ids; ++i) {
    out[i] = float(Dot(v, rows + size_t(ids[i]) * n, n));
  }
}

void Hadamard(const float* a, const float* b, float* out, size_t n) {
  size_t d = 0;
  for (; d + 8 <= n; d += 8) {
    const __m256 m = _mm256_mul_ps(_mm256_loadu_ps(a + d),
                                   _mm256_loadu_ps(b + d));
    _mm256_storeu_ps(out + d, m);
  }
  for (; d < n; ++d) out[d] = a[d] * b[d];
}

void HadamardAxpy(float scale, const float* a, const float* b, float* out,
                  size_t n) {
  const __m256 vs = _mm256_set1_ps(scale);
  size_t d = 0;
  for (; d + 8 <= n; d += 8) {
    const __m256 sa = _mm256_mul_ps(vs, _mm256_loadu_ps(a + d));
    const __m256 sab = _mm256_mul_ps(sa, _mm256_loadu_ps(b + d));
    const __m256 sum = _mm256_add_ps(_mm256_loadu_ps(out + d), sab);
    _mm256_storeu_ps(out + d, sum);
  }
  for (; d < n; ++d) {
    const float sa = scale * a[d];
    const float sab = sa * b[d];
    out[d] += sab;
  }
}

void Axpy(float scale, const float* a, float* out, size_t n) {
  const __m256 vs = _mm256_set1_ps(scale);
  size_t d = 0;
  for (; d + 8 <= n; d += 8) {
    const __m256 sa = _mm256_mul_ps(vs, _mm256_loadu_ps(a + d));
    const __m256 sum = _mm256_add_ps(_mm256_loadu_ps(out + d), sa);
    _mm256_storeu_ps(out + d, sum);
  }
  for (; d < n; ++d) {
    const float sa = scale * a[d];
    out[d] += sa;
  }
}

void Fill(float* out, float value, size_t n) {
  const __m256 vv = _mm256_set1_ps(value);
  size_t d = 0;
  for (; d + 8 <= n; d += 8) _mm256_storeu_ps(out + d, vv);
  for (; d < n; ++d) out[d] = value;
}

void Scale(float* out, float scale, size_t n) {
  const __m256 vs = _mm256_set1_ps(scale);
  size_t d = 0;
  for (; d + 8 <= n; d += 8) {
    _mm256_storeu_ps(out + d, _mm256_mul_ps(vs, _mm256_loadu_ps(out + d)));
  }
  for (; d < n; ++d) out[d] *= scale;
}

void TripleGradAxpy(float w, const float* h, const float* t, const float* r,
                    float* gh, float* gt, float* gr, size_t n) {
  const __m256 vw = _mm256_set1_ps(w);
  size_t d = 0;
  for (; d + 8 <= n; d += 8) {
    const __m256 vh = _mm256_loadu_ps(h + d);
    const __m256 vt = _mm256_loadu_ps(t + d);
    const __m256 vr = _mm256_loadu_ps(r + d);
    const __m256 wh = _mm256_mul_ps(vw, vh);
    const __m256 wt = _mm256_mul_ps(vw, vt);
    const __m256 dgh = _mm256_mul_ps(wt, vr);
    const __m256 dgt = _mm256_mul_ps(wh, vr);
    const __m256 dgr = _mm256_mul_ps(wh, vt);
    _mm256_storeu_ps(gh + d, _mm256_add_ps(_mm256_loadu_ps(gh + d), dgh));
    _mm256_storeu_ps(gt + d, _mm256_add_ps(_mm256_loadu_ps(gt + d), dgt));
    _mm256_storeu_ps(gr + d, _mm256_add_ps(_mm256_loadu_ps(gr + d), dgr));
  }
  for (; d < n; ++d) {
    const float wh = w * h[d];
    const float wt = w * t[d];
    const float dgh = wt * r[d];
    const float dgt = wh * r[d];
    const float dgr = wh * t[d];
    gh[d] += dgh;
    gt[d] += dgt;
    gr[d] += dgr;
  }
}

// The optimizer rows: the ref expressions lane by lane (IEEE mul, add,
// div and sqrt round exactly like their scalar forms), tails via ref.
void SgdRow(float lr, const float* g, float* p, size_t n) {
  const __m256 vlr = _mm256_set1_ps(lr);
  size_t d = 0;
  for (; d + 8 <= n; d += 8) {
    const __m256 step = _mm256_mul_ps(vlr, _mm256_loadu_ps(g + d));
    _mm256_storeu_ps(p + d, _mm256_sub_ps(_mm256_loadu_ps(p + d), step));
  }
  ref::SgdRow(lr, g + d, p + d, n - d);
}

void AdagradRow(float lr, float eps, const float* g, float* acc, float* p,
                size_t n) {
  const __m256 vlr = _mm256_set1_ps(lr);
  const __m256 veps = _mm256_set1_ps(eps);
  size_t d = 0;
  for (; d + 8 <= n; d += 8) {
    const __m256 vg = _mm256_loadu_ps(g + d);
    const __m256 va =
        _mm256_add_ps(_mm256_loadu_ps(acc + d), _mm256_mul_ps(vg, vg));
    _mm256_storeu_ps(acc + d, va);
    const __m256 step =
        _mm256_div_ps(_mm256_mul_ps(vlr, vg),
                      _mm256_add_ps(_mm256_sqrt_ps(va), veps));
    _mm256_storeu_ps(p + d, _mm256_sub_ps(_mm256_loadu_ps(p + d), step));
  }
  ref::AdagradRow(lr, eps, g + d, acc + d, p + d, n - d);
}

void AdamRow(const AdamRowStep& step, const float* g, float* m, float* v,
             float* p, size_t n) {
  const __m256d beta1 = _mm256_set1_pd(step.beta1);
  const __m256d beta2 = _mm256_set1_pd(step.beta2);
  const __m256d keep1 = _mm256_set1_pd(1.0 - step.beta1);
  const __m256d keep2 = _mm256_set1_pd(1.0 - step.beta2);
  const __m256d lr = _mm256_set1_pd(step.lr);
  const __m256d eps = _mm256_set1_pd(step.eps);
  size_t d = 0;
  for (; d + 4 <= n; d += 4) {
    const __m256d vg = _mm256_cvtps_pd(_mm_loadu_ps(g + d));
    const __m256d vm = _mm256_cvtps_pd(_mm_loadu_ps(m + d));
    const __m256d vv = _mm256_cvtps_pd(_mm_loadu_ps(v + d));
    const __m128 m4 = _mm256_cvtpd_ps(
        _mm256_add_pd(_mm256_mul_pd(beta1, vm), _mm256_mul_pd(keep1, vg)));
    const __m128 v4 = _mm256_cvtpd_ps(_mm256_add_pd(
        _mm256_mul_pd(beta2, vv), _mm256_mul_pd(_mm256_mul_pd(keep2, vg), vg)));
    _mm_storeu_ps(m + d, m4);
    _mm_storeu_ps(v + d, v4);
    const __m128 delta = _mm256_cvtpd_ps(_mm256_div_pd(
        _mm256_mul_pd(lr, _mm256_cvtps_pd(m4)),
        _mm256_add_pd(_mm256_sqrt_pd(_mm256_cvtps_pd(v4)), eps)));
    _mm_storeu_ps(p + d, _mm_sub_ps(_mm_loadu_ps(p + d), delta));
  }
  ref::AdamRow(step, g + d, m + d, v + d, p + d, n - d);
}

// ---- NEON (AArch64) --------------------------------------------------------

#elif defined(KGE_SIMD_ISA_NEON)

namespace {

struct Acc8 {
  // Lane layout matches the 8-lane scheme: a = {p0,p1}, b = {p2,p3},
  // c = {p4,p5}, d = {p6,p7}.
  float64x2_t a, b, c, d;
};

inline Acc8 ZeroAcc8() {
  const float64x2_t z = vdupq_n_f64(0.0);
  return Acc8{z, z, z, z};
}

inline void StorePartials(const Acc8& acc, double p[kAccumulatorLanes]) {
  vst1q_f64(p + 0, acc.a);
  vst1q_f64(p + 2, acc.b);
  vst1q_f64(p + 4, acc.c);
  vst1q_f64(p + 6, acc.d);
}

struct Dbl8 {
  float64x2_t a, b, c, d;
};

inline Dbl8 Widen8(const float* x) {
  const float32x4_t lo = vld1q_f32(x);
  const float32x4_t hi = vld1q_f32(x + 4);
  return Dbl8{vcvt_f64_f32(vget_low_f32(lo)), vcvt_high_f64_f32(lo),
              vcvt_f64_f32(vget_low_f32(hi)), vcvt_high_f64_f32(hi)};
}

}  // namespace

double Dot(const float* a, const float* b, size_t n) {
  Acc8 acc = ZeroAcc8();
  size_t d = 0;
  for (; d + kAccumulatorLanes <= n; d += kAccumulatorLanes) {
    const Dbl8 xa = Widen8(a + d);
    const Dbl8 xb = Widen8(b + d);
    acc.a = vfmaq_f64(acc.a, xa.a, xb.a);
    acc.b = vfmaq_f64(acc.b, xa.b, xb.b);
    acc.c = vfmaq_f64(acc.c, xa.c, xb.c);
    acc.d = vfmaq_f64(acc.d, xa.d, xb.d);
  }
  double p[kAccumulatorLanes];
  StorePartials(acc, p);
  DotTail(a, b, d, n, p);
  return Combine8(p);
}

double TrilinearDot(const float* a, const float* b, const float* c,
                    size_t n) {
  Acc8 acc = ZeroAcc8();
  size_t d = 0;
  for (; d + kAccumulatorLanes <= n; d += kAccumulatorLanes) {
    const Dbl8 xa = Widen8(a + d);
    const Dbl8 xb = Widen8(b + d);
    const Dbl8 xc = Widen8(c + d);
    // Same two-rounding structure as the scalar scheme: no FMA.
    acc.a = vaddq_f64(acc.a, vmulq_f64(vmulq_f64(xa.a, xb.a), xc.a));
    acc.b = vaddq_f64(acc.b, vmulq_f64(vmulq_f64(xa.b, xb.b), xc.b));
    acc.c = vaddq_f64(acc.c, vmulq_f64(vmulq_f64(xa.c, xb.c), xc.c));
    acc.d = vaddq_f64(acc.d, vmulq_f64(vmulq_f64(xa.d, xb.d), xc.d));
  }
  double p[kAccumulatorLanes];
  StorePartials(acc, p);
  TrilinearTail(a, b, c, d, n, p);
  return Combine8(p);
}

double SquaredNorm(const float* a, size_t n) { return Dot(a, a, n); }

double L1Norm(const float* a, size_t n) {
  Acc8 acc = ZeroAcc8();
  size_t d = 0;
  for (; d + kAccumulatorLanes <= n; d += kAccumulatorLanes) {
    const Dbl8 xa = Widen8(a + d);
    acc.a = vaddq_f64(acc.a, vabsq_f64(xa.a));
    acc.b = vaddq_f64(acc.b, vabsq_f64(xa.b));
    acc.c = vaddq_f64(acc.c, vabsq_f64(xa.c));
    acc.d = vaddq_f64(acc.d, vabsq_f64(xa.d));
  }
  double p[kAccumulatorLanes];
  StorePartials(acc, p);
  L1NormTail(a, d, n, p);
  return Combine8(p);
}

double L1Distance(const float* a, const float* b, size_t n) {
  Acc8 acc = ZeroAcc8();
  size_t d = 0;
  for (; d + kAccumulatorLanes <= n; d += kAccumulatorLanes) {
    const Dbl8 xa = Widen8(a + d);
    const Dbl8 xb = Widen8(b + d);
    acc.a = vaddq_f64(acc.a, vabsq_f64(vsubq_f64(xa.a, xb.a)));
    acc.b = vaddq_f64(acc.b, vabsq_f64(vsubq_f64(xa.b, xb.b)));
    acc.c = vaddq_f64(acc.c, vabsq_f64(vsubq_f64(xa.c, xb.c)));
    acc.d = vaddq_f64(acc.d, vabsq_f64(vsubq_f64(xa.d, xb.d)));
  }
  double p[kAccumulatorLanes];
  StorePartials(acc, p);
  L1DistanceTail(a, b, d, n, p);
  return Combine8(p);
}

double SquaredL2Distance(const float* a, const float* b, size_t n) {
  Acc8 acc = ZeroAcc8();
  size_t d = 0;
  for (; d + kAccumulatorLanes <= n; d += kAccumulatorLanes) {
    const Dbl8 xa = Widen8(a + d);
    const Dbl8 xb = Widen8(b + d);
    const float64x2_t da = vsubq_f64(xa.a, xb.a);
    const float64x2_t db = vsubq_f64(xa.b, xb.b);
    const float64x2_t dc = vsubq_f64(xa.c, xb.c);
    const float64x2_t dd = vsubq_f64(xa.d, xb.d);
    acc.a = vaddq_f64(acc.a, vmulq_f64(da, da));
    acc.b = vaddq_f64(acc.b, vmulq_f64(db, db));
    acc.c = vaddq_f64(acc.c, vmulq_f64(dc, dc));
    acc.d = vaddq_f64(acc.d, vmulq_f64(dd, dd));
  }
  double p[kAccumulatorLanes];
  StorePartials(acc, p);
  L2DistanceTail(a, b, d, n, p);
  return Combine8(p);
}

double MaxAbsDiff(const float* a, const float* b, size_t n) {
  // Subtract in double like the scalar path: the difference of two
  // floats is not always representable in float, so a float subtract
  // would round differently. Max itself is order-insensitive.
  float64x2_t vmax = vdupq_n_f64(0.0);
  size_t d = 0;
  for (; d + 4 <= n; d += 4) {
    const float32x4_t af = vld1q_f32(a + d);
    const float32x4_t bf = vld1q_f32(b + d);
    const float64x2_t diff_lo = vsubq_f64(vcvt_f64_f32(vget_low_f32(af)),
                                          vcvt_f64_f32(vget_low_f32(bf)));
    const float64x2_t diff_hi =
        vsubq_f64(vcvt_high_f64_f32(af), vcvt_high_f64_f32(bf));
    vmax = vmaxq_f64(vmax, vabsq_f64(diff_lo));
    vmax = vmaxq_f64(vmax, vabsq_f64(diff_hi));
  }
  double max_diff = vmaxvq_f64(vmax);
  for (; d < n; ++d) {
    const double diff = std::fabs(double(a[d]) - double(b[d]));
    if (diff > max_diff) max_diff = diff;
  }
  return max_diff;
}

namespace {

// One kDotBatchTileRows-row tile of DotBatch (see the AVX2 twin): four
// accumulator groups sharing every widen of v, each row rounding exactly
// like Dot. Shared by the contiguous and id-indirected drivers.
inline void DotTile4(const float* v, const float* r0, const float* r1,
                     const float* r2, const float* r3, size_t n,
                     float* out) {
  Acc8 acc0 = ZeroAcc8(), acc1 = ZeroAcc8();
  Acc8 acc2 = ZeroAcc8(), acc3 = ZeroAcc8();
  size_t d = 0;
  for (; d + kAccumulatorLanes <= n; d += kAccumulatorLanes) {
    const Dbl8 xv = Widen8(v + d);
    const Dbl8 x0 = Widen8(r0 + d);
    acc0.a = vfmaq_f64(acc0.a, x0.a, xv.a);
    acc0.b = vfmaq_f64(acc0.b, x0.b, xv.b);
    acc0.c = vfmaq_f64(acc0.c, x0.c, xv.c);
    acc0.d = vfmaq_f64(acc0.d, x0.d, xv.d);
    const Dbl8 x1 = Widen8(r1 + d);
    acc1.a = vfmaq_f64(acc1.a, x1.a, xv.a);
    acc1.b = vfmaq_f64(acc1.b, x1.b, xv.b);
    acc1.c = vfmaq_f64(acc1.c, x1.c, xv.c);
    acc1.d = vfmaq_f64(acc1.d, x1.d, xv.d);
    const Dbl8 x2 = Widen8(r2 + d);
    acc2.a = vfmaq_f64(acc2.a, x2.a, xv.a);
    acc2.b = vfmaq_f64(acc2.b, x2.b, xv.b);
    acc2.c = vfmaq_f64(acc2.c, x2.c, xv.c);
    acc2.d = vfmaq_f64(acc2.d, x2.d, xv.d);
    const Dbl8 x3 = Widen8(r3 + d);
    acc3.a = vfmaq_f64(acc3.a, x3.a, xv.a);
    acc3.b = vfmaq_f64(acc3.b, x3.b, xv.b);
    acc3.c = vfmaq_f64(acc3.c, x3.c, xv.c);
    acc3.d = vfmaq_f64(acc3.d, x3.d, xv.d);
  }
  double p0[kAccumulatorLanes], p1[kAccumulatorLanes];
  double p2[kAccumulatorLanes], p3[kAccumulatorLanes];
  StorePartials(acc0, p0);
  StorePartials(acc1, p1);
  StorePartials(acc2, p2);
  StorePartials(acc3, p3);
  DotTail(v, r0, d, n, p0);
  DotTail(v, r1, d, n, p1);
  DotTail(v, r2, d, n, p2);
  DotTail(v, r3, d, n, p3);
  out[0] = float(Combine8(p0));
  out[1] = float(Combine8(p1));
  out[2] = float(Combine8(p2));
  out[3] = float(Combine8(p3));
}

// ---- Precision-tier cells (float 8-lane scheme; see simd.h) ----------------
// Lanes 0–3 live in acc_lo, 4–7 in acc_hi; mul-then-add only.

inline float DotCellF32(const float* a, const float* b, size_t n) {
  float32x4_t acc_lo = vdupq_n_f32(0.0f);
  float32x4_t acc_hi = vdupq_n_f32(0.0f);
  size_t d = 0;
  for (; d + kAccumulatorLanes <= n; d += kAccumulatorLanes) {
    const float32x4_t m_lo = vmulq_f32(vld1q_f32(a + d), vld1q_f32(b + d));
    acc_lo = vaddq_f32(acc_lo, m_lo);
    const float32x4_t m_hi =
        vmulq_f32(vld1q_f32(a + d + 4), vld1q_f32(b + d + 4));
    acc_hi = vaddq_f32(acc_hi, m_hi);
  }
  float p[kAccumulatorLanes];
  vst1q_f32(p, acc_lo);
  vst1q_f32(p + 4, acc_hi);
  DotTailF32(a, b, d, n, p);
  return CombineF32(p);
}

inline float DotCellI8(const float* q, const std::int8_t* r, float scale,
                       size_t n) {
  float32x4_t acc_lo = vdupq_n_f32(0.0f);
  float32x4_t acc_hi = vdupq_n_f32(0.0f);
  size_t d = 0;
  for (; d + kAccumulatorLanes <= n; d += kAccumulatorLanes) {
    const int16x8_t w16 = vmovl_s8(vld1_s8(r + d));  // exact widening
    const float32x4_t r_lo = vcvtq_f32_s32(vmovl_s16(vget_low_s16(w16)));
    const float32x4_t r_hi = vcvtq_f32_s32(vmovl_s16(vget_high_s16(w16)));
    acc_lo = vaddq_f32(acc_lo, vmulq_f32(vld1q_f32(q + d), r_lo));
    acc_hi = vaddq_f32(acc_hi, vmulq_f32(vld1q_f32(q + d + 4), r_hi));
  }
  float p[kAccumulatorLanes];
  vst1q_f32(p, acc_lo);
  vst1q_f32(p + 4, acc_hi);
  DotTailI8(q, r, d, n, p);
  const float sum = CombineF32(p);
  return scale * sum;
}

}  // namespace

void DotBatch(const float* v, const float* rows, size_t num_rows, size_t n,
              float* out) {
  size_t row = 0;
  for (; row + kDotBatchTileRows <= num_rows; row += kDotBatchTileRows) {
    DotTile4(v, rows + (row + 0) * n, rows + (row + 1) * n,
             rows + (row + 2) * n, rows + (row + 3) * n, n, out + row);
  }
  for (; row < num_rows; ++row) {
    out[row] = float(Dot(v, rows + row * n, n));
  }
}

void DotBatchIndexed(const float* v, const float* rows,
                     const std::int32_t* ids, size_t num_ids, size_t n,
                     float* out) {
  size_t i = 0;
  for (; i + kDotBatchTileRows <= num_ids; i += kDotBatchTileRows) {
    DotTile4(v, rows + size_t(ids[i + 0]) * n, rows + size_t(ids[i + 1]) * n,
             rows + size_t(ids[i + 2]) * n, rows + size_t(ids[i + 3]) * n, n,
             out + i);
  }
  for (; i < num_ids; ++i) {
    out[i] = float(Dot(v, rows + size_t(ids[i]) * n, n));
  }
}

void Hadamard(const float* a, const float* b, float* out, size_t n) {
  size_t d = 0;
  for (; d + 4 <= n; d += 4) {
    vst1q_f32(out + d, vmulq_f32(vld1q_f32(a + d), vld1q_f32(b + d)));
  }
  for (; d < n; ++d) out[d] = a[d] * b[d];
}

void HadamardAxpy(float scale, const float* a, const float* b, float* out,
                  size_t n) {
  const float32x4_t vs = vdupq_n_f32(scale);
  size_t d = 0;
  for (; d + 4 <= n; d += 4) {
    const float32x4_t sa = vmulq_f32(vs, vld1q_f32(a + d));
    const float32x4_t sab = vmulq_f32(sa, vld1q_f32(b + d));
    vst1q_f32(out + d, vaddq_f32(vld1q_f32(out + d), sab));
  }
  for (; d < n; ++d) {
    const float sa = scale * a[d];
    const float sab = sa * b[d];
    out[d] += sab;
  }
}

void Axpy(float scale, const float* a, float* out, size_t n) {
  const float32x4_t vs = vdupq_n_f32(scale);
  size_t d = 0;
  for (; d + 4 <= n; d += 4) {
    const float32x4_t sa = vmulq_f32(vs, vld1q_f32(a + d));
    vst1q_f32(out + d, vaddq_f32(vld1q_f32(out + d), sa));
  }
  for (; d < n; ++d) {
    const float sa = scale * a[d];
    out[d] += sa;
  }
}

void Fill(float* out, float value, size_t n) {
  const float32x4_t vv = vdupq_n_f32(value);
  size_t d = 0;
  for (; d + 4 <= n; d += 4) vst1q_f32(out + d, vv);
  for (; d < n; ++d) out[d] = value;
}

void Scale(float* out, float scale, size_t n) {
  const float32x4_t vs = vdupq_n_f32(scale);
  size_t d = 0;
  for (; d + 4 <= n; d += 4) {
    vst1q_f32(out + d, vmulq_f32(vs, vld1q_f32(out + d)));
  }
  for (; d < n; ++d) out[d] *= scale;
}

void TripleGradAxpy(float w, const float* h, const float* t, const float* r,
                    float* gh, float* gt, float* gr, size_t n) {
  const float32x4_t vw = vdupq_n_f32(w);
  size_t d = 0;
  for (; d + 4 <= n; d += 4) {
    const float32x4_t vh = vld1q_f32(h + d);
    const float32x4_t vt = vld1q_f32(t + d);
    const float32x4_t vr = vld1q_f32(r + d);
    const float32x4_t wh = vmulq_f32(vw, vh);
    const float32x4_t wt = vmulq_f32(vw, vt);
    vst1q_f32(gh + d, vaddq_f32(vld1q_f32(gh + d), vmulq_f32(wt, vr)));
    vst1q_f32(gt + d, vaddq_f32(vld1q_f32(gt + d), vmulq_f32(wh, vr)));
    vst1q_f32(gr + d, vaddq_f32(vld1q_f32(gr + d), vmulq_f32(wh, vt)));
  }
  for (; d < n; ++d) {
    const float wh = w * h[d];
    const float wt = w * t[d];
    const float dgh = wt * r[d];
    const float dgt = wh * r[d];
    const float dgr = wh * t[d];
    gh[d] += dgh;
    gt[d] += dgt;
    gr[d] += dgr;
  }
}

// ---- Scalar fallback -------------------------------------------------------

#else  // KGE_SIMD_ISA_SCALAR

namespace {

// Precision-tier cells: the scalar build dispatches straight to the
// float 8-lane scheme (see simd.h's precision-tier contract).
inline float DotCellF32(const float* a, const float* b, size_t n) {
  return ScalarDotF32(a, b, n);
}

inline float DotCellI8(const float* q, const std::int8_t* r, float scale,
                       size_t n) {
  return ScalarDotI8(q, r, scale, n);
}

}  // namespace

double Dot(const float* a, const float* b, size_t n) {
  return ScalarDot(a, b, n);
}

double TrilinearDot(const float* a, const float* b, const float* c,
                    size_t n) {
  return ScalarTrilinearDot(a, b, c, n);
}

double SquaredNorm(const float* a, size_t n) { return ScalarDot(a, a, n); }

double L1Norm(const float* a, size_t n) { return ScalarL1Norm(a, n); }

double L1Distance(const float* a, const float* b, size_t n) {
  return ScalarL1Distance(a, b, n);
}

double SquaredL2Distance(const float* a, const float* b, size_t n) {
  return ScalarSquaredL2Distance(a, b, n);
}

double MaxAbsDiff(const float* a, const float* b, size_t n) {
  double max_diff = 0.0;
  for (size_t d = 0; d < n; ++d) {
    const double diff = std::fabs(double(a[d]) - double(b[d]));
    if (diff > max_diff) max_diff = diff;
  }
  return max_diff;
}

void DotBatch(const float* v, const float* rows, size_t num_rows, size_t n,
              float* out) {
  for (size_t row = 0; row < num_rows; ++row) {
    out[row] = float(ScalarDot(v, rows + row * n, n));
  }
}

void DotBatchIndexed(const float* v, const float* rows,
                     const std::int32_t* ids, size_t num_ids, size_t n,
                     float* out) {
  for (size_t i = 0; i < num_ids; ++i) {
    out[i] = float(ScalarDot(v, rows + size_t(ids[i]) * n, n));
  }
}

void Hadamard(const float* a, const float* b, float* out, size_t n) {
  for (size_t d = 0; d < n; ++d) out[d] = a[d] * b[d];
}

void HadamardAxpy(float scale, const float* a, const float* b, float* out,
                  size_t n) {
  for (size_t d = 0; d < n; ++d) {
    const float sa = scale * a[d];
    const float sab = sa * b[d];
    out[d] += sab;
  }
}

void Axpy(float scale, const float* a, float* out, size_t n) {
  for (size_t d = 0; d < n; ++d) {
    const float sa = scale * a[d];
    out[d] += sa;
  }
}

void Fill(float* out, float value, size_t n) {
  for (size_t d = 0; d < n; ++d) out[d] = value;
}

void Scale(float* out, float scale, size_t n) {
  for (size_t d = 0; d < n; ++d) out[d] *= scale;
}

void TripleGradAxpy(float w, const float* h, const float* t, const float* r,
                    float* gh, float* gt, float* gr, size_t n) {
  for (size_t d = 0; d < n; ++d) {
    const float wh = w * h[d];
    const float wt = w * t[d];
    const float dgh = wt * r[d];
    const float dgt = wh * r[d];
    const float dgr = wh * t[d];
    gh[d] += dgh;
    gt[d] += dgt;
    gr[d] += dgr;
  }
}

#endif  // ISA selection

#if !defined(KGE_SIMD_ISA_AVX2)
// NEON and scalar builds run the reference loops, which the compiler
// may vectorize without changing a rounding.
void SgdRow(float lr, const float* g, float* p, size_t n) {
  ref::SgdRow(lr, g, p, n);
}

void AdagradRow(float lr, float eps, const float* g, float* acc, float* p,
                size_t n) {
  ref::AdagradRow(lr, eps, g, acc, p, n);
}

void AdamRow(const AdamRowStep& step, const float* g, float* m, float* v,
             float* p, size_t n) {
  ref::AdamRow(step, g, m, v, p, n);
}
#endif

// ---- Multi-query driver (shared across ISAs) -------------------------------
// Cache blocking is ISA-independent: walk the row matrix in tiles small
// enough to stay resident in L1/L2, and score every query against the
// tile before moving on — the GEMV→GEMM step. Each (query, tile) pair
// then goes through the ISA's DotBatch (or, on AVX2, a dual-query
// register kernel for query pairs), so every output cell inherits the
// bit-exact per-cell Dot contract; the tiling itself never splits a
// reduction, only reorders whole (query, row) cells.

void DotBatchMulti(const float* queries, size_t num_queries,
                   const float* rows, size_t num_rows, size_t n, float* out) {
  if (num_queries == 0 || num_rows == 0) return;
  const size_t row_bytes = n * sizeof(float);
  size_t tile_rows =
      row_bytes == 0 ? num_rows : kDotBatchMultiTileBytes / row_bytes;
  if (tile_rows < kDotBatchTileRows) tile_rows = kDotBatchTileRows;
  for (size_t row0 = 0; row0 < num_rows; row0 += tile_rows) {
    const size_t tile = std::min(tile_rows, num_rows - row0);
    const float* tile_rows_ptr = rows + row0 * n;
    float* tile_out = out + row0;
    size_t q = 0;
#if defined(KGE_SIMD_ISA_AVX2)
    for (; q + 2 <= num_queries; q += 2) {
      DotBatchDual(queries + q * n, queries + (q + 1) * n, tile_rows_ptr,
                   tile, n, tile_out + q * num_rows,
                   tile_out + (q + 1) * num_rows);
    }
#endif
    for (; q < num_queries; ++q) {
      DotBatch(queries + q * n, tile_rows_ptr, tile, n,
               tile_out + q * num_rows);
    }
  }
}

// ---- Precision-tier drivers (shared across ISAs) ---------------------------
// Same cache-blocked walk as DotBatchMulti; only the per-cell kernel and
// the bytes per row differ. A float32 row is n·4 bytes, an int8 row n·1,
// so the ≤ kDotBatchMultiTileBytes blocks hold 1x/4x more rows than the
// row width suggests — the tiling never splits a reduction, so cells are
// bit-identical to single-query DotCell calls on every ISA.

void DotBatchMultiF32(const float* queries, size_t num_queries,
                      const float* rows, size_t num_rows, size_t n,
                      float* out) {
  if (num_queries == 0 || num_rows == 0) return;
  const size_t row_bytes = n * sizeof(float);
  size_t tile_rows =
      row_bytes == 0 ? num_rows : kDotBatchMultiTileBytes / row_bytes;
  if (tile_rows < kDotBatchTileRows) tile_rows = kDotBatchTileRows;
  for (size_t row0 = 0; row0 < num_rows; row0 += tile_rows) {
    const size_t tile = std::min(tile_rows, num_rows - row0);
    const float* tile_rows_ptr = rows + row0 * n;
    float* tile_out = out + row0;
    size_t q = 0;
#if defined(KGE_SIMD_ISA_AVX2)
    for (; q + 2 <= num_queries; q += 2) {
      DotBatchDualF32(queries + q * n, queries + (q + 1) * n, tile_rows_ptr,
                      tile, n, tile_out + q * num_rows,
                      tile_out + (q + 1) * num_rows);
    }
#endif
    for (; q < num_queries; ++q) {
      const float* query = queries + q * n;
      float* qout = tile_out + q * num_rows;
      for (size_t r = 0; r < tile; ++r) {
        qout[r] = DotCellF32(query, tile_rows_ptr + r * n, n);
      }
    }
  }
}

void DotBatchMultiI8(const float* queries, size_t num_queries,
                     const std::int8_t* rows8, const float* scales,
                     size_t num_rows, size_t n, float* out) {
  if (num_queries == 0 || num_rows == 0) return;
  const size_t row_bytes = n * sizeof(std::int8_t);
  size_t tile_rows =
      row_bytes == 0 ? num_rows : kDotBatchMultiTileBytes / row_bytes;
  if (tile_rows < kDotBatchTileRows) tile_rows = kDotBatchTileRows;
  for (size_t row0 = 0; row0 < num_rows; row0 += tile_rows) {
    const size_t tile = std::min(tile_rows, num_rows - row0);
    const std::int8_t* tile_rows_ptr = rows8 + row0 * n;
    const float* tile_scales = scales + row0;
    float* tile_out = out + row0;
    size_t q = 0;
#if defined(KGE_SIMD_ISA_AVX2)
    for (; q + 2 <= num_queries; q += 2) {
      DotBatchDualI8(queries + q * n, queries + (q + 1) * n, tile_rows_ptr,
                     tile_scales, tile, n, tile_out + q * num_rows,
                     tile_out + (q + 1) * num_rows);
    }
#endif
    for (; q < num_queries; ++q) {
      const float* query = queries + q * n;
      float* qout = tile_out + q * num_rows;
      for (size_t r = 0; r < tile; ++r) {
        qout[r] = DotCellI8(query, tile_rows_ptr + r * n, tile_scales[r], n);
      }
    }
  }
}

void QuantizeRowsI8(const float* rows, size_t num_rows, size_t n,
                    std::int8_t* out8, float* scales) {
  for (size_t row = 0; row < num_rows; ++row) {
    const float* x = rows + row * n;
    std::int8_t* codes = out8 + row * n;
    float absmax = 0.0f;
    for (size_t d = 0; d < n; ++d) {
      const float a = std::fabs(x[d]);
      if (a > absmax) absmax = a;
    }
    if (absmax == 0.0f) {
      scales[row] = 0.0f;
      for (size_t d = 0; d < n; ++d) codes[d] = 0;
      continue;
    }
    const float scale = absmax / 127.0f;
    scales[row] = scale;
    for (size_t d = 0; d < n; ++d) {
      // lround can land on ±128 when x[d]/scale rounds past the absmax
      // code (scale itself rounded down), so clamp to the symmetric range.
      const long code = std::lround(x[d] / scale);
      codes[d] = std::int8_t(std::clamp<long>(code, -127, 127));
    }
  }
}

// ---- Pruned-ranking support kernels (see simd.h) ---------------------------
// The bound builders are cold (replica rebuild) and shared-scalar on
// every ISA; determinism comes from SquaredNorm's cross-ISA contract
// (master tier) resp. exact integer arithmetic (int8 tier). The rounding
// direction of float(sqrt(...)) does not matter for correctness: the
// query-time kPruneBoundSlack multiplier absorbs it.

void TileMaxRowNorms(const float* rows, size_t num_rows, size_t n,
                     size_t rows_per_tile, float* tile_norms) {
  size_t t = 0;
  for (size_t row0 = 0; row0 < num_rows; row0 += rows_per_tile, ++t) {
    const size_t limit = std::min(num_rows, row0 + rows_per_tile);
    double max_sq = 0.0;
    for (size_t row = row0; row < limit; ++row) {
      const double sq = SquaredNorm(rows + row * n, n);
      if (sq > max_sq) max_sq = sq;
    }
    tile_norms[t] = float(std::sqrt(max_sq));
  }
}

void TileMaxRowNormsI8(const std::int8_t* rows8, const float* scales,
                       size_t num_rows, size_t n, size_t rows_per_tile,
                       float* tile_norms) {
  size_t t = 0;
  for (size_t row0 = 0; row0 < num_rows; row0 += rows_per_tile, ++t) {
    const size_t limit = std::min(num_rows, row0 + rows_per_tile);
    double max_bound = 0.0;
    for (size_t row = row0; row < limit; ++row) {
      const std::int8_t* codes = rows8 + row * n;
      // Σ code² ≤ 127²·n fits a double exactly, so the sum is
      // order-independent and identical on every ISA.
      double sq = 0.0;
      for (size_t d = 0; d < n; ++d) {
        const double c = double(codes[d]);
        sq += c * c;
      }
      const double bound = double(scales[row]) * std::sqrt(sq);
      if (bound > max_bound) max_bound = bound;
    }
    tile_norms[t] = float(max_bound);
  }
}

void CountGreaterEqual(const float* scores, size_t n, float threshold,
                       size_t* greater, size_t* equal) {
  size_t g = 0;
  size_t e = 0;
  size_t i = 0;
#if defined(KGE_SIMD_ISA_AVX2)
  const __m256 th = _mm256_set1_ps(threshold);
  for (; i + 8 <= n; i += 8) {
    const __m256 v = _mm256_loadu_ps(scores + i);
    const int gt = _mm256_movemask_ps(_mm256_cmp_ps(v, th, _CMP_GT_OQ));
    const int eq = _mm256_movemask_ps(_mm256_cmp_ps(v, th, _CMP_EQ_OQ));
    g += size_t(__builtin_popcount(unsigned(gt)));
    e += size_t(__builtin_popcount(unsigned(eq)));
  }
#endif
  for (; i < n; ++i) {
    const float s = scores[i];
    if (s > threshold) {
      ++g;
    } else if (s == threshold) {
      ++e;
    }
  }
  *greater = g;
  *equal = e;
}

// ---- Naive references ------------------------------------------------------

namespace ref {

double Dot(const float* a, const float* b, size_t n) {
  double sum = 0.0;
  for (size_t d = 0; d < n; ++d) sum += double(a[d]) * double(b[d]);
  return sum;
}

double TrilinearDot(const float* a, const float* b, const float* c,
                    size_t n) {
  double sum = 0.0;
  for (size_t d = 0; d < n; ++d) {
    sum += double(a[d]) * double(b[d]) * double(c[d]);
  }
  return sum;
}

double SquaredNorm(const float* a, size_t n) { return Dot(a, a, n); }

double L1Norm(const float* a, size_t n) {
  double sum = 0.0;
  for (size_t d = 0; d < n; ++d) sum += std::fabs(double(a[d]));
  return sum;
}

double L1Distance(const float* a, const float* b, size_t n) {
  double sum = 0.0;
  for (size_t d = 0; d < n; ++d) {
    sum += std::fabs(double(a[d]) - double(b[d]));
  }
  return sum;
}

double SquaredL2Distance(const float* a, const float* b, size_t n) {
  double sum = 0.0;
  for (size_t d = 0; d < n; ++d) {
    const double diff = double(a[d]) - double(b[d]);
    sum += diff * diff;
  }
  return sum;
}

double MaxAbsDiff(const float* a, const float* b, size_t n) {
  double max_diff = 0.0;
  for (size_t d = 0; d < n; ++d) {
    const double diff = std::fabs(double(a[d]) - double(b[d]));
    if (diff > max_diff) max_diff = diff;
  }
  return max_diff;
}

void DotBatch(const float* v, const float* rows, size_t num_rows, size_t n,
              float* out) {
  for (size_t row = 0; row < num_rows; ++row) {
    out[row] = float(Dot(v, rows + row * n, n));
  }
}

void DotBatchMulti(const float* queries, size_t num_queries,
                   const float* rows, size_t num_rows, size_t n, float* out) {
  for (size_t q = 0; q < num_queries; ++q) {
    DotBatch(queries + q * n, rows, num_rows, n, out + q * num_rows);
  }
}

void DotBatchIndexed(const float* v, const float* rows,
                     const std::int32_t* ids, size_t num_ids, size_t n,
                     float* out) {
  for (size_t i = 0; i < num_ids; ++i) {
    out[i] = float(Dot(v, rows + size_t(ids[i]) * n, n));
  }
}

// The tier baselines implement the float lane scheme itself — it is the
// tier's semantic definition (see simd.h), so the vector kernels must
// reproduce it bit-for-bit rather than merely approximate it.

void DotBatchMultiF32(const float* queries, size_t num_queries,
                      const float* rows, size_t num_rows, size_t n,
                      float* out) {
  for (size_t q = 0; q < num_queries; ++q) {
    for (size_t row = 0; row < num_rows; ++row) {
      out[q * num_rows + row] =
          ScalarDotF32(queries + q * n, rows + row * n, n);
    }
  }
}

void DotBatchMultiI8(const float* queries, size_t num_queries,
                     const std::int8_t* rows8, const float* scales,
                     size_t num_rows, size_t n, float* out) {
  for (size_t q = 0; q < num_queries; ++q) {
    for (size_t row = 0; row < num_rows; ++row) {
      out[q * num_rows + row] =
          ScalarDotI8(queries + q * n, rows8 + row * n, scales[row], n);
    }
  }
}

void TileMaxRowNorms(const float* rows, size_t num_rows, size_t n,
                     size_t rows_per_tile, float* tile_norms) {
  size_t t = 0;
  for (size_t row0 = 0; row0 < num_rows; row0 += rows_per_tile, ++t) {
    const size_t limit = std::min(num_rows, row0 + rows_per_tile);
    double max_sq = 0.0;
    for (size_t row = row0; row < limit; ++row) {
      const double sq = SquaredNorm(rows + row * n, n);
      if (sq > max_sq) max_sq = sq;
    }
    tile_norms[t] = float(std::sqrt(max_sq));
  }
}

void TileMaxRowNormsI8(const std::int8_t* rows8, const float* scales,
                       size_t num_rows, size_t n, size_t rows_per_tile,
                       float* tile_norms) {
  size_t t = 0;
  for (size_t row0 = 0; row0 < num_rows; row0 += rows_per_tile, ++t) {
    const size_t limit = std::min(num_rows, row0 + rows_per_tile);
    double max_bound = 0.0;
    for (size_t row = row0; row < limit; ++row) {
      const std::int8_t* codes = rows8 + row * n;
      double sq = 0.0;
      for (size_t d = 0; d < n; ++d) {
        const double c = double(codes[d]);
        sq += c * c;
      }
      const double bound = double(scales[row]) * std::sqrt(sq);
      if (bound > max_bound) max_bound = bound;
    }
    tile_norms[t] = float(max_bound);
  }
}

void CountGreaterEqual(const float* scores, size_t n, float threshold,
                       size_t* greater, size_t* equal) {
  size_t g = 0;
  size_t e = 0;
  for (size_t i = 0; i < n; ++i) {
    if (scores[i] > threshold) {
      ++g;
    } else if (scores[i] == threshold) {
      ++e;
    }
  }
  *greater = g;
  *equal = e;
}

void Hadamard(const float* a, const float* b, float* out, size_t n) {
  for (size_t d = 0; d < n; ++d) out[d] = a[d] * b[d];
}

void HadamardAxpy(float scale, const float* a, const float* b, float* out,
                  size_t n) {
  for (size_t d = 0; d < n; ++d) out[d] += scale * a[d] * b[d];
}

void Axpy(float scale, const float* a, float* out, size_t n) {
  for (size_t d = 0; d < n; ++d) out[d] += scale * a[d];
}

void TripleGradAxpy(float w, const float* h, const float* t, const float* r,
                    float* gh, float* gt, float* gr, size_t n) {
  for (size_t d = 0; d < n; ++d) {
    gh[d] += w * t[d] * r[d];
    gt[d] += w * h[d] * r[d];
    gr[d] += w * h[d] * t[d];
  }
}

void SgdRow(float lr, const float* g, float* p, size_t n) {
  for (size_t d = 0; d < n; ++d) p[d] -= lr * g[d];
}

void AdagradRow(float lr, float eps, const float* g, float* acc, float* p,
                size_t n) {
  for (size_t d = 0; d < n; ++d) {
    acc[d] += g[d] * g[d];
    p[d] -= lr * g[d] / (std::sqrt(acc[d]) + eps);
  }
}

void AdamRow(const AdamRowStep& step, const float* g, float* m, float* v,
             float* p, size_t n) {
  for (size_t d = 0; d < n; ++d) {
    m[d] = static_cast<float>(step.beta1 * m[d] + (1.0 - step.beta1) * g[d]);
    v[d] = static_cast<float>(step.beta2 * v[d] +
                              (1.0 - step.beta2) * g[d] * g[d]);
    p[d] -= static_cast<float>(step.lr * m[d] /
                               (std::sqrt(double(v[d])) + step.eps));
  }
}

}  // namespace ref

}  // namespace kge::simd
