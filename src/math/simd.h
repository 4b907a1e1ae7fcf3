// SIMD kernel layer: the single dispatch point for every dense float
// kernel on the scoring and gradient hot paths. One implementation is
// selected at compile time from the target ISA:
//
//   * AVX2 + FMA   when __AVX2__ and __FMA__ are defined (x86-64; enable
//                  with -DKGE_AVX2=ON or -DKGE_NATIVE_ARCH=ON),
//   * NEON         on AArch64 (always available there),
//   * scalar       otherwise — a portable fallback that mirrors the SIMD
//                  accumulation scheme exactly (see the numerics contract).
//
// Callers normally go through the std::span API in math/vec_ops.h; this
// header is the raw-pointer layer underneath it, plus the batch-ranking
// and fused-gradient kernels that only exist here.
//
// ## Numerics contract
//
// Reductions (Dot, TrilinearDot, DotBatch, SquaredNorm, L1Norm, the
// distances) accumulate in double precision with kAccumulatorLanes (= 8)
// interleaved partial sums: element d contributes to partial sum d mod 8,
// and the partials are combined in the fixed order
//
//   ((p0+p1) + (p2+p3)) + ((p4+p5) + (p6+p7)).
//
// The scalar fallback implements this scheme with explicit per-statement
// temporaries, so builds differing only in ISA agree *bit-for-bit* on
// Dot, DotBatch and SquaredNorm: the product of two floats is exact in
// double, which makes an FMA indistinguishable from mul-then-add there.
// Kernels whose inner products are inexact in double (TrilinearDot, the
// L2 distance) deliberately avoid FMA and round exactly where the scalar
// scheme rounds, so they are bit-identical across ISAs too. Elementwise
// kernels (Hadamard, HadamardAxpy, Axpy, TripleGradAxpy, Scale) evaluate
// in float with a fixed association, again FMA-free, and match exactly.
//
// What is NOT preserved is the pre-SIMD strictly sequential accumulation
// order: a partial-sum reduction reassociates the sum, so scores can
// differ from a naive left-to-right loop by O(n·eps) — the kernel
// equivalence suite (tests/simd_test.cc) bounds this against the naive
// references in simd::ref.
//
// DotBatch additionally guarantees out[row] == float(Dot(v, row)) for
// every row: the tiled multi-row path uses the same per-row lane scheme,
// so batching is a pure scheduling change, never a numeric one. The same
// holds for the id-indirected DotBatchIndexed and for the multi-query
// DotBatchMulti: every (query, row) cell of the latter keeps its own
// 8-lane accumulator group, so cache blocking over entity rows and
// register blocking over queries never change a single output bit.
//
// ## Precision-tier contract (DotBatchMultiF32 / DotBatchMultiI8)
//
// The reduced-precision ranking tiers (core/scoring_replica.h) carry the
// same bit-identical-across-ISAs guarantee, but in float: each (query,
// row) cell accumulates kAccumulatorLanes interleaved *float* partial
// sums (element d → lane d mod 8) combined in the same fixed
// ((p0+p1)+(p2+p3)) + ((p4+p5)+(p6+p7)) tree. Because a float product is
// NOT exact in float, an FMA would skip a rounding the scalar scheme
// performs — so every path is strictly mul-then-add (the AVX2 build uses
// vmulps/vaddps, never vfmadd*ps). The int8 tier converts each code to
// float (exact: |code| ≤ 127), runs the same float lane scheme against
// the query, and applies the row's dequantization scale in one final
// float multiply. Unlike the double kernels, simd::ref's baselines for
// these tiers implement the *same* lane scheme — there is no more
// precise canonical float value to appeal to; the scheme IS each tier's
// semantic definition — so tests pin kernel == ref bit-exactly per ISA.
#ifndef KGE_MATH_SIMD_H_
#define KGE_MATH_SIMD_H_

#include <cstddef>
#include <cstdint>

#include "util/hotpath.h"

namespace kge::simd {

// Number of interleaved double partial sums every reduction uses; element
// d accumulates into partial d % kAccumulatorLanes on every ISA.
inline constexpr size_t kAccumulatorLanes = 8;

// Rows per tile in DotBatch: the tiled loop keeps this many independent
// accumulator groups live so candidate rows share each load of `v`.
inline constexpr size_t kDotBatchTileRows = 4;

// Entity-tile budget for DotBatchMulti: the multi-query driver walks the
// row matrix in blocks of at most this many bytes so a block loaded for
// the first query is still resident in L1/L2 when the last query of the
// batch scores it. 24 KiB leaves room in a 32 KiB L1d for the query rows
// and the output slices alongside the entity tile.
inline constexpr size_t kDotBatchMultiTileBytes = 24 * 1024;

enum class Isa { kScalar, kAvx2Fma, kNeon };

// The ISA this translation unit was compiled for.
Isa ActiveIsa();
// "avx2+fma", "neon", or "scalar" — stamped into BENCH_kernels.json.
const char* IsaName();

// ---- Reductions (double accumulation, 8 interleaved partials) -------------

// Σ_d a[d]·b[d]
KGE_HOT_NOALLOC
double Dot(const float* a, const float* b, size_t n);

// Σ_d a[d]·b[d]·c[d]
KGE_HOT_NOALLOC
double TrilinearDot(const float* a, const float* b, const float* c, size_t n);

// Σ_d a[d]²
KGE_HOT_NOALLOC
double SquaredNorm(const float* a, size_t n);

// Σ_d |a[d]|
KGE_HOT_NOALLOC
double L1Norm(const float* a, size_t n);

// Σ_d |a[d] − b[d]|
KGE_HOT_NOALLOC
double L1Distance(const float* a, const float* b, size_t n);

// Σ_d (a[d] − b[d])²
KGE_HOT_NOALLOC
double SquaredL2Distance(const float* a, const float* b, size_t n);

// max_d |a[d] − b[d]|
KGE_HOT_NOALLOC
double MaxAbsDiff(const float* a, const float* b, size_t n);

// ---- Batch ranking kernel --------------------------------------------------

// out[row] = float(Dot(v, rows + row·n)) for row in [0, num_rows): one
// query vector against a row-major matrix — the fold-then-dot ranking
// step of every trilinear model, executed as a tiled matrix-vector
// product (kDotBatchTileRows rows per tile, each with its own
// accumulator group) instead of num_rows separate Dot calls.
KGE_HOT_NOALLOC
void DotBatch(const float* v, const float* rows, size_t num_rows, size_t n,
              float* out);

// out[q·num_rows + row] = float(Dot(queries + q·n, rows + row·n)) for
// every (q, row): a batch of query vectors against the same row-major
// matrix — the GEMV→GEMM step behind batched full-vocabulary ranking.
// The driver walks `rows` in cache blocks of ≤ kDotBatchMultiTileBytes
// so a block fetched for the first query is served from L1/L2 for the
// remaining queries of the batch; inside a block the AVX2 build runs a
// 2-query × 2-row register kernel that shares each row load/convert
// across both queries. Every (q, row) cell keeps the per-pair 8-lane
// accumulation scheme of Dot, so batching across queries — like
// batching across rows in DotBatch — is a scheduling change only:
// results are bit-identical to num_queries separate DotBatch calls on
// every ISA.
KGE_HOT_NOALLOC
void DotBatchMulti(const float* queries, size_t num_queries,
                   const float* rows, size_t num_rows, size_t n, float* out);

// out[i] = float(Dot(v, rows + size_t(ids[i])·n)) for i in [0,
// num_ids): DotBatch with an id-indirected row set, scoring gathered
// candidates (e.g. negative samples) straight out of the embedding
// table instead of memcpy-compacting them first. Duplicate and
// unsorted ids are fine; each id must be in [0, rows_in_table).
KGE_HOT_NOALLOC
void DotBatchIndexed(const float* v, const float* rows,
                     const std::int32_t* ids, size_t num_ids, size_t n,
                     float* out);

// ---- Precision-tiered batch ranking kernels --------------------------------

// out[q·num_rows + row] = F32Dot(queries + q·n, rows + row·n): the
// float-accumulation twin of DotBatchMulti (the float32 scoring tier).
// Same ≤ kDotBatchMultiTileBytes cache blocking and, on AVX2, the same
// 2-query × 2-row register kernel — with float lanes doubling the SIMD
// width (8 floats per ymm vs 4 doubles). See the precision-tier
// contract above: 8 interleaved float partials, mul-then-add, no FMA,
// bit-identical across ISAs and to simd::ref::DotBatchMultiF32.
KGE_HOT_NOALLOC
void DotBatchMultiF32(const float* queries, size_t num_queries,
                      const float* rows, size_t num_rows, size_t n,
                      float* out);

// out[q·num_rows + row] = scales[row] · F32Dot(queries + q·n,
// float(rows8 + row·n)): the int8 scoring tier. `rows8` is a row-major
// per-row absmax-quantized table with dequantization factors `scales`
// (built by QuantizeRowsI8 / core/scoring_replica.h). Each int8 code
// converts to float exactly, accumulates through the float lane scheme,
// and the combined sum is scaled once. Streams 1 byte per candidate
// element instead of 4 — a 4x DRAM-traffic cut on the ranking path.
KGE_HOT_NOALLOC
void DotBatchMultiI8(const float* queries, size_t num_queries,
                     const std::int8_t* rows8, const float* scales,
                     size_t num_rows, size_t n, float* out);

// Per-row absmax quantization backing the int8 tier: for each row,
// scales[row] = absmax/127 (0 for an all-zero row, whose codes are all
// 0) and out8[row·n + d] = clamp(lround(x[d]/scale), -127, 127). Cold
// path (replica rebuild, never per-triple) and shared scalar code on
// every ISA, so a quantized table is bit-identical across builds.
void QuantizeRowsI8(const float* rows, size_t num_rows, size_t n,
                    std::int8_t* out8, float* scales);

// ---- Pruned-ranking support kernels ----------------------------------------
//
// The bound-based pruning path (DESIGN.md §5h) walks the entity table in
// the same ≤ kDotBatchMultiTileBytes tiles as DotBatchMulti and skips a
// tile when a precomputed Cauchy–Schwarz upper bound proves no row in it
// can reach the current threshold. The bound for tile t is
//
//   ‖fold‖₂ · tile_norms[t] · kPruneBoundSlack
//
// where tile_norms[t] is the max row L2 norm inside the tile (for the
// int8 tier, the max of scales[row]·‖codes_row‖₂). kPruneBoundSlack
// absorbs every rounding the finite-precision pipeline can introduce
// (float-rounded norms, float/double accumulation error in the scoring
// kernels, the sqrt), so the bound is conservative and pruning is EXACT:
// a skipped tile provably contains no score ≥ the threshold. Relative
// accumulation error is O(n·eps) ≈ 3e-5 for float at n = 1024; 2⁻¹⁰ is
// ~30x above that.
inline constexpr double kPruneBoundSlack = 1.0 + 0x1p-10;

// Rows per bound tile for an entity table whose rows are n floats wide.
// One geometry serves every precision tier (keyed to the master float
// row width), so a single bound array index maps to the same row range
// regardless of tier.
constexpr size_t PrunedTileRows(size_t n) {
  const size_t bytes = n * sizeof(float);
  if (bytes == 0) return 1;
  const size_t rows = kDotBatchMultiTileBytes / bytes;
  return rows == 0 ? 1 : rows;
}

// Number of bound tiles covering num_rows rows (= ceil division).
constexpr size_t PrunedTileCount(size_t num_rows, size_t n) {
  const size_t rows_per_tile = PrunedTileRows(n);
  return (num_rows + rows_per_tile - 1) / rows_per_tile;
}

// tile_norms[t] = max over rows r in tile t of float(sqrt(SquaredNorm(r)))
// where tile t covers rows [t·rows_per_tile, (t+1)·rows_per_tile). Cold
// path (replica rebuild); SquaredNorm is bit-identical across ISAs, so
// the bound table is too.
void TileMaxRowNorms(const float* rows, size_t num_rows, size_t n,
                     size_t rows_per_tile, float* tile_norms);

// Int8-tier twin: tile_norms[t] = max over rows of
// float(scales[row]·sqrt(Σ_d codes[d]²)). The code sum is an exact
// integer in double, so this is bit-identical across ISAs by
// construction (shared scalar code).
void TileMaxRowNormsI8(const std::int8_t* rows8, const float* scales,
                       size_t num_rows, size_t n, size_t rows_per_tile,
                       float* tile_norms);

// *greater = |{i < n : scores[i] > threshold}| and
// *equal = |{i < n : scores[i] == threshold}| — the fused
// compare-and-count inner step of the pruned rank-counting scan.
// Integer outputs are order-independent, hence trivially bit-identical
// across ISAs.
KGE_HOT_NOALLOC
void CountGreaterEqual(const float* scores, size_t n, float threshold,
                       size_t* greater, size_t* equal);

// ---- Elementwise kernels (float, fixed association, FMA-free) --------------

// out[d] = a[d]·b[d]
KGE_HOT_NOALLOC
void Hadamard(const float* a, const float* b, float* out, size_t n);

// out[d] += (scale·a[d])·b[d]
KGE_HOT_NOALLOC
void HadamardAxpy(float scale, const float* a, const float* b, float* out,
                  size_t n);

// out[d] += scale·a[d]
KGE_HOT_NOALLOC
void Axpy(float scale, const float* a, float* out, size_t n);

// out[d] = value
KGE_HOT_NOALLOC
void Fill(float* out, float value, size_t n);

// out[d] *= scale
KGE_HOT_NOALLOC
void Scale(float* out, float scale, size_t n);

// The fused Eq. (8) gradient update — one pass over d performing
//   gh[d] += (w·t[d])·r[d],  gt[d] += (w·h[d])·r[d],  gr[d] += (w·h[d])·t[d]
// with the same association as three separate HadamardAxpy calls (so the
// fusion is bit-exact); loads h/t/r once instead of twice each.
KGE_HOT_NOALLOC
void TripleGradAxpy(float w, const float* h, const float* t, const float* r,
                    float* gh, float* gt, float* gr, size_t n);

// ---- Optimizer row updates -------------------------------------------------
// One descent step on one parameter row p given its gradient g, each the
// single definition of its optimizer's update (optim/optimizer.h). Every
// ISA evaluates the scalar expression below, operation for operation and
// FMA-free, so the vector kernels equal their simd::ref twins bit for bit.

// p[d] -= lr·g[d]   (float)
KGE_HOT_NOALLOC
void SgdRow(float lr, const float* g, float* p, size_t n);

// acc[d] += g[d]·g[d];  p[d] -= (lr·g[d]) / (sqrt(acc[d]) + eps)   (float)
KGE_HOT_NOALLOC
void AdagradRow(float lr, float eps, const float* g, float* acc, float* p,
                size_t n);

// Adam's per-step constants: lr carries the step's bias correction,
// eps is the float epsilon widened to double.
struct AdamRowStep {
  double beta1 = 0.9;
  double beta2 = 0.999;
  double lr = 1e-3;
  double eps = 0.0;
};

// In double, rounding each stored value to float:
//   m[d] = float(beta1·m[d] + (1−beta1)·g[d])
//   v[d] = float(beta2·v[d] + ((1−beta2)·g[d])·g[d])
//   p[d] -= float((lr·m[d]) / (sqrt(v[d]) + eps))
KGE_HOT_NOALLOC
void AdamRow(const AdamRowStep& step, const float* g, float* m, float* v,
             float* p, size_t n);

// ---- Naive references ------------------------------------------------------
// Strictly sequential left-to-right implementations, used by the kernel
// equivalence tests as ground truth and by bench/perf_report as the
// pre-SIMD baseline. Reductions accumulate in a single double.
namespace ref {

double Dot(const float* a, const float* b, size_t n);
double TrilinearDot(const float* a, const float* b, const float* c, size_t n);
double SquaredNorm(const float* a, size_t n);
double L1Norm(const float* a, size_t n);
double L1Distance(const float* a, const float* b, size_t n);
double SquaredL2Distance(const float* a, const float* b, size_t n);
double MaxAbsDiff(const float* a, const float* b, size_t n);
void DotBatch(const float* v, const float* rows, size_t num_rows, size_t n,
              float* out);
void DotBatchMulti(const float* queries, size_t num_queries,
                   const float* rows, size_t num_rows, size_t n, float* out);
void DotBatchIndexed(const float* v, const float* rows,
                     const std::int32_t* ids, size_t num_ids, size_t n,
                     float* out);
// Tier baselines: these implement the float lane scheme itself (see the
// precision-tier contract) — the vector kernels must match bit-exactly.
void DotBatchMultiF32(const float* queries, size_t num_queries,
                      const float* rows, size_t num_rows, size_t n,
                      float* out);
void DotBatchMultiI8(const float* queries, size_t num_queries,
                     const std::int8_t* rows8, const float* scales,
                     size_t num_rows, size_t n, float* out);
void TileMaxRowNorms(const float* rows, size_t num_rows, size_t n,
                     size_t rows_per_tile, float* tile_norms);
void TileMaxRowNormsI8(const std::int8_t* rows8, const float* scales,
                       size_t num_rows, size_t n, size_t rows_per_tile,
                       float* tile_norms);
void CountGreaterEqual(const float* scores, size_t n, float threshold,
                       size_t* greater, size_t* equal);
void Hadamard(const float* a, const float* b, float* out, size_t n);
void HadamardAxpy(float scale, const float* a, const float* b, float* out,
                  size_t n);
void Axpy(float scale, const float* a, float* out, size_t n);
void TripleGradAxpy(float w, const float* h, const float* t, const float* r,
                    float* gh, float* gt, float* gr, size_t n);
void SgdRow(float lr, const float* g, float* p, size_t n);
void AdagradRow(float lr, float eps, const float* g, float* acc, float* p,
                size_t n);
void AdamRow(const AdamRowStep& step, const float* g, float* m, float* v,
             float* p, size_t n);

}  // namespace ref

}  // namespace kge::simd

#endif  // KGE_MATH_SIMD_H_
