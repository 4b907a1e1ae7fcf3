// Kernel-equivalence suite for the SIMD dispatch layer (math/simd.h).
//
// Two kinds of guarantees are checked, for whatever ISA this binary was
// compiled with (scalar, AVX2+FMA, or NEON):
//
//  1. Contract tests — the reductions must reproduce the documented
//     8-lane double accumulation scheme *bit for bit*, and DotBatch must
//     equal float(Dot(v, row)) per row exactly. These are what make
//     ranking metrics identical between scalar and SIMD builds.
//  2. Reference tests — every kernel must agree with the naive
//     sequential implementations in simd::ref up to reassociation error
//     (exact for the elementwise kernels, tight tolerance for the
//     reductions).
//
// Sizes deliberately sweep 1..67 so every vector-width remainder path
// (n mod 8 for AVX2, n mod 4 for NEON) is exercised, plus larger sizes
// for the tiled batch kernel.
#include "math/simd.h"

#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "util/random.h"

namespace kge::simd {
namespace {

std::vector<float> RandomVector(Rng* rng, size_t n) {
  std::vector<float> v(n);
  for (float& x : v) x = rng->NextUniform(-2.0f, 2.0f);
  return v;
}

// The documented accumulation scheme, written as plainly as possible:
// element d contributes to partial d % 8; fixed pairwise combine.
double EightLane(const std::vector<double>& terms) {
  double p[kAccumulatorLanes] = {0.0};
  for (size_t d = 0; d < terms.size(); ++d) {
    p[d % kAccumulatorLanes] += terms[d];
  }
  const double s01 = p[0] + p[1];
  const double s23 = p[2] + p[3];
  const double s45 = p[4] + p[5];
  const double s67 = p[6] + p[7];
  const double lo = s01 + s23;
  const double hi = s45 + s67;
  return lo + hi;
}

// Sizes covering every remainder class of the 4- and 8-wide loops.
std::vector<size_t> TestSizes() {
  std::vector<size_t> sizes;
  for (size_t n = 1; n <= 67; ++n) sizes.push_back(n);
  sizes.push_back(128);
  sizes.push_back(255);
  sizes.push_back(256);
  sizes.push_back(1000);
  return sizes;
}

TEST(SimdTest, ActiveIsaIsNamed) {
  const char* name = IsaName();
  switch (ActiveIsa()) {
    case Isa::kScalar:
      EXPECT_STREQ(name, "scalar");
      break;
    case Isa::kAvx2Fma:
      EXPECT_STREQ(name, "avx2+fma");
      break;
    case Isa::kNeon:
      EXPECT_STREQ(name, "neon");
      break;
  }
}

// ---- Contract tests: bit-exact against the 8-lane scheme -------------------

TEST(SimdTest, DotMatchesEightLaneSchemeExactly) {
  Rng rng(42);
  for (size_t n : TestSizes()) {
    const auto a = RandomVector(&rng, n);
    const auto b = RandomVector(&rng, n);
    std::vector<double> terms(n);
    for (size_t d = 0; d < n; ++d) terms[d] = double(a[d]) * double(b[d]);
    // Bit-exact: FMA on exact double products rounds identically.
    EXPECT_EQ(Dot(a.data(), b.data(), n), EightLane(terms)) << "n=" << n;
  }
}

TEST(SimdTest, SquaredNormMatchesEightLaneSchemeExactly) {
  Rng rng(43);
  for (size_t n : TestSizes()) {
    const auto a = RandomVector(&rng, n);
    std::vector<double> terms(n);
    for (size_t d = 0; d < n; ++d) terms[d] = double(a[d]) * double(a[d]);
    EXPECT_EQ(SquaredNorm(a.data(), n), EightLane(terms)) << "n=" << n;
  }
}

TEST(SimdTest, TrilinearDotMatchesEightLaneSchemeExactly) {
  Rng rng(44);
  for (size_t n : TestSizes()) {
    const auto a = RandomVector(&rng, n);
    const auto b = RandomVector(&rng, n);
    const auto c = RandomVector(&rng, n);
    std::vector<double> terms(n);
    for (size_t d = 0; d < n; ++d) {
      // Same rounding points as the kernel: ab rounds, then ab·c rounds.
      const double ab = double(a[d]) * double(b[d]);
      terms[d] = ab * double(c[d]);
    }
    EXPECT_EQ(TrilinearDot(a.data(), b.data(), c.data(), n), EightLane(terms))
        << "n=" << n;
  }
}

TEST(SimdTest, SquaredL2DistanceMatchesEightLaneSchemeExactly) {
  Rng rng(45);
  for (size_t n : TestSizes()) {
    const auto a = RandomVector(&rng, n);
    const auto b = RandomVector(&rng, n);
    std::vector<double> terms(n);
    for (size_t d = 0; d < n; ++d) {
      const double diff = double(a[d]) - double(b[d]);
      terms[d] = diff * diff;
    }
    EXPECT_EQ(SquaredL2Distance(a.data(), b.data(), n), EightLane(terms))
        << "n=" << n;
  }
}

TEST(SimdTest, L1KernelsMatchEightLaneSchemeExactly) {
  Rng rng(46);
  for (size_t n : TestSizes()) {
    const auto a = RandomVector(&rng, n);
    const auto b = RandomVector(&rng, n);
    std::vector<double> norm_terms(n);
    std::vector<double> dist_terms(n);
    for (size_t d = 0; d < n; ++d) {
      norm_terms[d] = std::fabs(double(a[d]));
      dist_terms[d] = std::fabs(double(a[d]) - double(b[d]));
    }
    EXPECT_EQ(L1Norm(a.data(), n), EightLane(norm_terms)) << "n=" << n;
    EXPECT_EQ(L1Distance(a.data(), b.data(), n), EightLane(dist_terms))
        << "n=" << n;
  }
}

TEST(SimdTest, DotBatchRowsEqualSingleDotExactly) {
  Rng rng(47);
  // Row counts around the tile width so full tiles, remainder rows, and
  // the empty case are all hit.
  for (size_t num_rows : {size_t(0), size_t(1), size_t(3), size_t(4),
                          size_t(5), size_t(7), size_t(8), size_t(33)}) {
    for (size_t n : {size_t(1), size_t(7), size_t(8), size_t(24), size_t(67),
                     size_t(256)}) {
      const auto v = RandomVector(&rng, n);
      const auto rows = RandomVector(&rng, num_rows * n);
      std::vector<float> out(num_rows, -1.0f);
      DotBatch(v.data(), rows.data(), num_rows, n, out.data());
      for (size_t row = 0; row < num_rows; ++row) {
        const float expected = float(Dot(v.data(), rows.data() + row * n, n));
        EXPECT_EQ(out[row], expected) << "row=" << row << " n=" << n;
      }
    }
  }
}

TEST(SimdTest, DotBatchMultiCellsEqualSingleDotExactly) {
  Rng rng(55);
  // Query counts straddling the AVX2 dual-query loop (odd/even, 1, and a
  // count well past one pass) and row counts straddling the 4-row tile.
  for (size_t num_queries : {size_t(1), size_t(2), size_t(3), size_t(8),
                             size_t(33)}) {
    for (size_t num_rows : {size_t(1), size_t(3), size_t(4), size_t(5),
                            size_t(33)}) {
      for (size_t n : TestSizes()) {
        const auto queries = RandomVector(&rng, num_queries * n);
        const auto rows = RandomVector(&rng, num_rows * n);
        std::vector<float> out(num_queries * num_rows, -1.0f);
        DotBatchMulti(queries.data(), num_queries, rows.data(), num_rows, n,
                      out.data());
        for (size_t q = 0; q < num_queries; ++q) {
          for (size_t row = 0; row < num_rows; ++row) {
            const float expected = float(
                Dot(queries.data() + q * n, rows.data() + row * n, n));
            ASSERT_EQ(out[q * num_rows + row], expected)
                << "q=" << q << " row=" << row << " n=" << n;
          }
        }
      }
    }
  }
}

// The cache-blocked row tiling must be invisible: a row count that spans
// several kDotBatchMultiTileBytes tiles still reproduces Dot per cell.
TEST(SimdTest, DotBatchMultiTilingAcrossRowTilesIsExact) {
  Rng rng(56);
  const size_t n = 96;  // 384-byte rows -> 64-row tiles at the 24 KiB budget
  const size_t num_rows = 200;  // 3 full tiles + a remainder tile
  const size_t num_queries = 5;
  const auto queries = RandomVector(&rng, num_queries * n);
  const auto rows = RandomVector(&rng, num_rows * n);
  std::vector<float> out(num_queries * num_rows, -1.0f);
  DotBatchMulti(queries.data(), num_queries, rows.data(), num_rows, n,
                out.data());
  for (size_t q = 0; q < num_queries; ++q) {
    for (size_t row = 0; row < num_rows; ++row) {
      ASSERT_EQ(out[q * num_rows + row],
                float(Dot(queries.data() + q * n, rows.data() + row * n, n)))
          << "q=" << q << " row=" << row;
    }
  }
}

TEST(SimdTest, DotBatchIndexedRowsEqualSingleDotExactly) {
  Rng rng(57);
  const size_t num_rows = 41;
  for (size_t num_ids : {size_t(0), size_t(1), size_t(3), size_t(4),
                         size_t(7), size_t(19)}) {
    for (size_t n : TestSizes()) {
      const auto v = RandomVector(&rng, n);
      const auto rows = RandomVector(&rng, num_rows * n);
      std::vector<std::int32_t> ids(num_ids);
      for (std::int32_t& id : ids) {
        id = std::int32_t(rng.NextUniform(0.0f, float(num_rows) - 0.5f));
      }
      std::vector<float> out(num_ids, -1.0f);
      DotBatchIndexed(v.data(), rows.data(), ids.data(), num_ids, n,
                      out.data());
      for (size_t i = 0; i < num_ids; ++i) {
        const float expected =
            float(Dot(v.data(), rows.data() + size_t(ids[i]) * n, n));
        ASSERT_EQ(out[i], expected) << "i=" << i << " n=" << n;
      }
    }
  }
}

// ---- Precision-tier kernels (see "Precision-tier contract" in simd.h) ------
// For the reduced tiers, simd::ref IS the tier's definition (8 float
// lanes, fixed combine tree, no FMA), so the dispatch kernels must
// reproduce it bit for bit on every ISA — that is what makes float32 and
// int8 metrics identical between scalar and SIMD builds.

TEST(SimdTest, DotBatchMultiF32MatchesRefBitExactly) {
  Rng rng(60);
  for (size_t num_queries : {size_t(1), size_t(2), size_t(3), size_t(8),
                             size_t(33)}) {
    for (size_t num_rows : {size_t(1), size_t(3), size_t(4), size_t(5),
                            size_t(33)}) {
      for (size_t n : TestSizes()) {
        const auto queries = RandomVector(&rng, num_queries * n);
        const auto rows = RandomVector(&rng, num_rows * n);
        std::vector<float> out(num_queries * num_rows, -1.0f);
        std::vector<float> out_ref(num_queries * num_rows, -2.0f);
        DotBatchMultiF32(queries.data(), num_queries, rows.data(), num_rows,
                         n, out.data());
        ref::DotBatchMultiF32(queries.data(), num_queries, rows.data(),
                              num_rows, n, out_ref.data());
        for (size_t c = 0; c < out.size(); ++c) {
          ASSERT_EQ(out[c], out_ref[c])
              << "B=" << num_queries << " rows=" << num_rows << " n=" << n
              << " cell=" << c;
        }
      }
    }
  }
}

TEST(SimdTest, DotBatchMultiI8MatchesRefBitExactly) {
  Rng rng(61);
  for (size_t num_queries : {size_t(1), size_t(2), size_t(3), size_t(8),
                             size_t(33)}) {
    for (size_t num_rows : {size_t(1), size_t(3), size_t(4), size_t(5),
                            size_t(33)}) {
      for (size_t n : TestSizes()) {
        const auto queries = RandomVector(&rng, num_queries * n);
        const auto rows = RandomVector(&rng, num_rows * n);
        std::vector<std::int8_t> rows8(num_rows * n);
        std::vector<float> scales(num_rows);
        QuantizeRowsI8(rows.data(), num_rows, n, rows8.data(), scales.data());
        std::vector<float> out(num_queries * num_rows, -1.0f);
        std::vector<float> out_ref(num_queries * num_rows, -2.0f);
        DotBatchMultiI8(queries.data(), num_queries, rows8.data(),
                        scales.data(), num_rows, n, out.data());
        ref::DotBatchMultiI8(queries.data(), num_queries, rows8.data(),
                             scales.data(), num_rows, n, out_ref.data());
        for (size_t c = 0; c < out.size(); ++c) {
          ASSERT_EQ(out[c], out_ref[c])
              << "B=" << num_queries << " rows=" << num_rows << " n=" << n
              << " cell=" << c;
        }
      }
    }
  }
}

// The cache-blocked tiling of the reduced-tier drivers must be invisible
// too (same spans-multiple-tiles shape as the double-tier test above).
TEST(SimdTest, ReducedTierTilingAcrossRowTilesIsExact) {
  Rng rng(62);
  const size_t n = 96;
  const size_t num_rows = 200;
  const size_t num_queries = 5;
  const auto queries = RandomVector(&rng, num_queries * n);
  const auto rows = RandomVector(&rng, num_rows * n);
  std::vector<std::int8_t> rows8(num_rows * n);
  std::vector<float> scales(num_rows);
  QuantizeRowsI8(rows.data(), num_rows, n, rows8.data(), scales.data());

  std::vector<float> out(num_queries * num_rows);
  std::vector<float> out_ref(num_queries * num_rows);
  DotBatchMultiF32(queries.data(), num_queries, rows.data(), num_rows, n,
                   out.data());
  ref::DotBatchMultiF32(queries.data(), num_queries, rows.data(), num_rows,
                        n, out_ref.data());
  EXPECT_EQ(out, out_ref);

  DotBatchMultiI8(queries.data(), num_queries, rows8.data(), scales.data(),
                  num_rows, n, out.data());
  ref::DotBatchMultiI8(queries.data(), num_queries, rows8.data(),
                       scales.data(), num_rows, n, out_ref.data());
  EXPECT_EQ(out, out_ref);
}

// Sanity: the float32 tier approximates the exact double tier to float
// accumulation error, and the int8 tier to quantization error (each
// element is off by at most scale/2 = absmax/254).
TEST(SimdTest, ReducedTiersApproximateDoubleTier) {
  Rng rng(63);
  const size_t num_queries = 4;
  const size_t num_rows = 19;
  for (size_t n : {size_t(1), size_t(13), size_t(64), size_t(67),
                   size_t(256)}) {
    const auto queries = RandomVector(&rng, num_queries * n);
    const auto rows = RandomVector(&rng, num_rows * n);
    std::vector<std::int8_t> rows8(num_rows * n);
    std::vector<float> scales(num_rows);
    QuantizeRowsI8(rows.data(), num_rows, n, rows8.data(), scales.data());
    std::vector<float> exact(num_queries * num_rows);
    std::vector<float> f32(num_queries * num_rows);
    std::vector<float> i8(num_queries * num_rows);
    DotBatchMulti(queries.data(), num_queries, rows.data(), num_rows, n,
                  exact.data());
    DotBatchMultiF32(queries.data(), num_queries, rows.data(), num_rows, n,
                     f32.data());
    DotBatchMultiI8(queries.data(), num_queries, rows8.data(), scales.data(),
                    num_rows, n, i8.data());
    // |x - scale*code| <= scale/2 per element; |q| <= 2 by construction.
    const double i8_tol = 0.1 + double(n) * 2.0 * (2.0 / 254.0) / 2.0;
    for (size_t c = 0; c < exact.size(); ++c) {
      EXPECT_NEAR(double(f32[c]), double(exact[c]), 1e-2)
          << "f32 cell=" << c << " n=" << n;
      EXPECT_NEAR(double(i8[c]), double(exact[c]), i8_tol)
          << "i8 cell=" << c << " n=" << n;
    }
  }
}

TEST(SimdTest, QuantizeRowsI8EdgeCases) {
  // All-zero row: scale 0, all codes 0 (and the dot against it is 0).
  {
    const std::vector<float> rows(16, 0.0f);
    std::vector<std::int8_t> codes(16, std::int8_t(55));
    std::vector<float> scales(1, -1.0f);
    QuantizeRowsI8(rows.data(), 1, 16, codes.data(), scales.data());
    EXPECT_EQ(scales[0], 0.0f);
    for (const std::int8_t c : codes) EXPECT_EQ(c, std::int8_t(0));
  }
  // The absmax element maps to exactly +/-127; nothing exceeds it.
  {
    const std::vector<float> rows = {0.5f, -4.0f, 1.0f, 4.0f};
    std::vector<std::int8_t> codes(4);
    std::vector<float> scales(1);
    QuantizeRowsI8(rows.data(), 1, 4, codes.data(), scales.data());
    EXPECT_EQ(scales[0], 4.0f / 127.0f);
    EXPECT_EQ(codes[1], std::int8_t(-127));
    EXPECT_EQ(codes[3], std::int8_t(127));
    for (const std::int8_t c : codes) {
      EXPECT_GE(c, std::int8_t(-127));
      EXPECT_LE(c, std::int8_t(127));
    }
  }
  // Scales are per row: each row's absmax sets its own scale.
  {
    const std::vector<float> rows = {1.0f, -1.0f, 8.0f, 2.0f};
    std::vector<std::int8_t> codes(4);
    std::vector<float> scales(2);
    QuantizeRowsI8(rows.data(), 2, 2, codes.data(), scales.data());
    EXPECT_EQ(scales[0], 1.0f / 127.0f);
    EXPECT_EQ(scales[1], 8.0f / 127.0f);
    EXPECT_EQ(codes[2], std::int8_t(127));
  }
}

// ---- Pruned-ranking support kernels ----------------------------------------

TEST(SimdTest, TileMaxRowNormsMatchesRefWithinReassoc) {
  Rng rng(70);
  for (size_t num_rows : {size_t(1), size_t(5), size_t(64), size_t(200)}) {
    for (size_t n : {size_t(1), size_t(24), size_t(96)}) {
      const size_t rows_per_tile = PrunedTileRows(n);
      const size_t tiles = PrunedTileCount(num_rows, n);
      const auto rows = RandomVector(&rng, num_rows * n);
      std::vector<float> norms(tiles, -1.0f);
      std::vector<float> norms_ref(tiles, -2.0f);
      TileMaxRowNorms(rows.data(), num_rows, n, rows_per_tile, norms.data());
      ref::TileMaxRowNorms(rows.data(), num_rows, n, rows_per_tile,
                           norms_ref.data());
      for (size_t t = 0; t < tiles; ++t) {
        EXPECT_NEAR(double(norms[t]), double(norms_ref[t]), 1e-5)
            << "tile=" << t << " rows=" << num_rows << " n=" << n;
      }
    }
  }
}

TEST(SimdTest, TileMaxRowNormsI8MatchesRefExactly) {
  Rng rng(71);
  for (size_t num_rows : {size_t(1), size_t(7), size_t(130)}) {
    for (size_t n : {size_t(1), size_t(17), size_t(96)}) {
      const size_t rows_per_tile = PrunedTileRows(n);
      const size_t tiles = PrunedTileCount(num_rows, n);
      const auto rows = RandomVector(&rng, num_rows * n);
      std::vector<std::int8_t> rows8(num_rows * n);
      std::vector<float> scales(num_rows);
      QuantizeRowsI8(rows.data(), num_rows, n, rows8.data(), scales.data());
      std::vector<float> norms(tiles, -1.0f);
      std::vector<float> norms_ref(tiles, -2.0f);
      TileMaxRowNormsI8(rows8.data(), scales.data(), num_rows, n,
                        rows_per_tile, norms.data());
      ref::TileMaxRowNormsI8(rows8.data(), scales.data(), num_rows, n,
                             rows_per_tile, norms_ref.data());
      // Integer code sums are exact in double, so kernel == ref bit-for-bit.
      for (size_t t = 0; t < tiles; ++t) {
        EXPECT_EQ(norms[t], norms_ref[t])
            << "tile=" << t << " rows=" << num_rows << " n=" << n;
      }
    }
  }
}

TEST(SimdTest, CountGreaterEqualMatchesRefExactly) {
  Rng rng(72);
  for (size_t n : TestSizes()) {
    auto scores = RandomVector(&rng, n);
    // Force ties so the equal count is exercised.
    for (size_t i = 0; i < n; i += 3) scores[i] = 0.25f;
    for (const float threshold : {0.25f, 0.0f, -3.0f, 3.0f}) {
      size_t g = 0, e = 0, g_ref = 0, e_ref = 0;
      CountGreaterEqual(scores.data(), n, threshold, &g, &e);
      ref::CountGreaterEqual(scores.data(), n, threshold, &g_ref, &e_ref);
      EXPECT_EQ(g, g_ref) << "n=" << n << " threshold=" << threshold;
      EXPECT_EQ(e, e_ref) << "n=" << n << " threshold=" << threshold;
    }
  }
  size_t g = 7, e = 7;
  CountGreaterEqual(nullptr, 0, 1.0f, &g, &e);
  EXPECT_EQ(g, size_t(0));
  EXPECT_EQ(e, size_t(0));
}

// The conservativeness property the pruned ranking path relies on: for
// every tile, ‖q‖·tile_norm·kPruneBoundSlack dominates every score a row
// of the tile can produce, in every precision tier.
TEST(SimdTest, TileBoundsDominateEveryScoreInTile) {
  Rng rng(73);
  const size_t n = 48;
  const size_t num_rows = 300;  // several tiles at 128 rows/tile
  const size_t rows_per_tile = PrunedTileRows(n);
  const size_t tiles = PrunedTileCount(num_rows, n);
  const auto rows = RandomVector(&rng, num_rows * n);
  const auto query = RandomVector(&rng, n);
  std::vector<std::int8_t> rows8(num_rows * n);
  std::vector<float> scales(num_rows);
  QuantizeRowsI8(rows.data(), num_rows, n, rows8.data(), scales.data());
  std::vector<float> norms(tiles);
  std::vector<float> norms8(tiles);
  TileMaxRowNorms(rows.data(), num_rows, n, rows_per_tile, norms.data());
  TileMaxRowNormsI8(rows8.data(), scales.data(), num_rows, n, rows_per_tile,
                    norms8.data());
  const double qnorm = std::sqrt(SquaredNorm(query.data(), n));

  std::vector<float> exact(num_rows);
  std::vector<float> f32(num_rows);
  std::vector<float> i8(num_rows);
  DotBatch(query.data(), rows.data(), num_rows, n, exact.data());
  DotBatchMultiF32(query.data(), 1, rows.data(), num_rows, n, f32.data());
  DotBatchMultiI8(query.data(), 1, rows8.data(), scales.data(), num_rows, n,
                  i8.data());
  for (size_t row = 0; row < num_rows; ++row) {
    const size_t t = row / rows_per_tile;
    const double bound = qnorm * double(norms[t]) * kPruneBoundSlack;
    EXPECT_GE(bound, double(exact[row])) << "double row=" << row;
    EXPECT_GE(bound, double(f32[row])) << "f32 row=" << row;
    const double bound8 = qnorm * double(norms8[t]) * kPruneBoundSlack;
    EXPECT_GE(bound8, double(i8[row])) << "i8 row=" << row;
  }
}

TEST(SimdTest, TripleGradAxpyEqualsThreeHadamardAxpyExactly) {
  Rng rng(48);
  for (size_t n : TestSizes()) {
    const auto h = RandomVector(&rng, n);
    const auto t = RandomVector(&rng, n);
    const auto r = RandomVector(&rng, n);
    const float w = rng.NextUniform(-1.5f, 1.5f);
    auto gh = RandomVector(&rng, n);
    auto gt = RandomVector(&rng, n);
    auto gr = RandomVector(&rng, n);
    auto gh2 = gh, gt2 = gt, gr2 = gr;

    TripleGradAxpy(w, h.data(), t.data(), r.data(), gh.data(), gt.data(),
                   gr.data(), n);
    HadamardAxpy(w, t.data(), r.data(), gh2.data(), n);
    HadamardAxpy(w, h.data(), r.data(), gt2.data(), n);
    HadamardAxpy(w, h.data(), t.data(), gr2.data(), n);

    EXPECT_EQ(gh, gh2) << "n=" << n;
    EXPECT_EQ(gt, gt2) << "n=" << n;
    EXPECT_EQ(gr, gr2) << "n=" << n;
  }
}

// ---- Reference tests: against the naive sequential implementations ---------

// Reassociating a double sum of n O(1) terms perturbs it by at most a few
// n·eps; 1e-9 is orders of magnitude above that for n <= 1000 while still
// catching any real kernel bug.
constexpr double kReassocTol = 1e-9;

TEST(SimdTest, ReductionsMatchNaiveReference) {
  Rng rng(49);
  for (size_t n : TestSizes()) {
    const auto a = RandomVector(&rng, n);
    const auto b = RandomVector(&rng, n);
    const auto c = RandomVector(&rng, n);
    EXPECT_NEAR(Dot(a.data(), b.data(), n), ref::Dot(a.data(), b.data(), n),
                kReassocTol);
    EXPECT_NEAR(TrilinearDot(a.data(), b.data(), c.data(), n),
                ref::TrilinearDot(a.data(), b.data(), c.data(), n),
                kReassocTol);
    EXPECT_NEAR(SquaredNorm(a.data(), n), ref::SquaredNorm(a.data(), n),
                kReassocTol);
    EXPECT_NEAR(L1Norm(a.data(), n), ref::L1Norm(a.data(), n), kReassocTol);
    EXPECT_NEAR(L1Distance(a.data(), b.data(), n),
                ref::L1Distance(a.data(), b.data(), n), kReassocTol);
    EXPECT_NEAR(SquaredL2Distance(a.data(), b.data(), n),
                ref::SquaredL2Distance(a.data(), b.data(), n), kReassocTol);
    // Max is order-independent: exact.
    EXPECT_EQ(MaxAbsDiff(a.data(), b.data(), n),
              ref::MaxAbsDiff(a.data(), b.data(), n));
  }
}

TEST(SimdTest, ElementwiseKernelsMatchNaiveReferenceExactly) {
  Rng rng(50);
  for (size_t n : TestSizes()) {
    const auto a = RandomVector(&rng, n);
    const auto b = RandomVector(&rng, n);
    const float scale = rng.NextUniform(-1.5f, 1.5f);

    std::vector<float> out(n), out_ref(n);
    Hadamard(a.data(), b.data(), out.data(), n);
    ref::Hadamard(a.data(), b.data(), out_ref.data(), n);
    EXPECT_EQ(out, out_ref) << "Hadamard n=" << n;

    auto acc = RandomVector(&rng, n);
    auto acc_ref = acc;
    HadamardAxpy(scale, a.data(), b.data(), acc.data(), n);
    ref::HadamardAxpy(scale, a.data(), b.data(), acc_ref.data(), n);
    EXPECT_EQ(acc, acc_ref) << "HadamardAxpy n=" << n;

    auto axpy = RandomVector(&rng, n);
    auto axpy_ref = axpy;
    Axpy(scale, a.data(), axpy.data(), n);
    ref::Axpy(scale, a.data(), axpy_ref.data(), n);
    EXPECT_EQ(axpy, axpy_ref) << "Axpy n=" << n;
  }
}

TEST(SimdTest, DotBatchMultiMatchesNaiveReference) {
  Rng rng(58);
  const size_t num_queries = 6;
  const size_t num_rows = 37;
  for (size_t n : {size_t(1), size_t(13), size_t(64), size_t(67)}) {
    const auto queries = RandomVector(&rng, num_queries * n);
    const auto rows = RandomVector(&rng, num_rows * n);
    std::vector<float> out(num_queries * num_rows);
    std::vector<float> out_ref(num_queries * num_rows);
    DotBatchMulti(queries.data(), num_queries, rows.data(), num_rows, n,
                  out.data());
    ref::DotBatchMulti(queries.data(), num_queries, rows.data(), num_rows, n,
                       out_ref.data());
    for (size_t c = 0; c < out.size(); ++c) {
      EXPECT_NEAR(double(out[c]), double(out_ref[c]), 1e-4)
          << "cell=" << c << " n=" << n;
    }
  }
}

TEST(SimdTest, DotBatchIndexedMatchesNaiveReference) {
  Rng rng(59);
  const size_t num_rows = 37;
  const size_t num_ids = 23;
  for (size_t n : {size_t(1), size_t(13), size_t(64), size_t(67)}) {
    const auto v = RandomVector(&rng, n);
    const auto rows = RandomVector(&rng, num_rows * n);
    std::vector<std::int32_t> ids(num_ids);
    for (std::int32_t& id : ids) {
      id = std::int32_t(rng.NextUniform(0.0f, float(num_rows) - 0.5f));
    }
    std::vector<float> out(num_ids), out_ref(num_ids);
    DotBatchIndexed(v.data(), rows.data(), ids.data(), num_ids, n,
                    out.data());
    ref::DotBatchIndexed(v.data(), rows.data(), ids.data(), num_ids, n,
                         out_ref.data());
    for (size_t i = 0; i < num_ids; ++i) {
      EXPECT_NEAR(double(out[i]), double(out_ref[i]), 1e-4)
          << "i=" << i << " n=" << n;
    }
  }
}

TEST(SimdTest, DotBatchMatchesNaiveReference) {
  Rng rng(51);
  const size_t num_rows = 37;
  for (size_t n : {size_t(1), size_t(13), size_t(64), size_t(67)}) {
    const auto v = RandomVector(&rng, n);
    const auto rows = RandomVector(&rng, num_rows * n);
    std::vector<float> out(num_rows), out_ref(num_rows);
    DotBatch(v.data(), rows.data(), num_rows, n, out.data());
    ref::DotBatch(v.data(), rows.data(), num_rows, n, out_ref.data());
    for (size_t row = 0; row < num_rows; ++row) {
      EXPECT_NEAR(double(out[row]), double(out_ref[row]), 1e-4)
          << "row=" << row << " n=" << n;
    }
  }
}

TEST(SimdTest, FillAndScale) {
  for (size_t n : TestSizes()) {
    std::vector<float> v(n, -3.0f);
    Fill(v.data(), 1.25f, n);
    for (float x : v) ASSERT_EQ(x, 1.25f);
    Scale(v.data(), 2.0f, n);
    for (float x : v) ASSERT_EQ(x, 2.5f);
  }
}

// Vector loads in the kernels are unaligned by design: embedding rows in
// a parameter block start at arbitrary float offsets.
TEST(SimdTest, HandlesUnalignedPointers) {
  Rng rng(52);
  const size_t n = 65;
  const auto a = RandomVector(&rng, n + 3);
  const auto b = RandomVector(&rng, n + 3);
  for (size_t off = 0; off < 3; ++off) {
    const double expected = ref::Dot(a.data() + off, b.data() + off, n);
    EXPECT_NEAR(Dot(a.data() + off, b.data() + off, n), expected,
                kReassocTol);
  }
}

// The optimizer row kernels are their optimizers' one update definition:
// pinned bit for bit to simd::ref at every length 0..67 (each vector
// remainder class), at unaligned offsets, for ordinary, zero and huge
// gradients (huge ones overflow g·g to inf, so inf/NaN patterns must
// match too). Bitwise compares also catch writes outside [0, n).
TEST(SimdTest, OptimizerRowKernelsMatchRefBitExactly) {
  const auto same_bits = [](const std::vector<float>& a,
                            const std::vector<float>& b) {
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
  };
  AdamRowStep adam;
  adam.lr = 0.01 * std::sqrt(1.0 - 0.999 * 0.999) / (1.0 - 0.9 * 0.9);
  adam.eps = double(1e-8f);
  Rng rng(61);
  for (size_t n = 0; n <= 67; ++n) {
    for (const size_t off : {size_t(0), size_t(1), size_t(3)}) {
      for (const float magnitude : {1.0f, 0.0f, 3e38f}) {
        SCOPED_TRACE("n=" + std::to_string(n) + " off=" +
                     std::to_string(off) + " |g|=" + std::to_string(magnitude));
        const size_t len = n + off + 2;
        std::vector<float> g = RandomVector(&rng, len);
        for (float& x : g) x *= magnitude;
        std::vector<float> p = RandomVector(&rng, len);
        std::vector<float> m = RandomVector(&rng, len);
        std::vector<float> v = RandomVector(&rng, len);
        for (float& x : v) x = std::abs(x);

        std::vector<float> p_ref = p;
        SgdRow(0.05f, g.data() + off, p.data() + off, n);
        ref::SgdRow(0.05f, g.data() + off, p_ref.data() + off, n);
        EXPECT_TRUE(same_bits(p, p_ref)) << "SgdRow";

        std::vector<float> acc = v;
        std::vector<float> acc_ref = v;
        p_ref = p;
        AdagradRow(0.05f, 1e-8f, g.data() + off, acc.data() + off,
                   p.data() + off, n);
        ref::AdagradRow(0.05f, 1e-8f, g.data() + off, acc_ref.data() + off,
                        p_ref.data() + off, n);
        EXPECT_TRUE(same_bits(acc, acc_ref)) << "AdagradRow acc";
        EXPECT_TRUE(same_bits(p, p_ref)) << "AdagradRow p";

        std::vector<float> m_ref = m;
        std::vector<float> v_ref = v;
        p_ref = p;
        AdamRow(adam, g.data() + off, m.data() + off, v.data() + off,
                p.data() + off, n);
        ref::AdamRow(adam, g.data() + off, m_ref.data() + off,
                     v_ref.data() + off, p_ref.data() + off, n);
        EXPECT_TRUE(same_bits(m, m_ref)) << "AdamRow m";
        EXPECT_TRUE(same_bits(v, v_ref)) << "AdamRow v";
        EXPECT_TRUE(same_bits(p, p_ref)) << "AdamRow p";
      }
    }
  }
}

TEST(SimdTest, ZeroLengthIsSafe) {
  EXPECT_EQ(Dot(nullptr, nullptr, 0), 0.0);
  EXPECT_EQ(SquaredNorm(nullptr, 0), 0.0);
  EXPECT_EQ(MaxAbsDiff(nullptr, nullptr, 0), 0.0);
  DotBatch(nullptr, nullptr, 0, 0, nullptr);
  DotBatchMulti(nullptr, 0, nullptr, 0, 0, nullptr);
  DotBatchMultiF32(nullptr, 0, nullptr, 0, 0, nullptr);
  DotBatchMultiI8(nullptr, 0, nullptr, nullptr, 0, 0, nullptr);
  DotBatchIndexed(nullptr, nullptr, nullptr, 0, 0, nullptr);
  QuantizeRowsI8(nullptr, 0, 0, nullptr, nullptr);
  Fill(nullptr, 0.0f, 0);
}

}  // namespace
}  // namespace kge::simd
