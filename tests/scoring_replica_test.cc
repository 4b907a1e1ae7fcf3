// ScoringReplica contract tests (core/scoring_replica.h): per-row
// absmax/127 quantization, the int8 saturation edge cases, and the
// generation-stamp staleness protocol that keeps the replica synced to
// its master ParameterBlock across training updates. The model-level
// tests pin PrepareForScoring + the precision-tiered batched scorers to
// the exact double tier within quantization error.
#include "core/scoring_replica.h"

#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "core/parameter_block.h"
#include "core/topk_heap.h"
#include "gtest/gtest.h"
#include "math/simd.h"
#include "models/trilinear_models.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace kge {
namespace {

TEST(ScorePrecisionTest, NamesAndParsingRoundTrip) {
  EXPECT_STREQ(ScorePrecisionName(ScorePrecision::kDouble), "double");
  EXPECT_STREQ(ScorePrecisionName(ScorePrecision::kFloat32), "float32");
  EXPECT_STREQ(ScorePrecisionName(ScorePrecision::kInt8), "int8");
  for (const ScorePrecision p :
       {ScorePrecision::kDouble, ScorePrecision::kFloat32,
        ScorePrecision::kInt8}) {
    ScorePrecision parsed = ScorePrecision::kDouble;
    EXPECT_TRUE(ParseScorePrecision(ScorePrecisionName(p), &parsed));
    EXPECT_EQ(parsed, p);
  }
  ScorePrecision parsed = ScorePrecision::kInt8;
  EXPECT_FALSE(ParseScorePrecision("fp16", &parsed));
  EXPECT_FALSE(ParseScorePrecision("", &parsed));
  EXPECT_FALSE(ParseScorePrecision("Double", &parsed));
  // A failed parse leaves the output untouched.
  EXPECT_EQ(parsed, ScorePrecision::kInt8);
}

TEST(ScoringReplicaTest, MasterReadingTiersAreAlwaysFresh) {
  ParameterBlock block("entities", 4, 8);
  ScoringReplica replica(&block);
  EXPECT_TRUE(replica.IsFresh(ScorePrecision::kDouble));
  EXPECT_TRUE(replica.IsFresh(ScorePrecision::kFloat32));
  EXPECT_FALSE(replica.IsFresh(ScorePrecision::kInt8));
  // EnsureFresh on the master-reading tiers materializes nothing.
  replica.EnsureFresh(ScorePrecision::kDouble);
  replica.EnsureFresh(ScorePrecision::kFloat32);
  EXPECT_EQ(replica.built_generation(), 0u);
}

template <typename T>
bool SameBits(std::span<const T> a, std::span<const T> b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size_bytes()) == 0);
}

// Built on a pool, the int8 codes and scales and both tiers' tile bounds
// equal the inline build bit for bit: the rows are split on tile
// boundaries, so every row and every tile is still built whole by one
// thread. Row counts cover zero rows, one tile, a partial last tile,
// fewer tiles than workers and many tiles.
TEST(ScoringReplicaTest, PooledRebuildEqualsInlineBitForBit) {
  constexpr int64_t kDim = 16;
  const auto rows_per_tile = int64_t(simd::PrunedTileRows(kDim));
  ThreadPool one(1);
  ThreadPool two(2);
  ThreadPool four(4);
  for (const int64_t rows :
       {int64_t{0}, int64_t{1}, rows_per_tile - 1, rows_per_tile,
        rows_per_tile + 1, 3 * rows_per_tile - 5,
        17 * rows_per_tile + 9}) {
    ParameterBlock block("entities", rows, kDim);
    Rng rng(uint64_t(rows) + 3);
    block.InitUniform(&rng, -1.0f, 1.0f);
    // Skew the row norms so tiles have different bounds.
    for (int64_t r = 0; r < rows; ++r) {
      for (float& x : block.Row(r)) x *= float(1 + (r * 7) % 13);
    }
    ScoringReplica inline_replica(&block);
    inline_replica.EnsureBoundsFresh(ScorePrecision::kDouble);
    inline_replica.EnsureBoundsFresh(ScorePrecision::kInt8);
    ASSERT_EQ(inline_replica.TileBounds(ScorePrecision::kDouble).size(),
              simd::PrunedTileCount(size_t(rows), kDim));
    for (ThreadPool* pool : {&one, &two, &four}) {
      SCOPED_TRACE(std::to_string(rows) + " rows, " +
                   std::to_string(pool->num_threads()) + " threads");
      ScoringReplica pooled(&block);
      pooled.EnsureBoundsFresh(ScorePrecision::kDouble, pool);
      pooled.EnsureBoundsFresh(ScorePrecision::kInt8, pool);
      EXPECT_TRUE(SameBits(pooled.TileBounds(ScorePrecision::kDouble),
                           inline_replica.TileBounds(ScorePrecision::kDouble)));
      EXPECT_TRUE(SameBits(pooled.TileBounds(ScorePrecision::kInt8),
                           inline_replica.TileBounds(ScorePrecision::kInt8)));
      EXPECT_TRUE(SameBits(pooled.Int8Rows(), inline_replica.Int8Rows()));
      EXPECT_TRUE(SameBits(pooled.Int8Scales(), inline_replica.Int8Scales()));
      // The int8 table alone, through EnsureFresh.
      ScoringReplica codes_only(&block);
      codes_only.EnsureFresh(ScorePrecision::kInt8, pool);
      EXPECT_TRUE(SameBits(codes_only.Int8Rows(), inline_replica.Int8Rows()));
      EXPECT_TRUE(
          SameBits(codes_only.Int8Scales(), inline_replica.Int8Scales()));
    }
  }
}

TEST(ScoringReplicaTest, PerRowScalesAreAbsmaxOver127) {
  ParameterBlock block("entities", 3, 4);
  {
    const std::span<float> row0 = block.Row(0);
    row0[0] = 0.5f, row0[1] = -4.0f, row0[2] = 1.0f, row0[3] = 4.0f;
    const std::span<float> row1 = block.Row(1);
    row1[0] = 1.0f, row1[1] = -1.0f, row1[2] = 0.25f, row1[3] = 0.0f;
    // Row 2 stays all-zero.
  }
  ScoringReplica replica(&block);
  replica.EnsureFresh(ScorePrecision::kInt8);

  const std::span<const float> scales = replica.Int8Scales();
  ASSERT_EQ(scales.size(), 3u);
  EXPECT_EQ(scales[0], 4.0f / 127.0f);
  EXPECT_EQ(scales[1], 1.0f / 127.0f);
  EXPECT_EQ(scales[2], 0.0f);  // all-zero row: scale 0, not NaN/inf

  const std::span<const std::int8_t> codes = replica.Int8Rows();
  ASSERT_EQ(codes.size(), 12u);
  // Saturation: the absmax elements map to exactly +/-127.
  EXPECT_EQ(codes[1], std::int8_t(-127));
  EXPECT_EQ(codes[3], std::int8_t(127));
  EXPECT_EQ(codes[4], std::int8_t(127));
  EXPECT_EQ(codes[5], std::int8_t(-127));
  // All-zero row quantizes to all-zero codes.
  for (size_t d = 8; d < 12; ++d) EXPECT_EQ(codes[d], std::int8_t(0));
  // Nothing ever leaves [-127, 127] (so negation is always exact).
  for (const std::int8_t c : codes) {
    EXPECT_GE(c, std::int8_t(-127));
    EXPECT_LE(c, std::int8_t(127));
  }
}

TEST(ScoringReplicaTest, RoundTripErrorBoundedByHalfScale) {
  ParameterBlock block("entities", 5, 16);
  Rng rng(7);
  block.InitUniform(&rng, -2.0f, 2.0f);
  ScoringReplica replica(&block);
  replica.EnsureFresh(ScorePrecision::kInt8);
  const std::span<const float> master =
      static_cast<const ParameterBlock&>(block).Flat();
  const std::span<const std::int8_t> codes = replica.Int8Rows();
  const std::span<const float> scales = replica.Int8Scales();
  for (size_t row = 0; row < 5; ++row) {
    for (size_t d = 0; d < 16; ++d) {
      const float x = master[row * 16 + d];
      const float back = scales[row] * float(codes[row * 16 + d]);
      EXPECT_LE(std::fabs(x - back), scales[row] * 0.5f + 1e-7f)
          << "row=" << row << " d=" << d;
    }
  }
}

TEST(ScoringReplicaTest, GenerationStalenessTriggersRebuild) {
  ParameterBlock block("entities", 2, 4);
  block.Row(0)[0] = 1.0f;
  ScoringReplica replica(&block);

  replica.EnsureFresh(ScorePrecision::kInt8);
  const uint64_t built = replica.built_generation();
  EXPECT_EQ(built, block.generation());
  EXPECT_TRUE(replica.IsFresh(ScorePrecision::kInt8));
  EXPECT_EQ(replica.Int8Rows()[0], std::int8_t(127));

  // EnsureFresh on a fresh replica is a stamp comparison, not a rebuild.
  replica.EnsureFresh(ScorePrecision::kInt8);
  EXPECT_EQ(replica.built_generation(), built);

  // Const reads never invalidate…
  const ParameterBlock& const_block = block;
  (void)const_block.Flat();
  (void)const_block.Row(0);
  EXPECT_TRUE(replica.IsFresh(ScorePrecision::kInt8));

  // …every mutable access does, and the rebuild sees the new values.
  block.Row(0)[1] = -2.0f;
  EXPECT_FALSE(replica.IsFresh(ScorePrecision::kInt8));
  replica.EnsureFresh(ScorePrecision::kInt8);
  EXPECT_GT(replica.built_generation(), built);
  EXPECT_EQ(replica.built_generation(), block.generation());
  EXPECT_EQ(replica.Int8Scales()[0], 2.0f / 127.0f);
  EXPECT_EQ(replica.Int8Rows()[1], std::int8_t(-127));
}

TEST(ScoringReplicaTest, InitializersInvalidateToo) {
  ParameterBlock block("entities", 2, 4);
  ScoringReplica replica(&block);
  replica.EnsureFresh(ScorePrecision::kInt8);
  EXPECT_TRUE(replica.IsFresh(ScorePrecision::kInt8));
  Rng rng(3);
  block.InitGaussian(&rng, 0.1f);
  EXPECT_FALSE(replica.IsFresh(ScorePrecision::kInt8));
  replica.EnsureFresh(ScorePrecision::kInt8);
  block.Zero();
  EXPECT_FALSE(replica.IsFresh(ScorePrecision::kInt8));
  replica.EnsureFresh(ScorePrecision::kInt8);
  EXPECT_EQ(replica.Int8Scales()[0], 0.0f);
}

// ---- Model-level integration ----------------------------------------------

// Every candidate's score of (anchor, relation) on `side` at
// `precision`, by entity id, read back from a model walk whose top-k
// sink keeps the whole vocabulary.
std::vector<float> WalkScores(const KgeModel& model, QuerySide side,
                              EntityId anchor, RelationId relation,
                              ScorePrecision precision) {
  std::vector<float> fold(model.FoldWidth());
  TopKWalkBatch batch;
  batch.side = side;
  batch.relation = relation;
  batch.anchors = std::span<const EntityId>(&anchor, 1);
  batch.folds = fold;
  batch.precision = precision;
  model.FoldQueries(side, relation, batch.anchors, fold);
  TopKHeap<float, EntityId> heap(model.num_entities());
  TopKWalkScratch scratch;
  RankScanStats stats;
  model.TopKWalk(batch, 0, 1, std::span(&heap, 1), {}, &scratch, &stats);
  std::vector<float> scores(size_t(model.num_entities()));
  for (const auto& entry : heap.TakeSorted()) {
    scores[size_t(entry.entity)] = entry.score;
  }
  return scores;
}

TEST(ScoringReplicaTest, ModelTiersApproximateDoubleTier) {
  const int32_t num_entities = 50;
  const int32_t num_relations = 4;
  const int32_t dim = 8;
  std::unique_ptr<MultiEmbeddingModel> model =
      MakeComplEx(num_entities, num_relations, dim, /*seed=*/11);

  model->PrepareForScoring(ScorePrecision::kInt8);
  for (const EntityId head : {0, 7, 13, 49}) {
    const std::vector<float> exact = WalkScores(
        *model, QuerySide::kTail, head, 1, ScorePrecision::kDouble);
    const std::vector<float> f32 = WalkScores(
        *model, QuerySide::kTail, head, 1, ScorePrecision::kFloat32);
    const std::vector<float> i8 = WalkScores(*model, QuerySide::kTail, head,
                                             1, ScorePrecision::kInt8);
    for (size_t e = 0; e < exact.size(); ++e) {
      // Xavier-initialized 8-d ComplEx scores are O(1); float
      // accumulation error is ~1e-6 relative, int8 error bounded by the
      // absmax/254 per-element quantization step summed over 2*dim terms.
      EXPECT_NEAR(double(f32[e]), double(exact[e]), 1e-5)
          << "head=" << head << " e=" << e;
      EXPECT_NEAR(double(i8[e]), double(exact[e]), 0.05)
          << "head=" << head << " e=" << e;
    }

    // The head side dispatches the same way.
    const std::vector<float> exact_h = WalkScores(
        *model, QuerySide::kHead, head, 1, ScorePrecision::kDouble);
    const std::vector<float> i8_h = WalkScores(
        *model, QuerySide::kHead, head, 1, ScorePrecision::kInt8);
    for (size_t e = 0; e < exact_h.size(); ++e) {
      EXPECT_NEAR(double(i8_h[e]), double(exact_h[e]), 0.05)
          << "head=" << head << " e=" << e;
    }
  }
}

TEST(ScoringReplicaTest, PrepareForScoringTracksTrainingUpdates) {
  std::unique_ptr<MultiEmbeddingModel> model =
      MakeComplEx(20, 2, 4, /*seed=*/5);
  const EntityId head = 3;

  model->PrepareForScoring(ScorePrecision::kInt8);

  // Mutate the entity table the way an optimizer step would.
  ParameterBlock* entity_block = model->Blocks()[0];
  for (int64_t row = 0; row < entity_block->num_rows(); ++row) {
    for (float& x : entity_block->Row(row)) x = -x;
  }

  // Negating every entity row negates both the fold and the candidate,
  // so the exact tail scores are unchanged — but a STALE replica would
  // pair the negated fold with the old candidate codes and produce the
  // negated scores. Tracking `exact` after the refresh therefore fails
  // unless PrepareForScoring actually requantized.
  model->PrepareForScoring(ScorePrecision::kInt8);
  const std::vector<float> after =
      WalkScores(*model, QuerySide::kTail, head, 0, ScorePrecision::kInt8);
  const std::vector<float> exact =
      WalkScores(*model, QuerySide::kTail, head, 0, ScorePrecision::kDouble);
  for (size_t e = 0; e < 20; ++e) {
    EXPECT_NEAR(double(after[e]), double(exact[e]), 0.05) << "e=" << e;
  }

  // The model reports support for every tier; the base-class default
  // (double only) is what non-trilinear models inherit.
  EXPECT_TRUE(model->SupportsScorePrecision(ScorePrecision::kInt8));
  EXPECT_TRUE(model->SupportsScorePrecision(ScorePrecision::kFloat32));
  EXPECT_TRUE(model->SupportsScorePrecision(ScorePrecision::kDouble));
}

}  // namespace
}  // namespace kge
