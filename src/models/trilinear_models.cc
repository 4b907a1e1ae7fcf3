#include "models/trilinear_models.h"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "math/simd.h"
#include "math/vec_ops.h"
#include "util/check.h"
#include "util/scratch.h"

namespace kge {

MultiEmbeddingModel::MultiEmbeddingModel(std::string name,
                                         int32_t num_entities,
                                         int32_t num_relations, int32_t dim,
                                         WeightTable weights,
                                         std::optional<uint64_t> seed)
    : name_(std::move(name)),
      dim_(dim),
      weights_(std::move(weights)),
      entities_(name_ + ".entities", num_entities, weights_.ne(), dim),
      relations_(name_ + ".relations", num_relations, weights_.nr(), dim),
      entity_replica_(entities_.block()) {
  KGE_CHECK(dim > 0);
  if (seed) InitParameters(*seed);
}

void MultiEmbeddingModel::InitParameters(uint64_t seed) {
  Rng rng(seed);
  entities_.InitXavier(&rng);
  relations_.InitXavier(&rng);
}

double MultiEmbeddingModel::Score(const Triple& triple) const {
  return ScoreTriple(weights_, dim_, entities_.Of(triple.head),
                     entities_.Of(triple.tail),
                     relations_.Of(triple.relation));
}

std::span<const float> MultiEmbeddingModel::FoldOne(
    QuerySide side, EntityId anchor, RelationId relation) const {
  static thread_local std::vector<float> fold_buf;
  const std::span<float> fold = ScratchSpan(fold_buf, FoldWidth());
  FoldQueries(side, relation, std::span<const EntityId>(&anchor, 1), fold);
  return fold;
}

void MultiEmbeddingModel::FoldQueries(QuerySide side, RelationId relation,
                                      std::span<const EntityId> anchors,
                                      std::span<float> folds) const {
  const size_t width = FoldWidth();
  KGE_CHECK(folds.size() == anchors.size() * width);
  const std::span<const float> rel = relations_.Of(relation);
  for (size_t q = 0; q < anchors.size(); ++q) {
    const std::span<float> fold = folds.subspan(q * width, width);
    if (side == QuerySide::kTail) {
      FoldForTail(weights_, dim_, entities_.Of(anchors[q]), rel, fold);
    } else {
      FoldForHead(weights_, dim_, entities_.Of(anchors[q]), rel, fold);
    }
  }
}

void MultiEmbeddingModel::ScoreAll(QuerySide side, EntityId anchor,
                                   RelationId relation,
                                   std::span<float> out) const {
  KGE_CHECK(out.size() == size_t(entities_.num_ids()));
  // Fold once into per-thread scratch, then one tiled matrix-vector
  // product over the whole entity table (rows are contiguous in the
  // parameter block). Zero heap allocations at steady state.
  DotBatch(FoldOne(side, anchor, relation), entities_.block().Flat(), out);
}

void MultiEmbeddingModel::ScoreCandidates(
    QuerySide side, EntityId anchor, RelationId relation,
    std::span<const EntityId> candidates, std::span<float> out) const {
  KGE_CHECK(out.size() == candidates.size());
  // Candidate rows are scored in place in the entity table via the
  // id-indirected kernel — no per-call gather copy.
  DotBatchIndexed(FoldOne(side, anchor, relation), entities_.block().Flat(),
                  candidates, out);
}

namespace {

// Scores entity rows [row0, row0 + len) against `num_queries` row-major
// folds at `precision` into the num_queries × len matrix `out` (double
// and float32 tiers stream the master rows; int8 streams the quantized
// replica, which must be fresh). Each cell is bit-identical to the same
// cell of a full-table product over any set of queries (the per-cell
// contract of math/simd.h), so tiling, lane striding, pruning and
// batching are pure scheduling.
KGE_HOT_NOALLOC
void ScoreRowsAt(ScorePrecision precision, const float* folds,
                 size_t num_queries, size_t width,
                 const ParameterBlock& entity_block,
                 const ScoringReplica& replica, size_t row0, size_t len,
                 float* out) {
  switch (precision) {
    case ScorePrecision::kDouble:
      simd::DotBatchMulti(folds, num_queries,
                          entity_block.Flat().data() + row0 * width, len,
                          width, out);
      return;
    case ScorePrecision::kFloat32:
      simd::DotBatchMultiF32(folds, num_queries,
                             entity_block.Flat().data() + row0 * width, len,
                             width, out);
      return;
    case ScorePrecision::kInt8:
      KGE_DCHECK(replica.IsFresh(ScorePrecision::kInt8));
      simd::DotBatchMultiI8(folds, num_queries,
                            replica.Int8Rows().data() + row0 * width,
                            replica.Int8Scales().data() + row0, len, width,
                            out);
      return;
  }
  KGE_CHECK(false);
}

}  // namespace

void MultiEmbeddingModel::TopKWalk(const TopKWalkBatch& batch, int lane,
                                   int num_lanes,
                                   std::span<TopKHeap<float, EntityId>> heaps,
                                   std::span<RankCounts> counts,
                                   TopKWalkScratch* scratch,
                                   RankScanStats* stats) const {
  const size_t num_queries = batch.anchors.size();
  const size_t width = FoldWidth();
  const bool rank = !batch.truths.empty();
  KGE_DCHECK(num_lanes >= 1 && lane >= 0);
  KGE_DCHECK(batch.folds.size() == num_queries * width);
  KGE_DCHECK((rank ? counts.size() : heaps.size()) == num_queries);
  const size_t num_rows = size_t(entities_.num_ids());
  const size_t rows_per_tile = simd::PrunedTileRows(width);
  const size_t num_tiles = simd::PrunedTileCount(num_rows, width);
  const size_t reserve = std::max(num_queries, scratch->min_queries);
  const std::span<float> live_folds =
      ScratchSpan(scratch->folds, reserve * width);
  const std::span<float> scores =
      ScratchSpan(scratch->scores, reserve * rows_per_tile);
  const std::span<double> norms = ScratchSpan(scratch->norms, reserve);
  const std::span<float> thresholds =
      ScratchSpan(scratch->thresholds, reserve);
  const std::span<size_t> live = ScratchSpan(scratch->live, reserve);
  const std::span<size_t> cursor = ScratchSpan(scratch->cursor, reserve);
  if (rank) {
    // The truth's score through the same tier kernel as its tile, so it
    // equals the truth's own cell bit for bit.
    for (size_t q = 0; q < num_queries; ++q) {
      ScoreRowsAt(batch.precision, batch.folds.data() + q * width, 1, width,
                  entities_.block(), entity_replica_,
                  size_t(batch.truths[q]), 1, &thresholds[q]);
    }
  }
  std::span<const float> bounds;
  if (batch.prune) {
    KGE_DCHECK(entity_replica_.BoundsFresh(batch.precision));
    bounds = entity_replica_.TileBounds(batch.precision);
    for (size_t q = 0; q < num_queries; ++q) {
      norms[q] = std::sqrt(simd::SquaredNorm(
                     batch.folds.data() + q * width, width)) *
                 simd::kPruneBoundSlack;
    }
  }
  uint64_t pairs = 0;
  uint64_t skipped = 0;
  const auto walk_tile = [&](size_t tile) {
    pairs += num_queries;
    size_t num_live = 0;
    for (size_t q = 0; q < num_queries; ++q) {
      bool skip = false;
      if (rank) {
        // Strict <: a tile whose bound equals the truth's score can still
        // hold equal-scoring candidates, which the tie-aware rank counts.
        skip = batch.prune &&
               norms[q] * double(bounds[tile]) < double(thresholds[q]);
      } else {
        skip = batch.prune
                   ? heaps[q].CanSkipBound(norms[q] * double(bounds[tile]))
                   : heaps[q].capacity() == 0;
      }
      if (!skip) live[num_live++] = q;
    }
    skipped += num_queries - num_live;
    if (num_live == 0) return;
    // Score the tile once for every live query: gather their folds into
    // one contiguous block unless all of them are live.
    const float* folds = batch.folds.data();
    if (num_live < num_queries) {
      for (size_t i = 0; i < num_live; ++i) {
        std::copy_n(batch.folds.data() + live[i] * width, width,
                    live_folds.data() + i * width);
      }
      folds = live_folds.data();
    }
    const size_t row0 = tile * rows_per_tile;
    const size_t len = std::min(rows_per_tile, num_rows - row0);
    ScoreRowsAt(batch.precision, folds, num_live, width, entities_.block(),
                entity_replica_, row0, len, scores.data());
    for (size_t i = 0; i < num_live; ++i) {
      const size_t q = live[i];
      const std::span<const EntityId> excluded =
          batch.excluded.empty() ? std::span<const EntityId>()
                                 : batch.excluded[q];
      const float* row_scores = scores.data() + i * len;
      if (rank) {
        CountRankTile(std::span<const float>(row_scores, len), row0,
                      thresholds[q], batch.truths[q], excluded, &cursor[q],
                      &counts[q]);
        continue;
      }
      TopKHeap<float, EntityId>& heap = heaps[q];
      size_t c = cursor[q];
      for (size_t r = 0; r < len; ++r) {
        const EntityId id = EntityId(row0 + r);
        while (c < excluded.size() && excluded[c] < id) ++c;
        if (c < excluded.size() && excluded[c] == id) continue;
        heap.PushCandidate(id, row_scores[r]);
      }
      cursor[q] = c;
    }
  };
  // Lane `lane` walks its own tiles; with claim counters it then helps
  // the lanes after it with the tiles none of them has claimed yet.
  // Each lane's sequence is walked in ascending id order, which the
  // exclusion cursors rely on.
  KGE_DCHECK(batch.lane_claims.empty() ||
             batch.lane_claims.size() == size_t(num_lanes));
  const size_t stride = size_t(num_lanes);
  const size_t sequences = batch.lane_claims.empty() ? 1 : stride;
  // Relaxed: a claim only has to be unique. The sinks a lane fills reach
  // the merging thread through the caller's join, not through these.
  const auto claim = [&](size_t s, size_t unclaimed) {
    return batch.lane_claims.empty()
               ? unclaimed
               : batch.lane_claims[s].next.fetch_add(
                     1, std::memory_order_relaxed);
  };
  for (size_t j = 0; j < sequences; ++j) {
    const size_t s = (size_t(lane) + j) % stride;
    const size_t count =
        s < num_tiles ? (num_tiles - s + stride - 1) / stride : 0;
    std::fill_n(cursor.begin(), num_queries, size_t{0});
    for (size_t i = claim(s, 0); i < count; i = claim(s, i + 1)) {
      walk_tile(s + i * stride);
    }
  }
  stats->tiles_total += pairs;
  stats->tiles_skipped += skipped;
}

std::vector<ParameterBlock*> MultiEmbeddingModel::Blocks() {
  return {entities_.block(), relations_.block()};
}

void MultiEmbeddingModel::AccumulateGradients(const Triple& triple,
                                              float dscore,
                                              GradientBuffer* grads) {
  std::span<float> gh = grads->GradFor(kEntityBlock, triple.head);
  std::span<float> gt = grads->GradFor(kEntityBlock, triple.tail);
  std::span<float> gr = grads->GradFor(kRelationBlock, triple.relation);
  // Const reads: a parameter read must not bump the block's mutation
  // stamp (one shared atomic, hit by every worker for every example).
  const EmbeddingStore& entities = entities_;
  AccumulateTripleGradients(weights_, dim_, entities.Of(triple.head),
                            entities.Of(triple.tail),
                            std::as_const(relations_).Of(triple.relation),
                            dscore, gh, gt, gr);
}

std::unique_ptr<MultiEmbeddingModel> MakeDistMult(
    int32_t num_entities, int32_t num_relations, int32_t dim,
    std::optional<uint64_t> seed) {
  return std::make_unique<MultiEmbeddingModel>(
      "DistMult", num_entities, num_relations, dim, WeightTable::DistMult(),
      seed);
}

std::unique_ptr<MultiEmbeddingModel> MakeComplEx(
    int32_t num_entities, int32_t num_relations, int32_t dim,
    std::optional<uint64_t> seed) {
  return std::make_unique<MultiEmbeddingModel>(
      "ComplEx", num_entities, num_relations, dim, WeightTable::ComplEx(),
      seed);
}

std::unique_ptr<MultiEmbeddingModel> MakeCp(
    int32_t num_entities, int32_t num_relations, int32_t dim,
    std::optional<uint64_t> seed) {
  return std::make_unique<MultiEmbeddingModel>("CP", num_entities,
                                               num_relations, dim,
                                               WeightTable::Cp(), seed);
}

std::unique_ptr<MultiEmbeddingModel> MakeCph(
    int32_t num_entities, int32_t num_relations, int32_t dim,
    std::optional<uint64_t> seed) {
  return std::make_unique<MultiEmbeddingModel>("CPh", num_entities,
                                               num_relations, dim,
                                               WeightTable::Cph(), seed);
}

std::unique_ptr<MultiEmbeddingModel> MakeMultiEmbedding(
    std::string name, int32_t num_entities, int32_t num_relations,
    int32_t dim, WeightTable weights, std::optional<uint64_t> seed) {
  return std::make_unique<MultiEmbeddingModel>(std::move(name), num_entities,
                                               num_relations, dim,
                                               std::move(weights), seed);
}

}  // namespace kge
