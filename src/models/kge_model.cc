#include "models/kge_model.h"

#include "math/simd.h"
#include "math/vec_ops.h"
#include "util/check.h"
#include "util/scratch.h"

namespace kge {

void KgeModel::CountRankTile(std::span<const float> scores, size_t row0,
                             float threshold, EntityId truth,
                             std::span<const EntityId> excluded,
                             size_t* cursor, RankCounts* counts) {
  size_t greater = 0;
  size_t equal = 0;
  simd::CountGreaterEqual(scores.data(), scores.size(), threshold, &greater,
                          &equal);
  // Back out the candidates the rank must not count: the excluded ids in
  // range and the truth (once, even when it is also excluded).
  const auto back_out = [&](size_t row) {
    const float s = scores[row - row0];
    if (s > threshold) {
      --greater;
    } else if (s == threshold) {
      --equal;
    }
  };
  const size_t row_end = row0 + scores.size();
  size_t c = *cursor;
  while (c < excluded.size() && size_t(excluded[c]) < row0) ++c;
  bool truth_excluded = false;
  for (; c < excluded.size() && size_t(excluded[c]) < row_end; ++c) {
    back_out(size_t(excluded[c]));
    truth_excluded = truth_excluded || excluded[c] == truth;
  }
  *cursor = c;
  if (!truth_excluded && size_t(truth) >= row0 && size_t(truth) < row_end) {
    back_out(size_t(truth));
  }
  counts->better += greater;
  counts->equal += equal;
}

void KgeModel::FoldQueries(QuerySide, RelationId, std::span<const EntityId>,
                           std::span<float>) const {}

void KgeModel::TopKWalk(const TopKWalkBatch& batch, int lane, int num_lanes,
                        std::span<TopKHeap<float, EntityId>> heaps,
                        std::span<RankCounts> counts,
                        TopKWalkScratch* scratch, RankScanStats* stats) const {
  (void)num_lanes;
  // Without a fold there are no tiles to deal out: lane 0 scores every
  // query over the whole table.
  if (lane != 0) return;
  KGE_CHECK(batch.precision == ScorePrecision::kDouble);
  const bool rank = !batch.truths.empty();
  const std::span<float> scores =
      ScratchSpan(scratch->scores, size_t(num_entities()));
  for (size_t q = 0; q < batch.anchors.size(); ++q) {
    stats->tiles_total += 1;
    if (!rank && heaps[q].capacity() == 0) {
      stats->tiles_skipped += 1;
      continue;
    }
    ScoreAll(batch.side, batch.anchors[q], batch.relation, scores);
    const std::span<const EntityId> excluded =
        batch.excluded.empty() ? std::span<const EntityId>()
                               : batch.excluded[q];
    if (rank) {
      const EntityId truth = batch.truths[q];
      size_t cursor = 0;
      CountRankTile(scores, 0, scores[size_t(truth)], truth, excluded,
                    &cursor, &counts[q]);
    } else {
      heaps[q].PushScoresExcluding(scores, excluded);
    }
  }
}

void KgeModel::ScoreCandidates(QuerySide side, EntityId anchor,
                               RelationId relation,
                               std::span<const EntityId> candidates,
                               std::span<float> out) const {
  KGE_DCHECK(out.size() == candidates.size());
  for (size_t i = 0; i < candidates.size(); ++i) {
    out[i] = static_cast<float>(
        Score(QueryTriple(side, anchor, relation, candidates[i])));
  }
}

void KgeModel::NormalizeEntityRow(std::span<float> row) const {
  const size_t dim = size_t(EntityVectorDim());
  for (size_t offset = 0; offset < row.size(); offset += dim) {
    NormalizeL2(row.subspan(offset, dim));
  }
}

void KgeModel::NormalizeEntities(std::span<const EntityId> entities) {
  ParameterBlock* block = Blocks()[0];
  for (EntityId e : entities) NormalizeEntityRow(block->Row(e));
  NormalizeAfterStep();
}

std::vector<const ParameterBlock*> KgeModel::Blocks() const {
  // The virtual Blocks() cannot be const (the trainer mutates blocks
  // through it), but the block list itself is configuration, not state:
  // collecting the pointers mutates nothing.
  std::vector<ParameterBlock*> blocks = const_cast<KgeModel*>(this)->Blocks();
  return std::vector<const ParameterBlock*>(blocks.begin(), blocks.end());
}

int64_t KgeModel::NumParameters() const {
  int64_t total = 0;
  for (const ParameterBlock* block : Blocks()) total += block->size();
  return total;
}

}  // namespace kge
