#include "models/kge_model.h"

#include "util/check.h"
#include "util/scratch.h"

namespace kge {
namespace {

// Full-vocabulary scratch for the exhaustive range-scan fallbacks: one
// per-thread buffer reused across calls (contents overwritten each use).
KGE_HOT_NOALLOC
std::span<float> FullScanScratch(size_t num_entities) {
  static thread_local std::vector<float> buf;
  return ScratchSpan(buf, num_entities);
}

// Walks scores[begin, end) counting strictly-greater / equal candidates
// against `threshold`, skipping `excluded` ids (sorted ascending) and
// `also_skip`. Shared by the base-class fallbacks; `scores` is indexed
// by absolute entity id.
KGE_HOT_NOALLOC
void CountRangeAgainstThreshold(std::span<const float> scores,
                                float threshold, EntityId begin,
                                EntityId end,
                                std::span<const EntityId> excluded,
                                EntityId also_skip, uint64_t* better,
                                uint64_t* equal) {
  size_t cursor = 0;
  while (cursor < excluded.size() && excluded[cursor] < begin) ++cursor;
  uint64_t g = 0;
  uint64_t eq = 0;
  for (EntityId e = begin; e < end; ++e) {
    if (cursor < excluded.size() && excluded[cursor] == e) {
      ++cursor;
      continue;
    }
    if (e == also_skip) continue;
    const float s = scores[size_t(e)];
    if (s > threshold) {
      ++g;
    } else if (s == threshold) {
      ++eq;
    }
  }
  *better += g;
  *equal += eq;
}

}  // namespace

void KgeModel::ScoreAllTailsBatch(std::span<const EntityId> heads,
                                  RelationId relation,
                                  std::span<float> out) const {
  const size_t num = size_t(num_entities());
  KGE_DCHECK(out.size() == heads.size() * num);
  for (size_t q = 0; q < heads.size(); ++q) {
    ScoreAllTails(heads[q], relation, out.subspan(q * num, num));
  }
}

void KgeModel::ScoreAllHeadsBatch(std::span<const EntityId> tails,
                                  RelationId relation,
                                  std::span<float> out) const {
  const size_t num = size_t(num_entities());
  KGE_DCHECK(out.size() == tails.size() * num);
  for (size_t q = 0; q < tails.size(); ++q) {
    ScoreAllHeads(tails[q], relation, out.subspan(q * num, num));
  }
}

void KgeModel::ScoreAllTailsBatch(std::span<const EntityId> heads,
                                  RelationId relation, std::span<float> out,
                                  ScorePrecision precision) const {
  KGE_CHECK(precision == ScorePrecision::kDouble);
  ScoreAllTailsBatch(heads, relation, out);
}

void KgeModel::ScoreAllHeadsBatch(std::span<const EntityId> tails,
                                  RelationId relation, std::span<float> out,
                                  ScorePrecision precision) const {
  KGE_CHECK(precision == ScorePrecision::kDouble);
  ScoreAllHeadsBatch(tails, relation, out);
}

void KgeModel::CountTailsAbove(EntityId head, RelationId relation,
                               float threshold, EntityId begin, EntityId end,
                               std::span<const EntityId> excluded,
                               EntityId also_skip, ScorePrecision precision,
                               bool prune, uint64_t* better, uint64_t* equal,
                               RankScanStats* stats) const {
  (void)prune;  // no tile bounds in the exhaustive fallback
  if (begin >= end) return;
  const std::span<float> scores = FullScanScratch(size_t(num_entities()));
  const EntityId heads[1] = {head};
  ScoreAllTailsBatch(std::span<const EntityId>(heads, 1), relation, scores,
                     precision);
  CountRangeAgainstThreshold(scores, threshold, begin, end, excluded,
                             also_skip, better, equal);
  stats->tiles_total += 1;
}

void KgeModel::CountHeadsAbove(EntityId tail, RelationId relation,
                               float threshold, EntityId begin, EntityId end,
                               std::span<const EntityId> excluded,
                               EntityId also_skip, ScorePrecision precision,
                               bool prune, uint64_t* better, uint64_t* equal,
                               RankScanStats* stats) const {
  (void)prune;
  if (begin >= end) return;
  const std::span<float> scores = FullScanScratch(size_t(num_entities()));
  const EntityId tails[1] = {tail};
  ScoreAllHeadsBatch(std::span<const EntityId>(tails, 1), relation, scores,
                     precision);
  CountRangeAgainstThreshold(scores, threshold, begin, end, excluded,
                             also_skip, better, equal);
  stats->tiles_total += 1;
}

float KgeModel::ScoreOneTail(EntityId head, EntityId tail,
                             RelationId relation,
                             ScorePrecision precision) const {
  const std::span<float> scores = FullScanScratch(size_t(num_entities()));
  const EntityId heads[1] = {head};
  ScoreAllTailsBatch(std::span<const EntityId>(heads, 1), relation, scores,
                     precision);
  return scores[size_t(tail)];
}

float KgeModel::ScoreOneHead(EntityId head, EntityId tail,
                             RelationId relation,
                             ScorePrecision precision) const {
  const std::span<float> scores = FullScanScratch(size_t(num_entities()));
  const EntityId tails[1] = {tail};
  ScoreAllHeadsBatch(std::span<const EntityId>(tails, 1), relation, scores,
                     precision);
  return scores[size_t(head)];
}

void KgeModel::FoldQueries(QuerySide, RelationId, std::span<const EntityId>,
                           std::span<float>) const {}

void KgeModel::TopKWalk(const TopKWalkBatch& batch, int lane, int num_lanes,
                        std::span<TopKHeap<float, EntityId>> heaps,
                        TopKWalkScratch* scratch, RankScanStats* stats) const {
  (void)num_lanes;
  // Without a fold there are no tiles to deal out: lane 0 scores every
  // query over the whole table.
  if (lane != 0) return;
  const std::span<float> scores =
      ScratchSpan(scratch->scores, size_t(num_entities()));
  for (size_t q = 0; q < batch.anchors.size(); ++q) {
    stats->tiles_total += 1;
    if (heaps[q].capacity() == 0) {
      stats->tiles_skipped += 1;
      continue;
    }
    const std::span<const EntityId> anchor(&batch.anchors[q], 1);
    if (batch.side == QuerySide::kTail) {
      ScoreAllTailsBatch(anchor, batch.relation, scores, batch.precision);
    } else {
      ScoreAllHeadsBatch(anchor, batch.relation, scores, batch.precision);
    }
    heaps[q].PushScoresExcluding(scores, batch.excluded.empty()
                                             ? std::span<const EntityId>()
                                             : batch.excluded[q]);
  }
}

void KgeModel::ScoreTailBatch(EntityId head, RelationId relation,
                              std::span<const EntityId> tails,
                              std::span<float> out) const {
  KGE_DCHECK(out.size() == tails.size());
  for (size_t i = 0; i < tails.size(); ++i) {
    out[i] = static_cast<float>(Score({head, tails[i], relation}));
  }
}

void KgeModel::ScoreHeadBatch(EntityId tail, RelationId relation,
                              std::span<const EntityId> heads,
                              std::span<float> out) const {
  KGE_DCHECK(out.size() == heads.size());
  for (size_t i = 0; i < heads.size(); ++i) {
    out[i] = static_cast<float>(Score({heads[i], tail, relation}));
  }
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
