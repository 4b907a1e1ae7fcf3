#include "eval/topk.h"

#include <algorithm>
#include <vector>

#include "util/check.h"

namespace kge {
namespace {

// Checks the query's anchor and relation against the model, looks up
// its known answers when they are to be excluded, and runs the top-k
// walk lane by lane on this thread (the serving layer runs the same
// lanes in parallel). The lanes share one heap, so each
// lane prunes against everything the earlier lanes kept; the walk's
// contract makes the result identical for every lane count and prune
// setting.
std::vector<ScoredEntity> SelectTopK(const KgeModel& model, QuerySide side,
                                     EntityId anchor, RelationId relation,
                                     const TopKOptions& options) {
  KGE_CHECK(anchor >= 0 && anchor < model.num_entities());
  KGE_CHECK(relation >= 0 && relation < model.num_relations());
  const std::span<const EntityId> excluded =
      options.exclude_known != nullptr
          ? options.exclude_known->Known(side, anchor, relation)
          : std::span<const EntityId>();
  const int lanes = std::max(options.num_shards, 1);
  if (options.prune) {
    model.PrepareForPrunedScoring(ScorePrecision::kDouble);
  }
  TopKWalkBatch batch;
  batch.side = side;
  batch.relation = relation;
  batch.anchors = std::span<const EntityId>(&anchor, 1);
  std::vector<float> fold(model.FoldWidth());
  model.FoldQueries(side, relation, batch.anchors, fold);
  batch.folds = fold;
  batch.excluded = std::span<const std::span<const EntityId>>(&excluded, 1);
  batch.prune = options.prune;
  TopKWalkScratch scratch;
  RankScanStats stats;
  TopKHeap<float, EntityId> heap(options.k);
  for (int lane = 0; lane < lanes; ++lane) {
    model.TopKWalk(batch, lane, lanes, std::span(&heap, 1), {}, &scratch,
                   &stats);
  }
  std::vector<ScoredEntity> result;
  result.reserve(size_t(heap.size()));
  for (const auto& entry : heap.TakeSorted()) {
    result.push_back({entry.entity, entry.score});
  }
  return result;
}

}  // namespace

std::vector<ScoredEntity> PredictTails(const KgeModel& model, EntityId head,
                                       RelationId relation,
                                       const TopKOptions& options) {
  return SelectTopK(model, QuerySide::kTail, head, relation, options);
}

std::vector<ScoredEntity> PredictHeads(const KgeModel& model, EntityId tail,
                                       RelationId relation,
                                       const TopKOptions& options) {
  return SelectTopK(model, QuerySide::kHead, tail, relation, options);
}

}  // namespace kge
