// Top-k link prediction — the serving-side API: given a partial triple
// (h, ?, r) or (?, t, r), return the k best completions, optionally
// excluding already-known triples (the "new facts only" mode a
// recommender or completion UI wants).
//
// Both predictors run the model's multi-query top-k walk
// (KgeModel::TopKWalk) for a batch of one — the same walk the online
// serving layer in src/serve/ runs per batch — and select with
// `TopKHeap` (core/topk_heap.h). Ordering is deterministic: higher score
// first, ties broken by smaller id.
#ifndef KGE_EVAL_TOPK_H_
#define KGE_EVAL_TOPK_H_

#include <vector>

#include "core/topk_heap.h"
#include "kg/filter_index.h"
#include "models/kge_model.h"

namespace kge {

struct ScoredEntity {
  EntityId entity = 0;
  float score = 0.0f;
};

struct TopKOptions {
  int k = 10;
  // When non-null, entities forming known triples with the query are
  // excluded from the results.
  const FilterIndex* exclude_known = nullptr;
  // Walk lanes: lane s ranks the entity-table tiles s, s + n, s + 2n, …
  // (values < 1 are treated as 1). The lanes run one after another here,
  // as the serving layer's parallel lanes would; the result is exactly
  // lane-count invariant.
  int num_shards = 1;
  // Skip score tiles whose Cauchy–Schwarz upper bound cannot beat the
  // heap's minimum. Exact: bounds are conservative, never
  // approximate. Effective for models that fold (the trilinear family);
  // others fall back to the exhaustive scan.
  bool prune = false;
};

// Completions for (head, ?, relation), best first. Ties broken by entity
// id for determinism.
std::vector<ScoredEntity> PredictTails(const KgeModel& model, EntityId head,
                                       RelationId relation,
                                       const TopKOptions& options);

// Completions for (?, tail, relation).
std::vector<ScoredEntity> PredictHeads(const KgeModel& model, EntityId tail,
                                       RelationId relation,
                                       const TopKOptions& options);

}  // namespace kge

#endif  // KGE_EVAL_TOPK_H_
