// KgeModel: the abstract interface every knowledge graph embedding model
// implements (§2.1's three-component architecture: embedding lookup +
// interaction mechanism + prediction). The trainer and evaluator are
// written against this interface only.
//
// Training protocol per mini-batch:
//   model->BeginBatch();
//   for each (triple, dscore): model->AccumulateGradients(...);
//   loss += model->FinishBatch(&grads);
//   optimizer->Apply(grads);
//   model->NormalizeEntities(touched_entities);
#ifndef KGE_MODELS_KGE_MODEL_H_
#define KGE_MODELS_KGE_MODEL_H_

#include <atomic>
#include <cstddef>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/parameter_block.h"
#include "core/scoring_replica.h"
#include "core/topk_heap.h"
#include "kg/triple.h"
#include "util/hotpath.h"

namespace kge {

// Counters reported by the ranking scans (DESIGN.md §5h): how many
// (query, bound tile) pairs a scan covered and how many it proved
// sub-threshold and skipped without touching their rows. Exhaustive
// fallbacks count each query's whole range as one unskipped tile.
struct RankScanStats {
  uint64_t tiles_total = 0;
  uint64_t tiles_skipped = 0;
};

// Start of shard s when [0, n) is split into `shards` contiguous
// near-equal ranges: shard s covers
// [ShardBegin(n, shards, s), ShardBegin(n, shards, s + 1)). Computed in
// 64-bit so n·shards never overflows, monotone in s, and exactly
// partitioning — the sharded rank counts rely on every id landing in
// exactly one shard.
constexpr EntityId ShardBegin(EntityId n, int shards, int s) {
  return EntityId((int64_t(n) * int64_t(s)) / int64_t(shards));
}

// A lane's claim counter for walks whose lanes run concurrently: the
// index, in the lane's own tile sequence, of its next unclaimed tile.
// One cache line each, so lanes claiming their own tiles never share a
// line.
struct alignas(64) TopKLaneClaim {
  std::atomic<size_t> next{0};
};

// One batch of top-k queries sharing (side, relation), as
// KgeModel::TopKWalk consumes it.
struct TopKWalkBatch {
  QuerySide side = QuerySide::kTail;
  RelationId relation = 0;
  // The known entity of each query (the head for kTail, the tail for
  // kHead).
  std::span<const EntityId> anchors;
  // anchors.size() × FoldWidth() floats from FoldQueries, folded once
  // for all lanes; empty when the model cannot fold.
  std::span<const float> folds;
  // Empty, or one sorted-ascending list of ids to leave out per query.
  std::span<const std::span<const EntityId>> excluded;
  ScorePrecision precision = ScorePrecision::kDouble;
  // Skip (query, tile) pairs whose score bound cannot enter the query's
  // heap. Needs PrepareForPrunedScoring(precision) first.
  bool prune = false;
  // Empty, or one zeroed claim counter per lane, shared by lanes that
  // run concurrently: each tile is then walked by whichever lane claims
  // it first (see TopKWalk).
  std::span<TopKLaneClaim> lane_claims;
};

// Working memory of one TopKWalk lane, owned by the caller and reused
// across calls. The walk only grows it, and always for at least
// `min_queries` queries, so a caller that sets min_queries to its
// largest batch makes every walk after the first allocation-free,
// whichever thread runs the lane.
struct TopKWalkScratch {
  size_t min_queries = 0;
  std::vector<float> folds;    // folds of the live queries of a tile
  std::vector<float> scores;   // live queries × tile rows
  std::vector<double> norms;   // per query: ‖fold‖₂ · kPruneBoundSlack
  std::vector<size_t> live;    // queries the current tile is scored for
  std::vector<size_t> cursor;  // per query: next excluded id to pass
};

class KgeModel {
 public:
  virtual ~KgeModel() = default;

  virtual const std::string& name() const = 0;
  virtual int32_t num_entities() const = 0;
  virtual int32_t num_relations() const = 0;

  // Matching score S(h, t, r); higher = more likely valid.
  virtual double Score(const Triple& triple) const = 0;

  // Scores (h, t', r) for every candidate tail t' in [0, num_entities);
  // `out` has num_entities floats. Must be thread-safe for concurrent
  // calls (used by the parallel evaluator).
  KGE_HOT_NOALLOC
  virtual void ScoreAllTails(EntityId head, RelationId relation,
                             std::span<float> out) const = 0;
  // Scores (h', t, r) for every candidate head h'.
  KGE_HOT_NOALLOC
  virtual void ScoreAllHeads(EntityId tail, RelationId relation,
                             std::span<float> out) const = 0;

  // Batched full-vocabulary scoring: for each query q, scores
  // (heads[q], t', r) for every candidate tail t' into the row-major
  // heads.size() × num_entities matrix `out` (row q = query q's scores).
  // Row q is element-for-element identical to ScoreAllTails(heads[q], r)
  // — batching is a scheduling contract, never a numeric one. The base
  // implementation loops ScoreAllTails per query (correct for every
  // model); the trilinear family overrides it to fold all B contexts
  // into one scratch matrix and run a single cache-blocked multi-query
  // kernel (simd::DotBatchMulti), which loads each entity row once per
  // batch instead of once per query. Must be thread-safe for concurrent
  // calls (used by the batched parallel evaluator and the 1-vs-All
  // trainer).
  KGE_HOT_NOALLOC
  virtual void ScoreAllTailsBatch(std::span<const EntityId> heads,
                                  RelationId relation,
                                  std::span<float> out) const;
  // Batched head-side twin: row q scores (h', tails[q], r) for every h'.
  KGE_HOT_NOALLOC
  virtual void ScoreAllHeadsBatch(std::span<const EntityId> tails,
                                  RelationId relation,
                                  std::span<float> out) const;

  // Precision-tiered batched scoring (EvalOptions::score_precision):
  // the same contract as the 3-argument overloads with candidate scores
  // computed at `precision` — kDouble is exact, kFloat32 accumulates in
  // float over the master table, kInt8 reads a quantized scoring
  // replica (see core/scoring_replica.h and math/simd.h's precision-tier
  // contract). The base implementation supports kDouble only (and
  // KGE_CHECK-fails otherwise — callers gate on SupportsScorePrecision);
  // models that maintain replicas override all four. Non-double tiers
  // require a PrepareForScoring(precision) call before concurrent use.
  KGE_HOT_NOALLOC
  virtual void ScoreAllTailsBatch(std::span<const EntityId> heads,
                                  RelationId relation, std::span<float> out,
                                  ScorePrecision precision) const;
  KGE_HOT_NOALLOC
  virtual void ScoreAllHeadsBatch(std::span<const EntityId> tails,
                                  RelationId relation, std::span<float> out,
                                  ScorePrecision precision) const;

  // True when the model can score full-vocabulary batches at
  // `precision`. Every model supports kDouble; only models with scoring
  // replicas (the trilinear family) report the reduced tiers.
  virtual bool SupportsScorePrecision(ScorePrecision precision) const {
    return precision == ScorePrecision::kDouble;
  }

  // Rebuilds any scoring replica `precision` needs if it is stale
  // against the master parameters — free at pure-eval time, one
  // requantization pass after training steps. Must be called from one
  // thread with no concurrent scoring; `const` because replicas are
  // derived caches, not model state. No-op by default and for kDouble.
  virtual void PrepareForScoring(ScorePrecision precision) const {
    (void)precision;
  }

  // PrepareForScoring plus a rebuild of the per-tile score bounds the
  // pruned range scans read (ScoringReplica::EnsureBoundsFresh). Models
  // without tile bounds just forward to PrepareForScoring — their
  // exhaustive range-scan fallbacks need no bounds. Same threading
  // contract as PrepareForScoring: one thread, no concurrent scoring.
  virtual void PrepareForPrunedScoring(ScorePrecision precision) const {
    PrepareForScoring(precision);
  }

  // ---- Rank counts (evaluator path, §5h) -----------------------------------
  //
  // These scans restrict rank counting to the candidate range
  // [begin, end) of the entity table. Scores are the exact float values
  // the batched kernels produce at `precision` (the per-cell numerics
  // contract of math/simd.h), so restricting the range is pure
  // scheduling: counts summed over any shard partition of
  // [0, num_entities) equal the single-range counts bit-for-bit. When
  // `prune` is set, models with precomputed tile bounds (the trilinear
  // family, via ScoringReplica) skip tiles whose Cauchy–Schwarz upper
  // bound proves every score in them is below the threshold — exact,
  // never approximate. The base implementations are exhaustive (score
  // the full vocabulary into thread-local scratch, then walk the range)
  // and report the range as one unskipped tile. Both must be thread-safe
  // for concurrent calls; non-double tiers require PrepareForScoring
  // first.

  // Counts candidate tails t' in [begin, end) with score strictly above
  // (*better) resp. equal to (*equal) `threshold`, skipping ids in
  // `excluded` (sorted ascending) and `also_skip` (pass kNoSkipEntity
  // for none; an also_skip id that also appears in `excluded` is skipped
  // once). Adds to *better/*equal and to `stats`.
  KGE_HOT_NOALLOC
  virtual void CountTailsAbove(EntityId head, RelationId relation,
                               float threshold, EntityId begin, EntityId end,
                               std::span<const EntityId> excluded,
                               EntityId also_skip, ScorePrecision precision,
                               bool prune, uint64_t* better, uint64_t* equal,
                               RankScanStats* stats) const;
  // Head-side twin: counts candidate heads h' for (h', tail, relation).
  KGE_HOT_NOALLOC
  virtual void CountHeadsAbove(EntityId tail, RelationId relation,
                               float threshold, EntityId begin, EntityId end,
                               std::span<const EntityId> excluded,
                               EntityId also_skip, ScorePrecision precision,
                               bool prune, uint64_t* better, uint64_t* equal,
                               RankScanStats* stats) const;

  // Sentinel for CountTailsAbove/CountHeadsAbove's also_skip.
  static constexpr EntityId kNoSkipEntity = EntityId(-1);

  // The float score of the single cell (head, tail) exactly as the
  // batched kernels produce it at `precision` — the rank threshold of
  // the pruned evaluator. (float(Score(triple)) is NOT the same value
  // for reduced tiers, and can differ in the last bit even at kDouble
  // for models whose ScoreAll* path reassociates.)
  KGE_HOT_NOALLOC
  virtual float ScoreOneTail(EntityId head, EntityId tail,
                             RelationId relation,
                             ScorePrecision precision) const;
  KGE_HOT_NOALLOC
  virtual float ScoreOneHead(EntityId head, EntityId tail,
                             RelationId relation,
                             ScorePrecision precision) const;

  // ---- Top-k walk (serving and PredictTails/PredictHeads path, §5h) --------

  // Length of the folded query vector each candidate row is dotted
  // with; 0 for models that cannot fold (distance-based and nonlinear
  // scorers), whose TopKWalk scores exhaustively instead.
  virtual size_t FoldWidth() const { return 0; }

  // Writes the fold of (anchors[q], relation) on `side` into row q of
  // `folds` (anchors.size() × FoldWidth() floats). No-op by default.
  KGE_HOT_NOALLOC
  virtual void FoldQueries(QuerySide side, RelationId relation,
                           std::span<const EntityId> anchors,
                           std::span<float> folds) const;

  // Lane `lane` of `num_lanes` of the multi-query top-k walk: offers
  // query q's candidates to heaps[q] (armed by the caller with that
  // query's k) for every entity-table tile t with
  // t % num_lanes == lane, skipping batch.excluded[q]. Each tile is
  // scored once for all the queries it is kept for. With batch.prune a
  // (query, tile) pair is skipped when the tile's Cauchy–Schwarz bound
  // is strictly below the query's heap minimum — never on equality,
  // since an equal score can still win on the smaller id. Striding
  // deals the high-norm head of a frequency-sorted table to every lane,
  // so each lane's heap fills early and prunes on its own. Merging each
  // query's lane heaps (TopKHeap::MergeFrom), or passing the same heaps
  // to lanes run one after another, yields exactly the exhaustive top-k
  // at every lane count. With batch.lane_claims a lane claims its tiles
  // one at a time and, once its own run out, claims the unwalked tiles
  // of the lanes after it, so a lane whose thread starts late or runs
  // slow cannot hold up the batch; any split of the tiles among the
  // heaps gives the same merged top-k. Counts each (query, tile) pair
  // into `stats`. The base implementation scores every query
  // exhaustively on lane 0. Thread-safe for concurrent calls with
  // distinct heaps and scratch.
  KGE_HOT_NOALLOC
  virtual void TopKWalk(const TopKWalkBatch& batch, int lane, int num_lanes,
                        std::span<TopKHeap<float, EntityId>> heaps,
                        TopKWalkScratch* scratch, RankScanStats* stats) const;

  // Scores (h, t', r) for each candidate tail t' in `tails`;
  // out[i] = float(Score({h, tails[i], r})). The base implementation
  // loops over Score; models with a fold decomposition override this to
  // fold the (h, r) context once and score all candidates with a single
  // batched matrix-vector product. Must be thread-safe for concurrent
  // calls (used by the parallel trainer shards).
  KGE_HOT_NOALLOC
  virtual void ScoreTailBatch(EntityId head, RelationId relation,
                              std::span<const EntityId> tails,
                              std::span<float> out) const;
  // Scores (h', t, r) for each candidate head h' in `heads`.
  KGE_HOT_NOALLOC
  virtual void ScoreHeadBatch(EntityId tail, RelationId relation,
                              std::span<const EntityId> heads,
                              std::span<float> out) const;

  // Parameter blocks in a fixed order; the index of a block in this
  // vector is its block index in GradientBuffer.
  virtual std::vector<ParameterBlock*> Blocks() = 0;

  // Const view of the same blocks, for serialization and analysis code
  // that only reads parameters (e.g. SaveModelCheckpoint).
  std::vector<const ParameterBlock*> Blocks() const;

  // Hook called before gradient accumulation of each batch.
  virtual void BeginBatch() {}

  // Accumulates dL/dparams for one triple given upstream dscore = dL/dS.
  KGE_HOT_NOALLOC
  virtual void AccumulateGradients(const Triple& triple, float dscore,
                                   GradientBuffer* grads) = 0;

  // Hook called after all triples of a batch; flushes any batch-level
  // gradients (e.g. the learned-ω chain rule) and returns any extra
  // regularization loss incurred this batch.
  virtual double FinishBatch(GradientBuffer* grads) {
    (void)grads;
    return 0.0;
  }

  // Applies the paper's unit-norm constraint to the given entities.
  virtual void NormalizeEntities(std::span<const EntityId> entities) = 0;

  // True when AccumulateGradients only reads model parameters and writes
  // the given GradientBuffer (no shared mutable state), allowing the
  // trainer to compute a batch's gradients concurrently into per-shard
  // buffers. Models with batch-level internal accumulators (e.g. the
  // learned-ω model) must return false.
  virtual bool SupportsParallelGradients() const { return true; }

  // Deterministic (re-)initialization of all parameters. Constructors
  // take the seed as std::optional<uint64_t> and run this with it;
  // std::nullopt skips it, leaving every block zero and untouched for a
  // caller that loads every parameter next (a serving snapshot).
  virtual void InitParameters(uint64_t seed) = 0;

  // Called by the checkpoint loaders once every block holds loaded
  // values: recomputes state derived from the blocks (the learned-ω
  // model's ω = f(ρ)), so a loaded model scores like the saved one.
  virtual void OnParametersLoaded() {}

  int64_t NumParameters() const;
};

}  // namespace kge

#endif  // KGE_MODELS_KGE_MODEL_H_
