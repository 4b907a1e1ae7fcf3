// KgeModel: the abstract interface every knowledge graph embedding model
// implements (§2.1's three-component architecture: embedding lookup +
// interaction mechanism + prediction). The trainer and evaluator are
// written against this interface only.
//
// Training protocol per mini-batch:
//   model->BeginBatch();
//   for each (triple, dscore): model->AccumulateGradients(...);
//   loss += model->FinishBatch(&grads);
//   optimizer step; with the unit-norm constraint on, each updated
//   entity row through NormalizeEntityRow, then NormalizeAfterStep().
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

// Counters reported by the tile walk (DESIGN.md §5h): how many
// (query, bound tile) pairs a walk covered and how many it proved
// irrelevant and skipped without touching their rows. The exhaustive
// fallback counts each query's whole table as one tile.
struct RankScanStats {
  uint64_t tiles_total = 0;
  uint64_t tiles_skipped = 0;
};

// The rank sink of KgeModel::TopKWalk: how many of one query's
// candidates score strictly above (better) or exactly at (equal) its
// true entity, the truth itself and the query's excluded ids left out.
// The filtered protocol's tie-averaged rank is 1 + better + equal / 2.
struct RankCounts {
  uint64_t better = 0;
  uint64_t equal = 0;
};

// A lane's claim counter for walks whose lanes run concurrently: the
// index, in the lane's own tile sequence, of its next unclaimed tile.
// One cache line each, so lanes claiming their own tiles never share a
// line.
struct alignas(64) TopKLaneClaim {
  std::atomic<size_t> next{0};
};

// One batch of queries sharing (side, relation), as KgeModel::TopKWalk
// consumes it.
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
  // Empty for the top-k sink; for the rank sink, the true entity of each
  // query, whose score the query's candidates are counted against.
  std::span<const EntityId> truths;
  ScorePrecision precision = ScorePrecision::kDouble;
  // Skip (query, tile) pairs whose score bound proves they cannot change
  // the query's sink. Needs PrepareForPrunedScoring(precision) first.
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
  std::vector<float> folds;       // folds of the live queries of a tile
  std::vector<float> scores;      // live queries × tile rows
  std::vector<double> norms;      // per query: ‖fold‖₂ · kPruneBoundSlack
  std::vector<float> thresholds;  // per query: its truth's score (rank)
  std::vector<size_t> live;       // queries the current tile is scored for
  std::vector<size_t> cursor;     // per query: next excluded id to pass
};

class KgeModel {
 public:
  virtual ~KgeModel() = default;

  virtual const std::string& name() const = 0;
  virtual int32_t num_entities() const = 0;
  virtual int32_t num_relations() const = 0;

  // Matching score S(h, t, r); higher = more likely valid.
  virtual double Score(const Triple& triple) const = 0;

  // Scores the `side` query with known entity `anchor` against every
  // candidate e in [0, num_entities): out[e] scores
  // QueryTriple(side, anchor, relation, e), so kTail scores (h, e, r)
  // and kHead scores (e, t, r). `out` has num_entities floats. Must be
  // thread-safe for concurrent calls (the walk's exhaustive fallback
  // runs on evaluator threads).
  KGE_HOT_NOALLOC
  virtual void ScoreAll(QuerySide side, EntityId anchor, RelationId relation,
                        std::span<float> out) const = 0;

  // True when the model's walk can score at `precision`. Every model
  // supports kDouble; only models with scoring replicas (the trilinear
  // family) report the reduced tiers.
  virtual bool SupportsScorePrecision(ScorePrecision precision) const {
    return precision == ScorePrecision::kDouble;
  }

  // Rebuilds any scoring replica `precision` needs if it is stale
  // against the master parameters — free at pure-eval time, one
  // requantization pass after training steps. Must be called from one
  // thread with no concurrent scoring of this model; the rebuild itself
  // runs across `pool` when one is given (the serving lane pool, the
  // evaluator's pool) and inline otherwise, with identical results.
  // `const` because replicas are derived caches, not model state. No-op
  // by default and for kDouble.
  virtual void PrepareForScoring(ScorePrecision precision,
                                 ThreadPool* pool = nullptr) const {
    (void)precision;
    (void)pool;
  }

  // PrepareForScoring plus a rebuild of the per-tile score bounds the
  // pruned walk reads (ScoringReplica::EnsureBoundsFresh). Models
  // without tile bounds just forward to PrepareForScoring — their
  // exhaustive fallback needs no bounds. Same threading contract as
  // PrepareForScoring.
  virtual void PrepareForPrunedScoring(ScorePrecision precision,
                                       ThreadPool* pool = nullptr) const {
    PrepareForScoring(precision, pool);
  }

  // ---- The tile walk: top-k (serving, PredictTails/PredictHeads) and
  // rank counts (Evaluate), §5h ------------------------------------------

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

  // Lane `lane` of `num_lanes` of the multi-query walk: scores every
  // entity-table tile t with t % num_lanes == lane once for all the
  // queries it is kept for, and hands query q's candidates, minus
  // batch.excluded[q], to one of two sinks:
  //   * top-k (batch.truths empty): offers them to heaps[q], armed by
  //     the caller with that query's k; `counts` is empty. With
  //     batch.prune a (query, tile) pair is skipped when the tile's
  //     Cauchy–Schwarz bound is strictly below the query's heap minimum
  //     — never on equality, since an equal score can still win on the
  //     smaller id. Merging each query's lane heaps
  //     (TopKHeap::MergeFrom), or passing the same heaps to lanes run
  //     one after another, yields exactly the exhaustive top-k.
  //   * rank (batch.truths set): adds to counts[q] the candidates other
  //     than truths[q] scoring strictly above or exactly at the truth's
  //     own score, which the walk takes from the truth's row through
  //     the same tier kernel; `heaps` is empty. With batch.prune a pair
  //     is skipped when the bound is strictly below that score, so a
  //     skipped tile holds no better or equal candidate. Counts summed
  //     over the lanes are the exhaustive counts.
  // Striding deals the high-norm head of a frequency-sorted table to
  // every lane, so each lane prunes on its own. With batch.lane_claims
  // a lane claims its tiles one at a time and, once its own run out,
  // claims the unwalked tiles of the lanes after it, so a lane whose
  // thread starts late or runs slow cannot hold up the batch; any split
  // of the tiles among the lanes gives the same merged result. Counts
  // each (query, tile) pair into `stats`. The base implementation
  // scores every query exhaustively on lane 0 at kDouble. Thread-safe
  // for concurrent calls with distinct sinks and scratch.
  KGE_HOT_NOALLOC
  virtual void TopKWalk(const TopKWalkBatch& batch, int lane, int num_lanes,
                        std::span<TopKHeap<float, EntityId>> heaps,
                        std::span<RankCounts> counts,
                        TopKWalkScratch* scratch, RankScanStats* stats) const;

  // Scores the `side` query with known entity `anchor` against each id
  // of `candidates` into out[i]. The base implementation loops over
  // Score: out[i] = float(Score(QueryTriple(side, anchor, relation,
  // candidates[i]))). Models with a fold decomposition override this to
  // fold the (anchor, relation) context once and score all candidates
  // with a single batched matrix-vector product, so out[i] equals the
  // ScoreAll cell of candidates[i]. Must be thread-safe for concurrent
  // calls (used by the parallel trainer shards).
  KGE_HOT_NOALLOC
  virtual void ScoreCandidates(QuerySide side, EntityId anchor,
                               RelationId relation,
                               std::span<const EntityId> candidates,
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

  // ---- The unit-norm entity constraint (§5.3) ----------------------------
  // Every embedding vector of an entity is kept at unit L2 norm: an
  // entity row (block 0) holds row_dim / EntityVectorDim() vectors.

  // Length of one entity embedding vector.
  virtual int32_t EntityVectorDim() const = 0;

  // Scales each EntityVectorDim()-long vector of `row`, one entity row,
  // to unit L2 norm (an all-zero vector stays zero). Reads and writes
  // only `row`, so the trainer's step pass normalizes each row right
  // after its update, concurrently across rows.
  KGE_HOT_NOALLOC
  void NormalizeEntityRow(std::span<float> row) const;

  // The rest of the constraint, once per step after the entity rows: a
  // no-op except for models with further unit-norm parameters (TransH's
  // hyperplane normals).
  KGE_HOT_NOALLOC
  virtual void NormalizeAfterStep() {}

  // The whole constraint for one step that updated `entities`:
  // NormalizeEntityRow on each of their rows, then NormalizeAfterStep.
  void NormalizeEntities(std::span<const EntityId> entities);

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

 protected:
  // Adds to *counts the candidates among rows
  // [row0, row0 + scores.size()) (scores[i] is row row0 + i's score)
  // scoring strictly above or exactly at `threshold`, leaving out
  // `truth` and the ids of `excluded` (sorted ascending) in that range.
  // *cursor is the caller's position in `excluded`; it only moves
  // forward, so a caller counting ascending ranges passes the same
  // cursor to each. The rank sink's step for one (query, tile) pair of
  // a TopKWalk, and for the whole table in the exhaustive fallback.
  KGE_HOT_NOALLOC
  static void CountRankTile(std::span<const float> scores, size_t row0,
                            float threshold, EntityId truth,
                            std::span<const EntityId> excluded,
                            size_t* cursor, RankCounts* counts);
};

}  // namespace kge

#endif  // KGE_MODELS_KGE_MODEL_H_
