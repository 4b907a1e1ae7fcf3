// 1-N ("KvsAll") training for multi-embedding interaction models — the
// regime ConvE introduced and modern trilinear implementations adopt:
// instead of sampling negatives, each training query (h, ?, r) is scored
// against EVERY entity at once and trained with multi-label binary
// cross-entropy, where the positive labels are all tails known in the
// training set.
//
// This exploits the fold structure of Eq. (8): per query the scores are
// one fold (O(|ω|·D)) plus N dot products, and the full gradient is
//   dL/ds_e    = σ(s_e) − y_e
//   dL/dt_e    = (σ(s_e) − y_e) · fold            (every entity row!)
//   dL/dfold   = Σ_e (σ(s_e) − y_e) · t_e
//   dL/dh, dL/dr = the transposed folds of dL/dfold.
//
// Head queries are covered by training on inverse-augmented triples
// (kg/augmentation.h), as ConvE does with reciprocal relations.
//
// A batch is two fork-join stages (DESIGN.md §5f), the way Trainer takes
// its step: a score stage per query chunk (fold + cache-blocked
// multi-query scores + per-query gradients + the head/relation
// fold-back), then one step pass per entity chunk that sums each entity
// row in batch order into a scratch row and updates it in the same
// visit; the few relation rows follow serially. Every per-row sum runs
// in fixed batch order, so losses and parameters are bit-identical for
// every thread count.
#ifndef KGE_TRAIN_ONE_VS_ALL_H_
#define KGE_TRAIN_ONE_VS_ALL_H_

#include <utility>
#include <vector>

#include "models/trilinear_models.h"
#include "optim/optimizer.h"
#include "train/trainer.h"
#include "util/hotpath.h"
#include "util/status.h"

namespace kge {

struct OneVsAllOptions {
  int max_epochs = 200;
  // Queries (distinct (h, r) pairs) per optimizer step.
  int batch_queries = 128;
  std::string optimizer = "adam";
  double learning_rate = 1e-3;
  // ConvE-style label smoothing: y := y(1 − ls) + ls/N.
  double label_smoothing = 0.0;
  int eval_every_epochs = 20;
  int patience_epochs = 60;
  bool restore_best = true;
  uint64_t seed = 1234;
  // Worker threads; 0 auto-detects std::thread::hardware_concurrency()
  // (ResolveNumThreads). Queries fan out across the pool (folds +
  // batched scores), then entity rows do; every per-row sum runs in
  // fixed batch order, so losses and parameters are bit-identical for
  // every num_threads.
  int num_threads = 1;
  // Durable checkpointing + exact resume (off unless `dir` is set) and
  // non-finite-loss rollback; see train/train_checkpoint.h.
  CheckpointingOptions checkpointing;
  DivergenceGuardOptions divergence;
};

class OneVsAllTrainer {
 public:
  using ValidationFn = ::kge::ValidationFn;

  OneVsAllTrainer(MultiEmbeddingModel* model, const OneVsAllOptions& options);

  // Trains on the tail queries of `train_triples` (augment with inverses
  // beforehand to cover head queries).
  Result<TrainResult> Train(const std::vector<Triple>& train_triples,
                            const ValidationFn& validate);

  // One pass over all queries; returns mean per-query loss.
  double RunEpoch(Rng* rng);

  // Cumulative stage timings since construction (or the last reset);
  // score = fused fold+score+grad+fold-back, apply = the step pass.
  TrainStageStats stage_stats() const { return clock_.Stats(); }
  void ResetStageStats() { clock_.Reset(); }

 private:
  struct Query {
    EntityId head;
    RelationId relation;
    std::vector<EntityId> tails;
  };

  void BuildQueries(const std::vector<Triple>& train_triples);

  // The post-scoring half of a query: `g` holds the query's scores on
  // entry and its dL/ds values on exit; accumulates dL/dfold. Returns
  // the query's BCE loss.
  KGE_HOT_NOALLOC
  double ComputeQueryGrad(const Query& query, std::span<float> g,
                          std::span<float> dfold);

  // Stage roots over the current batch (cur_begin_/cur_count_), each
  // writing only its chunk's disjoint slices:
  //
  // Score stage: folds queries [qb, qe), scores them against the whole
  // entity table with one cache-blocked DotBatchMulti (per-cell scores
  // equal float(Dot(fold, row)) by the simd contract, so the chunking is
  // invisible to the numerics), ComputeQueryGrad each, and folds each
  // dL/dfold back into the query's head and relation gradient rows.
  KGE_HOT_NOALLOC
  void ScoreChunk(size_t qb, size_t qe);
  // Step stage for entities [eb, ee): row e sums g_i[e] · fold_i for
  // every query i with g_i[e] != 0, then the head fold of every query
  // whose head is e, both in batch order, into a zeroed scratch row and
  // hands it to Optimizer::UpdateRow — only when something was added.
  KGE_HOT_NOALLOC
  void StepEntityChunk(size_t eb, size_t ee);

  MultiEmbeddingModel* model_;
  OneVsAllOptions options_;
  std::vector<Query> queries_;
  std::unique_ptr<Optimizer> optimizer_;
  // Always constructed; 1 thread means "run inline".
  std::unique_ptr<ThreadPool> pool_;
  // Batch-level scratch, reused every batch (zero steady-state allocs):
  // per-query fold / dfold / per-entity dL/ds matrices, per-query loss
  // and head/relation fold-back rows, the batch's (head, batch index)
  // and (relation, batch index) pairs sorted by row, and the relation
  // step's sum row.
  std::vector<size_t> order_;
  std::vector<float> folds_;
  std::vector<float> dfolds_;
  std::vector<float> g_;
  std::vector<double> query_loss_;
  std::vector<float> head_folds_;
  std::vector<float> relation_folds_;
  std::vector<std::pair<EntityId, size_t>> head_rows_;
  std::vector<std::pair<RelationId, size_t>> relation_rows_;
  std::vector<float> relation_sum_;
  // Current-batch window for the stage roots (set before the stages are
  // scheduled, constant until their joins).
  size_t cur_begin_ = 0;
  size_t cur_count_ = 0;

  StageClock clock_;
};

}  // namespace kge

#endif  // KGE_TRAIN_ONE_VS_ALL_H_
