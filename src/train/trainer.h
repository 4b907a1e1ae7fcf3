// Trainer: the full §4/§5.3 training loop — shuffled mini-batches,
// negative sampling, logistic loss, L2 regularization, an optimizer over
// the model's parameter blocks, the unit-norm entity constraint, and
// periodic validation with early stopping (restoring the best
// checkpoint).
//
// The epoch inner loop is a software pipeline (DESIGN.md §5f): while
// batch N's shards are scored, batch N+1's negatives are sampled into
// double-buffered per-batch sample buffers by otherwise idle pool
// workers. Sampling is the only stage that reads no model parameters
// (each shard draws from an independent DeriveStreamSeed(seed, batch,
// shard) stream), so the overlap is bit-identical to the unpipelined
// loop by construction — the thread count can never change losses or
// final parameters. A batch's tail is one fork-join (StepOverShards):
// each worker sums its rows' shard gradients in shard order, applies the
// optimizer's row update and the unit-norm constraint, one row at a
// time.
#ifndef KGE_TRAIN_TRAINER_H_
#define KGE_TRAIN_TRAINER_H_

#include <functional>
#include <span>
#include <string>
#include <vector>

#include "kg/negative_sampler.h"
#include "kg/triple.h"
#include "models/kge_model.h"
#include "optim/optimizer.h"
#include "train/train_loop.h"
#include "util/hotpath.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace kge {

enum class LossKind {
  // Negative log-likelihood / logistic loss of Eq. (15)/(16) — the
  // paper's objective.
  kLogistic,
  // Margin ranking loss over (positive, negative) pairs — the
  // translation family's native objective (Bordes et al.).
  kMarginRanking,
};

// True worst-case distinct gradient rows per block for `positives`
// examples with `negatives` corruptions each: head + tail rows per
// positive and one fresh corrupted entity per negative. Used to
// pre-Reserve every shard GradientBuffer (Reserve caps it at each
// block's row count) so the steady state — at any thread count —
// performs zero heap allocations.
constexpr size_t WorstCaseGradRows(size_t positives, size_t negatives) {
  return positives * (2 + negatives);
}

struct TrainerOptions {
  int max_epochs = 500;
  int batch_size = 512;
  LossKind loss = LossKind::kLogistic;
  // Margin γ for LossKind::kMarginRanking.
  double margin = 1.0;
  int num_negatives = 1;  // negatives per positive (paper: 1)
  // When true, each negative example's loss (and gradient) is scaled by
  // 1/num_negatives so that the positive:negative gradient mass stays
  // balanced as num_negatives grows. Eq. (15) sums unscaled; this option
  // is the standard variant that lets many negatives help rather than
  // drown the positives at a fixed epoch budget.
  bool normalize_negatives = false;
  // Self-adversarial negative weighting (Sun et al., RotatE): with
  // num_negatives > 1, weight each negative's loss by
  // softmax(alpha * score) across the positive's negatives, focusing
  // gradient on the hardest (highest-scoring) corruptions. Overrides
  // normalize_negatives (the softmax weights already sum to 1).
  bool self_adversarial = false;
  double adversarial_temperature = 1.0;
  std::string optimizer = "adam";
  double learning_rate = 1e-3;
  // L2 regularization strength λ of Eq. (16); 0 disables.
  double l2_lambda = 0.0;
  // Unit L2-norm constraint on entity embedding vectors after each
  // iteration (paper §5.3).
  bool unit_norm_entities = true;
  // Corruption-side policy for negative sampling.
  CorruptionSide corruption_side = CorruptionSide::kUniform;
  // Validation cadence and patience, in epochs (paper: 50 / 100).
  int eval_every_epochs = 50;
  int patience_epochs = 100;
  // Restore the best-validation parameters at the end of training.
  bool restore_best = true;
  uint64_t seed = 1234;
  // Log progress every N epochs (0 = silent).
  int log_every_epochs = 0;
  // Worker threads; 0 auto-detects std::thread::hardware_concurrency()
  // (ResolveNumThreads). Every batch is split into fixed virtual shards
  // of `grad_shard_size` positives, each with an independent seed-derived
  // sampling stream and its own gradient buffer; each row's shard
  // gradients are summed in shard order and applied with a
  // per-row-independent update.
  // Threads only decide how many shards run concurrently, so epoch
  // losses and final parameters are bit-identical for every num_threads.
  // Models whose AccumulateGradients is not thread-safe
  // (KgeModel::SupportsParallelGradients) compute their shards serially
  // but keep the same shard structure and results.
  int num_threads = 1;
  // Positives per virtual gradient shard. Part of the numerics: changing
  // it regroups the sampling streams (results stay deterministic for any
  // thread count, but differ across shard sizes).
  int grad_shard_size = 64;
  // Durable checkpointing + exact resume (off unless `dir` is set) and
  // non-finite-loss rollback; see train/train_checkpoint.h.
  CheckpointingOptions checkpointing;
  DivergenceGuardOptions divergence;
};

// TrainResult and ValidationFn live in train/train_loop.h (the epoch
// loop shared with OneVsAllTrainer).

// One optimizer step over a batch whose gradients are spread over
// `sources` — the shard buffers in shard order, then the buffer
// FinishBatch wrote — as one fork-join on `pool`. Rows are partitioned
// by GradientBuffer::ShardOfRow; a partition visits each of its rows
// once, at the first source holding it, and there
//   * sums the row over `sources` in order into a zeroed scratch row:
//     the adds, in the order, of a shard-order merge into a master
//     buffer;
//   * applies optimizer->UpdateRow (after one BeginStep for the batch);
//   * with `unit_norm_entities`, normalizes an entity row (block 0)
//     through model.NormalizeEntityRow while it is still in cache.
// Then, with `unit_norm_entities`, model->NormalizeAfterStep(). Each
// row's arithmetic is independent of the partition, so the result is
// bit-identical for every pool size.
KGE_HOT_NOALLOC
void StepOverShards(std::span<const GradientBuffer* const> sources,
                    KgeModel* model, Optimizer* optimizer,
                    bool unit_norm_entities, ThreadPool* pool);

class Trainer {
 public:
  // `validate` is called with the current epoch and must return the
  // validation metric (higher = better, typically filtered MRR); pass
  // nullptr to train for max_epochs without early stopping.
  using ValidationFn = ::kge::ValidationFn;

  Trainer(KgeModel* model, const TrainerOptions& options);

  // Trains on `train_triples` (entity/relation ids must be within the
  // model's ranges).
  Result<TrainResult> Train(const std::vector<Triple>& train_triples,
                            const ValidationFn& validate);

  // Runs a single epoch and returns its mean per-example loss (exposed
  // for tests and custom loops).
  double RunEpoch(const std::vector<Triple>& train_triples,
                  const NegativeSampler& sampler, Rng* rng);

  // Cumulative stage timings since construction (or the last reset);
  // see TrainStageStats for the busy-vs-wall semantics per field.
  TrainStageStats stage_stats() const { return clock_.Stats(); }
  void ResetStageStats() { clock_.Reset(); }

  // Batches whose negatives are in flight at once: batch N+1 is sampled
  // while batch N is scored and stepped. Sampling streams are keyed by
  // batch index, never by schedule, so the depth cannot change results.
  static constexpr size_t kPipelineDepth = 2;

 private:
  // One batch's presampled negatives: `num_negatives` triples per
  // positive, contiguous in batch order. kPipelineDepth buffers rotate
  // so sampling for batch N+kPipelineDepth can fill the buffer batch N
  // just consumed.
  struct SampledBatch {
    std::vector<Triple> negatives;
  };
  // Context records handed to the pool's POD stage queue; member storage
  // (not stack) because prefetch tasks outlive the scheduling frame.
  struct SampleCtx {
    Trainer* trainer;
    size_t batch_index;
  };

  static void SampleTrampoline(void* ctx, size_t begin, size_t end);
  static void ComputeTrampoline(void* ctx, size_t begin, size_t end);

  // Pipeline stage roots (KGE_HOT_NOALLOC: steady state may not
  // allocate; scripts/hotpath_check.py audits their call graphs).
  //
  // Sample stage: draws the negatives for `batch_index`'s shard `shard`
  // from its own Rng(DeriveStreamSeed(seed, batch, shard)) stream into
  // the batch's rotating buffer. Parameter-independent, so it may run
  // arbitrarily far ahead of scoring.
  KGE_HOT_NOALLOC
  void SampleShard(size_t batch_index, size_t shard);
  // Score stage: clears shard state and accumulates the shard's loss
  // gradients from the presampled negatives of the current batch.
  KGE_HOT_NOALLOC
  void ComputeShard(size_t shard);

  // Resizes + schedules the sample-stage tasks for `batch_index` into
  // its buffer's completion group.
  void ScheduleSampling(size_t batch_index);

  // Accumulates loss gradients (and L2) for order[begin..end) into
  // `grads`; adds to *loss and *examples. `negatives` holds
  // num_negatives presampled corruptions per positive, indexed relative
  // to `begin`; each positive is scored together with its negatives
  // through the model's batched scoring API (at most two fold+GEMV calls
  // per positive). Thread-compatible: touches only the given buffer and
  // per-thread scratch.
  KGE_HOT_NOALLOC
  void ProcessRange(const std::vector<Triple>& train_triples,
                    const std::vector<size_t>& order, size_t begin,
                    size_t end, std::span<const Triple> negatives,
                    GradientBuffer* grads, double* loss,
                    size_t* examples) const;

  KgeModel* model_;
  TrainerOptions options_;
  std::unique_ptr<Optimizer> optimizer_;
  // The rows FinishBatch writes (a model's batch-level gradients): the
  // step's last source after the shard buffers.
  std::unique_ptr<GradientBuffer> finish_grads_;
  // Worker pool for the pipeline stages and the step pass. Always
  // constructed; 1 thread means "run inline".
  std::unique_ptr<ThreadPool> pool_;
  // Per-virtual-shard state, grown to the epoch high-water shard count.
  std::vector<std::unique_ptr<GradientBuffer>> shard_grads_;
  std::vector<double> shard_loss_;
  std::vector<size_t> shard_examples_;
  // The current batch's step sources: shard buffers, then finish_grads_.
  std::vector<const GradientBuffer*> step_sources_;
  uint64_t batch_counter_ = 0;
  // Epoch-level scratch reused across epochs (zero steady-state allocs).
  std::vector<size_t> order_;
  std::vector<ParameterBlock*> blocks_;

  // ---- Pipeline state ----
  std::vector<SampledBatch> sampled_;  // kPipelineDepth rotating buffers
  std::vector<std::unique_ptr<ThreadPool::StageGroup>> sample_groups_;
  std::vector<SampleCtx> sample_ctx_;
  ThreadPool::StageGroup compute_group_;
  // Current-epoch context for stage tasks (set in RunEpoch, constant
  // while any task is in flight).
  const std::vector<Triple>* epoch_triples_ = nullptr;
  const NegativeSampler* epoch_sampler_ = nullptr;
  uint64_t epoch_base_counter_ = 0;
  // Current-batch window for ComputeShard (set before compute tasks are
  // scheduled, constant until their WaitStage).
  size_t cur_batch_index_ = 0;
  size_t cur_begin_ = 0;
  size_t cur_end_ = 0;

  StageClock clock_;
};

}  // namespace kge

#endif  // KGE_TRAIN_TRAINER_H_
