#include "train/trainer.h"

#include <algorithm>
#include <utility>

#include "math/activations.h"
#include "math/vec_ops.h"
#include "optim/constraints.h"
#include "train/loss.h"
#include "util/check.h"
#include "util/scratch.h"
#include "util/timer.h"

namespace kge {

namespace {
// Indices into Trainer::stage_nanos_.
constexpr int kStageSample = 0;
constexpr int kStageScore = 1;
constexpr int kStageMerge = 2;
constexpr int kStageApply = 3;
}  // namespace

Trainer::Trainer(KgeModel* model, const TrainerOptions& options)
    : model_(model), options_(options) {
  KGE_CHECK(model_ != nullptr);
  KGE_CHECK(options_.batch_size > 0 && options_.num_negatives >= 0);
  KGE_CHECK(options_.num_threads >= 0 && options_.grad_shard_size >= 1);
  KGE_CHECK(options_.pipeline_depth >= 1 && options_.pipeline_depth <= 8);
  options_.num_threads = int(ResolveNumThreads(options_.num_threads));
  blocks_ = model_->Blocks();
  Result<std::unique_ptr<Optimizer>> optimizer =
      MakeOptimizer(options_.optimizer, blocks_, options_.learning_rate);
  KGE_CHECK_OK(optimizer.status());
  optimizer_ = std::move(*optimizer);
  grads_ = std::make_unique<GradientBuffer>(blocks_);
  // Reserving the true worst case up front makes the steady state
  // allocation-free from the first batch — at every thread count.
  const size_t batch_size = size_t(options_.batch_size);
  const size_t negatives = size_t(options_.num_negatives);
  grads_->Reserve(WorstCaseGradRows(batch_size, negatives));
  // The pool runs the pipeline stages (sampling prefetch, shard
  // gradients, merge, optimizer apply); 1 thread degenerates to inline
  // execution. Shard buffers themselves are grown on first use (their
  // count depends on batch size, not thread count).
  pool_ = std::make_unique<ThreadPool>(size_t(options_.num_threads));
  depth_ = size_t(options_.pipeline_depth);
  sampled_.resize(depth_);
  for (SampledBatch& buffer : sampled_) {
    buffer.negatives.reserve(batch_size * negatives);
  }
  sample_ctx_.resize(depth_);
  sample_groups_.reserve(depth_);
  for (size_t d = 0; d < depth_; ++d) {
    sample_groups_.push_back(std::make_unique<ThreadPool::StageGroup>());
  }
  // Pre-size the pool's stage ring for the worst concurrent task load:
  // one compute task per shard plus `depth_` batches of sample tasks.
  const size_t shards_per_batch =
      (batch_size + size_t(options_.grad_shard_size) - 1) /
      size_t(options_.grad_shard_size);
  pool_->ReserveStageTasks(shards_per_batch * (depth_ + 1) + 64);
}

void Trainer::ProcessRange(const std::vector<Triple>& train_triples,
                           const std::vector<size_t>& order, size_t begin,
                           size_t end, std::span<const Triple> negatives,
                           GradientBuffer* grads, double* loss,
                           size_t* examples) const {
  L2Regularizer regularizer(options_.l2_lambda);
  const size_t negatives_per_positive = size_t(options_.num_negatives);
  // Per-thread scratch: each container grows to its high-water mark once
  // per thread, so the steady-state inner loop performs zero heap
  // allocations.
  static thread_local std::vector<EntityId> tail_ids;
  static thread_local std::vector<EntityId> head_ids;
  // Per negative: (group slot << 1) | (1 iff head-side).
  static thread_local std::vector<uint32_t> negative_slot;
  static thread_local std::vector<float> tail_scores_buf;
  static thread_local std::vector<float> head_scores_buf;
  static thread_local std::vector<double> adv_logits_buf;
  static thread_local std::vector<double> adv_weights_buf;
  static thread_local std::vector<std::pair<size_t, int64_t>> reg_rows;

  auto add_l2 = [&](const Triple& triple) {
    if (options_.l2_lambda <= 0.0) return;
    // Regularize exactly the parameter rows this example's score read
    // (Eq. 16's per-triple Θ). Block indices 0/1 = entity/relation by the
    // KgeModel convention.
    reg_rows.clear();
    // kge-hotpath: allow(3 slots in a reused thread_local buffer)
    reg_rows.emplace_back(0, triple.head);
    // kge-hotpath: allow(3 slots in a reused thread_local buffer)
    reg_rows.emplace_back(0, triple.tail);
    // kge-hotpath: allow(3 slots in a reused thread_local buffer)
    reg_rows.emplace_back(1, triple.relation);
    *loss += regularizer.Accumulate(grads, reg_rows);
  };
  const double negative_scale =
      options_.normalize_negatives && options_.num_negatives > 1
          ? 1.0 / double(options_.num_negatives)
          : 1.0;
  const bool adversarial =
      options_.self_adversarial && options_.num_negatives > 1;

  for (size_t i = begin; i < end; ++i) {
    const Triple& positive = train_triples[order[i]];
    // The presampled corruptions for this positive, then the positive
    // and every negative scored with at most two batched calls:
    // tail-side corruptions share the positive's (h, r) fold, head-side
    // corruptions its (t, r) fold. The positive rides along as tail
    // candidate 0.
    const std::span<const Triple> negs = negatives.subspan(
        (i - begin) * negatives_per_positive, negatives_per_positive);
    tail_ids.clear();
    head_ids.clear();
    negative_slot.clear();
    // kge-hotpath: allow(reused thread_local buffers; num_negatives high-water)
    tail_ids.push_back(positive.tail);
    for (const Triple& negative : negs) {
      if (negative.head == positive.head) {
        // kge-hotpath: allow(reused thread_local buffers; num_negatives high-water)
        negative_slot.push_back(uint32_t(tail_ids.size()) << 1);
        // kge-hotpath: allow(reused thread_local buffers; num_negatives high-water)
        tail_ids.push_back(negative.tail);
      } else {
        // kge-hotpath: allow(reused thread_local buffers; num_negatives high-water)
        negative_slot.push_back((uint32_t(head_ids.size()) << 1) | 1u);
        // kge-hotpath: allow(reused thread_local buffers; num_negatives high-water)
        head_ids.push_back(negative.head);
      }
    }
    const std::span<float> tail_scores =
        ScratchSpan(tail_scores_buf, tail_ids.size());
    model_->ScoreTailBatch(positive.head, positive.relation, tail_ids,
                           tail_scores);
    const std::span<float> head_scores =
        ScratchSpan(head_scores_buf, head_ids.size());
    if (!head_ids.empty()) {
      model_->ScoreHeadBatch(positive.tail, positive.relation, head_ids,
                             head_scores);
    }
    const double positive_score = double(tail_scores[0]);
    auto negative_score = [&](size_t n) {
      const uint32_t slot = negative_slot[n];
      return double((slot & 1u) ? head_scores[slot >> 1]
                                : tail_scores[slot >> 1]);
    };

    if (options_.loss == LossKind::kLogistic) {
      *loss += LogisticLoss(positive_score, 1.0);
      model_->AccumulateGradients(
          positive,
          static_cast<float>(LogisticLossGradient(positive_score, 1.0)),
          grads);
      add_l2(positive);
      ++*examples;
      const std::span<double> adv_weights =
          ScratchSpan(adv_weights_buf, negs.size());
      if (adversarial) {
        // Weight the negatives by softmax(alpha * score): hard (highly
        // scored) corruptions dominate the gradient. The weights reuse
        // the batched scores — no second scoring pass.
        const std::span<double> adv_logits =
            ScratchSpan(adv_logits_buf, negs.size());
        for (size_t n = 0; n < negs.size(); ++n) {
          adv_logits[n] = options_.adversarial_temperature * negative_score(n);
        }
        Softmax(adv_logits, adv_weights);
      }
      for (size_t n = 0; n < negs.size(); ++n) {
        // Adversarial weights are treated as constants (no gradient
        // through the softmax), as in the original formulation.
        const double scale = adversarial ? adv_weights[n] : negative_scale;
        const double score = negative_score(n);
        *loss += scale * LogisticLoss(score, -1.0);
        model_->AccumulateGradients(
            negs[n], static_cast<float>(scale * LogisticLossGradient(score, -1.0)),
            grads);
        add_l2(negs[n]);
        ++*examples;
      }
    } else {
      // Margin ranking: one hinge per (positive, negative) pair.
      for (size_t n = 0; n < negs.size(); ++n) {
        const double score = negative_score(n);
        *loss += MarginRankingLoss(positive_score, score, options_.margin);
        ++*examples;
        if (MarginIsViolated(positive_score, score, options_.margin)) {
          model_->AccumulateGradients(positive, -1.0f, grads);
          model_->AccumulateGradients(negs[n], 1.0f, grads);
        }
        add_l2(negs[n]);
      }
      add_l2(positive);
    }
  }
}

void Trainer::SampleShard(size_t batch_index, size_t shard) {
  SampledBatch& buffer = sampled_[batch_index % depth_];
  const size_t batch_size = size_t(options_.batch_size);
  const size_t shard_size = size_t(options_.grad_shard_size);
  const size_t negatives_per_positive = size_t(options_.num_negatives);
  const size_t begin = batch_index * batch_size;
  const size_t end = std::min(order_.size(), begin + batch_size);
  const size_t shard_begin = begin + shard * shard_size;
  const size_t shard_end = std::min(end, shard_begin + shard_size);
  // Independent sampling stream per (seed, batch, shard) — the stream
  // assignment depends only on the shard structure, never on the thread
  // count, the pipeline depth, or how far ahead this prefetch runs.
  Rng rng(DeriveStreamSeed(options_.seed,
                           epoch_base_counter_ + batch_index + 1, shard));
  // Thread-local staging keeps SampleMany appends off the shared buffer;
  // grows to shard_size * num_negatives once per thread.
  static thread_local std::vector<Triple> scratch;
  scratch.clear();
  for (size_t i = shard_begin; i < shard_end; ++i) {
    // SampleMany appends exactly num_negatives corruptions per positive.
    epoch_sampler_->SampleMany((*epoch_triples_)[order_[i]],
                               options_.num_negatives, &rng, &scratch);
  }
  std::copy(scratch.begin(), scratch.end(),
            buffer.negatives.begin() +
                std::ptrdiff_t((shard_begin - begin) *
                               negatives_per_positive));
}

void Trainer::ComputeShard(size_t shard) {
  const size_t shard_size = size_t(options_.grad_shard_size);
  const size_t negatives_per_positive = size_t(options_.num_negatives);
  const size_t begin = cur_begin_ + shard * shard_size;
  const size_t end = std::min(cur_end_, begin + shard_size);
  shard_grads_[shard]->Clear();
  shard_loss_[shard] = 0.0;
  shard_examples_[shard] = 0;
  const SampledBatch& buffer = sampled_[cur_batch_index_ % depth_];
  const std::span<const Triple> negatives(
      buffer.negatives.data() + (begin - cur_begin_) * negatives_per_positive,
      (end - begin) * negatives_per_positive);
  ProcessRange(*epoch_triples_, order_, begin, end, negatives,
               shard_grads_[shard].get(), &shard_loss_[shard],
               &shard_examples_[shard]);
}

void Trainer::MergeOneShard(size_t shard) {
  shard_grads_[shard]->ForEach(
      [&](size_t block, int64_t row, std::span<const float> src) {
        // GradFor registers the row on first touch (zero-filled), so the
        // streaming merge needs no separate registration pass.
        Axpy(1.0f, src, grads_->GradFor(block, row));
      });
}

void Trainer::StreamingMergeShard(size_t shard) {
  {
    MutexLock lock(merge_mutex_);
    merge_queue_[merge_queue_size_++] = shard;
    if (merge_active_) return;  // The active merger will drain this too.
    merge_active_ = true;
  }
  // This task now owns grads_ exclusively; drain until the queue is
  // empty. The mutex hand-off orders every merge after the previous one,
  // so the accumulator is never written concurrently (race-free) — only
  // the shard summation ORDER depends on completion timing, which is
  // exactly the documented deterministic=false trade.
  for (;;) {
    size_t next;
    {
      MutexLock lock(merge_mutex_);
      if (merge_cursor_ == merge_queue_size_) {
        merge_active_ = false;
        return;
      }
      next = merge_queue_[merge_cursor_++];
    }
    MergeOneShard(next);
  }
}

void Trainer::SampleTrampoline(void* ctx, size_t begin, size_t end) {
  auto* sample = static_cast<SampleCtx*>(ctx);
  Stopwatch watch;
  for (size_t s = begin; s < end; ++s) {
    sample->trainer->SampleShard(sample->batch_index, s);
  }
  sample->trainer->AddStageNanos(kStageSample, watch.ElapsedSeconds());
}

void Trainer::ComputeTrampoline(void* ctx, size_t begin, size_t end) {
  auto* trainer = static_cast<Trainer*>(ctx);
  for (size_t s = begin; s < end; ++s) {
    {
      Stopwatch watch;
      trainer->ComputeShard(s);
      trainer->AddStageNanos(kStageScore, watch.ElapsedSeconds());
    }
    if (trainer->streaming_merge_) {
      Stopwatch watch;
      trainer->StreamingMergeShard(s);
      trainer->AddStageNanos(kStageMerge, watch.ElapsedSeconds());
    }
  }
}

void Trainer::ScheduleSampling(size_t batch_index) {
  const size_t batch_size = size_t(options_.batch_size);
  const size_t shard_size = size_t(options_.grad_shard_size);
  const size_t begin = batch_index * batch_size;
  const size_t end = std::min(order_.size(), begin + batch_size);
  const size_t shards = (end - begin + shard_size - 1) / shard_size;
  SampledBatch& buffer = sampled_[batch_index % depth_];
  // Within the capacity reserved at construction, so no allocation.
  buffer.negatives.resize((end - begin) * size_t(options_.num_negatives));
  SampleCtx& ctx = sample_ctx_[batch_index % depth_];
  ctx = {this, batch_index};
  ThreadPool::StageGroup* group = sample_groups_[batch_index % depth_].get();
  for (size_t s = 0; s < shards; ++s) {
    pool_->ScheduleRange(group, &Trainer::SampleTrampoline, &ctx, s, s + 1);
  }
}

void Trainer::MergeShardGradients(size_t num_shards) {
  // Register the union of touched rows serially (GradFor may insert, and
  // inserts are not concurrent-safe); visiting shard 0's rows first makes
  // the registration order independent of the thread count.
  for (size_t s = 0; s < num_shards; ++s) {
    shard_grads_[s]->ForEach(
        [&](size_t block, int64_t row, std::span<const float>) {
          grads_->GradFor(block, row);
        });
  }
  // Accumulate each row over the shard buffers in shard order — the
  // summation order per row never depends on which thread merges it.
  auto merge_row = [this, num_shards](size_t block, int64_t row,
                                      std::span<float> acc) {
    for (size_t s = 0; s < num_shards; ++s) {
      const std::span<const float> src = shard_grads_[s]->Find(block, row);
      if (!src.empty()) Axpy(1.0f, src, acc);
    }
  };
  constexpr size_t kMinRowsForParallel = 64;
  const size_t workers = pool_->num_threads();
  if (workers == 1 || grads_->NumTouchedRows() < kMinRowsForParallel) {
    grads_->ForEachShardMut(0, 1, merge_row);
    return;
  }
  pool_->StageFor(0, workers, [this, workers, &merge_row](size_t mb,
                                                          size_t me) {
    for (size_t m = mb; m < me; ++m) {
      grads_->ForEachShardMut(m, workers, merge_row);
    }
  });
}

double Trainer::RunEpoch(const std::vector<Triple>& train_triples,
                         const NegativeSampler& sampler, Rng* rng) {
  Stopwatch epoch_watch;
  order_.resize(train_triples.size());
  for (size_t i = 0; i < order_.size(); ++i) order_[i] = i;
  rng->Shuffle(&order_);

  epoch_triples_ = &train_triples;
  epoch_sampler_ = &sampler;
  epoch_base_counter_ = batch_counter_;

  const size_t batch_size = size_t(options_.batch_size);
  const size_t shard_size = size_t(options_.grad_shard_size);
  const size_t n = order_.size();
  const size_t num_batches = (n + batch_size - 1) / batch_size;
  // The whole epoch's sampling streams are numbered up front (stream of
  // batch b = epoch_base_counter_ + b + 1), matching the unpipelined
  // per-batch increment exactly — which is what lets prefetch sampling
  // run ahead without changing any draw.
  batch_counter_ += num_batches;

  // Grow per-shard state to the epoch high-water mark now so the batch
  // loop never allocates.
  const size_t max_per_batch = std::min(batch_size, n);
  const size_t max_shards =
      n == 0 ? 0 : (max_per_batch + shard_size - 1) / shard_size;
  while (shard_grads_.size() < max_shards) {
    shard_grads_.push_back(std::make_unique<GradientBuffer>(blocks_));
    shard_grads_.back()->Reserve(
        WorstCaseGradRows(shard_size, size_t(options_.num_negatives)));
  }
  if (shard_loss_.size() < max_shards) {
    shard_loss_.resize(max_shards);
    shard_examples_.resize(max_shards);
  }
  {
    MutexLock lock(merge_mutex_);
    if (merge_queue_.size() < max_shards) merge_queue_.resize(max_shards);
  }

  // Shard gradients run concurrently only for models whose
  // AccumulateGradients is thread-safe; the shard structure (and thus
  // every number produced) is the same either way.
  const bool concurrent_shards =
      pool_->num_threads() > 1 && model_->SupportsParallelGradients();

  double total_loss = 0.0;
  size_t total_examples = 0;

  // Pipeline prologue: prefetch the first `depth_` batches' negatives.
  for (size_t b = 0; b < std::min(depth_, num_batches); ++b) {
    ScheduleSampling(b);
  }

  for (size_t batch = 0; batch < num_batches; ++batch) {
    pool_->WaitStage(sample_groups_[batch % depth_].get());
    cur_batch_index_ = batch;
    cur_begin_ = batch * batch_size;
    cur_end_ = std::min(n, cur_begin_ + batch_size);
    const size_t shards =
        (cur_end_ - cur_begin_ + shard_size - 1) / shard_size;
    grads_->Clear();
    model_->BeginBatch();
    streaming_merge_ = !options_.deterministic && concurrent_shards;
    if (streaming_merge_) {
      MutexLock lock(merge_mutex_);
      merge_queue_size_ = 0;
      merge_cursor_ = 0;
      merge_active_ = false;
    }
    if (concurrent_shards) {
      for (size_t s = 0; s < shards; ++s) {
        pool_->ScheduleRange(&compute_group_, &Trainer::ComputeTrampoline,
                             this, s, s + 1);
      }
      pool_->WaitStage(&compute_group_);
    } else {
      Stopwatch watch;
      for (size_t s = 0; s < shards; ++s) ComputeShard(s);
      AddStageNanos(kStageScore, watch.ElapsedSeconds());
    }
    // This batch's sample buffer is free again: refill it with the batch
    // `depth_` ahead while the merge/apply tail runs. (With depth 1 the
    // prefetch still overlaps sampling with merge + apply.)
    if (batch + depth_ < num_batches) ScheduleSampling(batch + depth_);

    if (!streaming_merge_) {
      Stopwatch watch;
      MergeShardGradients(shards);
      AddStageNanos(kStageMerge, watch.ElapsedSeconds());
    }
    for (size_t s = 0; s < shards; ++s) {
      total_loss += shard_loss_[s];
      total_examples += shard_examples_[s];
    }

    total_loss += model_->FinishBatch(grads_.get());
    {
      Stopwatch watch;
      optimizer_->Apply(*grads_, pool_.get());
      if (options_.unit_norm_entities) {
        CollectTouchedRows(*grads_, 0, &touched_entities_);
        model_->NormalizeEntities(touched_entities_);
      }
      AddStageNanos(kStageApply, watch.ElapsedSeconds());
    }
  }
  epoch_triples_ = nullptr;
  epoch_sampler_ = nullptr;
  wall_nanos_.fetch_add(int64_t(epoch_watch.ElapsedSeconds() * 1e9),
                        std::memory_order_relaxed);
  return total_examples == 0 ? 0.0 : total_loss / double(total_examples);
}

TrainStageStats Trainer::stage_stats() const {
  TrainStageStats stats;
  stats.sample_seconds =
      double(stage_nanos_[kStageSample].load(std::memory_order_relaxed)) *
      1e-9;
  stats.score_seconds =
      double(stage_nanos_[kStageScore].load(std::memory_order_relaxed)) *
      1e-9;
  stats.merge_seconds =
      double(stage_nanos_[kStageMerge].load(std::memory_order_relaxed)) *
      1e-9;
  stats.apply_seconds =
      double(stage_nanos_[kStageApply].load(std::memory_order_relaxed)) *
      1e-9;
  stats.wall_seconds =
      double(wall_nanos_.load(std::memory_order_relaxed)) * 1e-9;
  return stats;
}

void Trainer::ResetStageStats() {
  for (std::atomic<int64_t>& nanos : stage_nanos_) {
    nanos.store(0, std::memory_order_relaxed);
  }
  wall_nanos_.store(0, std::memory_order_relaxed);
}

Result<TrainResult> Trainer::Train(const std::vector<Triple>& train_triples,
                                   const ValidationFn& validate) {
  if (train_triples.empty())
    return Status::InvalidArgument("empty training set");

  NegativeSamplerOptions sampler_options;
  sampler_options.side = options_.corruption_side;
  NegativeSampler sampler(model_->num_entities(), model_->num_relations(),
                          train_triples, sampler_options);

  TrainLoopConfig config;
  config.trainer_kind = "negative_sampling";
  config.max_epochs = options_.max_epochs;
  config.eval_every_epochs = options_.eval_every_epochs;
  config.patience_epochs = options_.patience_epochs;
  config.restore_best = options_.restore_best;
  config.seed = options_.seed;
  config.log_every_epochs = options_.log_every_epochs;
  config.log_name = model_->name();
  config.log_throughput_items = int64_t(train_triples.size());
  config.checkpointing = options_.checkpointing;
  config.divergence = options_.divergence;

  TrainLoop loop(model_, optimizer_.get(), config);
  // batch_counter_ both seeds the per-shard sampling streams and is
  // checkpointed/restored by the loop, so a resumed run draws exactly
  // the streams the uninterrupted run would have.
  return loop.Run(
      [&](Rng* rng) { return RunEpoch(train_triples, sampler, rng); },
      validate, &batch_counter_);
}

}  // namespace kge
