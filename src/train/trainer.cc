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

// StepOverShards' work for rows with ShardOfRow(block, row, num_parts)
// == part.
KGE_HOT_NOALLOC
void StepPartition(std::span<const GradientBuffer* const> sources,
                   const KgeModel& model, Optimizer* optimizer,
                   bool unit_norm_entities, size_t part, size_t num_parts) {
  // Grows once per thread to the widest row.
  static thread_local std::vector<float> sum_buf;
  for (size_t s = 0; s < sources.size(); ++s) {
    sources[s]->ForEachShard(part, num_parts, [&](size_t block, int64_t row,
                                                  std::span<const float> grad) {
      for (size_t earlier = 0; earlier < s; ++earlier) {
        if (!sources[earlier]->Find(block, row).empty()) return;  // summed
      }
      // Zero, then add every source in order — exactly a merge into a
      // freshly registered master row (0 + g also turns -0 into +0).
      const std::span<float> sum = ScratchSpan(sum_buf, grad.size());
      Fill(sum, 0.0f);
      Axpy(1.0f, grad, sum);
      for (size_t later = s + 1; later < sources.size(); ++later) {
        const std::span<const float> src = sources[later]->Find(block, row);
        if (!src.empty()) Axpy(1.0f, src, sum);
      }
      const std::span<float> params = optimizer->UpdateRow(block, row, sum);
      if (unit_norm_entities && block == 0) model.NormalizeEntityRow(params);
    });
  }
}

}  // namespace

void StepOverShards(std::span<const GradientBuffer* const> sources,
                    KgeModel* model, Optimizer* optimizer,
                    bool unit_norm_entities, ThreadPool* pool) {
  optimizer->BeginStep();
  // Below ~64 source rows the fan-out costs more than the rows.
  constexpr size_t kMinRowsForParallel = 64;
  size_t rows = 0;
  for (const GradientBuffer* source : sources) rows += source->NumTouchedRows();
  const size_t parts = rows < kMinRowsForParallel ? 1 : pool->num_threads();
  const KgeModel& reader = *model;
  pool->StageFor(0, parts, [&](size_t pb, size_t pe) {
    for (size_t p = pb; p < pe; ++p) {
      StepPartition(sources, reader, optimizer, unit_norm_entities, p, parts);
    }
  });
  if (unit_norm_entities) model->NormalizeAfterStep();
}

Trainer::Trainer(KgeModel* model, const TrainerOptions& options)
    : model_(model), options_(options) {
  KGE_CHECK(model_ != nullptr);
  KGE_CHECK(options_.batch_size > 0 && options_.num_negatives >= 0);
  KGE_CHECK(options_.num_threads >= 0 && options_.grad_shard_size >= 1);
  options_.num_threads = int(ResolveNumThreads(options_.num_threads));
  blocks_ = model_->Blocks();
  Result<std::unique_ptr<Optimizer>> optimizer =
      MakeOptimizer(options_.optimizer, blocks_, options_.learning_rate);
  KGE_CHECK_OK(optimizer.status());
  optimizer_ = std::move(*optimizer);
  // FinishBatch writes at most a model's shared weight row per block.
  finish_grads_ = std::make_unique<GradientBuffer>(blocks_);
  finish_grads_->Reserve(1);
  const size_t batch_size = size_t(options_.batch_size);
  const size_t negatives = size_t(options_.num_negatives);
  // The pool runs the pipeline stages (sampling prefetch, shard
  // gradients, the step pass); 1 thread degenerates to inline
  // execution. Shard buffers themselves are grown on first use (their
  // count depends on batch size, not thread count).
  pool_ = std::make_unique<ThreadPool>(size_t(options_.num_threads));
  sampled_.resize(kPipelineDepth);
  for (SampledBatch& buffer : sampled_) {
    buffer.negatives.reserve(batch_size * negatives);
  }
  sample_ctx_.resize(kPipelineDepth);
  sample_groups_.reserve(kPipelineDepth);
  for (size_t d = 0; d < kPipelineDepth; ++d) {
    sample_groups_.push_back(std::make_unique<ThreadPool::StageGroup>());
  }
  // Pre-size the pool's stage ring for the worst concurrent task load:
  // one compute task per shard plus kPipelineDepth batches of sample
  // tasks.
  const size_t shards_per_batch =
      (batch_size + size_t(options_.grad_shard_size) - 1) /
      size_t(options_.grad_shard_size);
  pool_->ReserveStageTasks(shards_per_batch * (kPipelineDepth + 1) + 64);
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
  // Indexed by QuerySide (kTail = 0, kHead = 1): one positive's
  // candidates on that side and their scores.
  static thread_local std::vector<EntityId> candidate_ids[2];
  static thread_local std::vector<float> candidate_scores_buf[2];
  // Per negative: (slot among its side's candidates << 1) | its side.
  static thread_local std::vector<uint32_t> negative_slot;
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
    for (std::vector<EntityId>& ids : candidate_ids) ids.clear();
    negative_slot.clear();
    // kge-hotpath: allow(reused thread_local buffers; num_negatives high-water)
    candidate_ids[0].push_back(positive.tail);
    for (const Triple& negative : negs) {
      const QuerySide side = negative.head == positive.head ? QuerySide::kTail
                                                            : QuerySide::kHead;
      std::vector<EntityId>& ids = candidate_ids[size_t(side)];
      // kge-hotpath: allow(reused thread_local buffers; num_negatives high-water)
      negative_slot.push_back((uint32_t(ids.size()) << 1) | uint32_t(side));
      // kge-hotpath: allow(reused thread_local buffers; num_negatives high-water)
      ids.push_back(AnswerOf(side, negative));
    }
    std::span<float> scores[2];
    for (const QuerySide side : {QuerySide::kTail, QuerySide::kHead}) {
      const std::vector<EntityId>& ids = candidate_ids[size_t(side)];
      scores[size_t(side)] =
          ScratchSpan(candidate_scores_buf[size_t(side)], ids.size());
      if (ids.empty()) continue;
      model_->ScoreCandidates(side, AnchorOf(side, positive),
                              positive.relation, ids, scores[size_t(side)]);
    }
    const double positive_score = double(scores[0][0]);
    auto negative_score = [&](size_t n) {
      const uint32_t slot = negative_slot[n];
      return double(scores[slot & 1u][slot >> 1]);
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
  SampledBatch& buffer = sampled_[batch_index % kPipelineDepth];
  const size_t batch_size = size_t(options_.batch_size);
  const size_t shard_size = size_t(options_.grad_shard_size);
  const size_t negatives_per_positive = size_t(options_.num_negatives);
  const size_t begin = batch_index * batch_size;
  const size_t end = std::min(order_.size(), begin + batch_size);
  const size_t shard_begin = begin + shard * shard_size;
  const size_t shard_end = std::min(end, shard_begin + shard_size);
  // Independent sampling stream per (seed, batch, shard) — the stream
  // assignment depends only on the shard structure, never on the thread
  // count or how far ahead this prefetch runs.
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
  const SampledBatch& buffer = sampled_[cur_batch_index_ % kPipelineDepth];
  const std::span<const Triple> negatives(
      buffer.negatives.data() + (begin - cur_begin_) * negatives_per_positive,
      (end - begin) * negatives_per_positive);
  ProcessRange(*epoch_triples_, order_, begin, end, negatives,
               shard_grads_[shard].get(), &shard_loss_[shard],
               &shard_examples_[shard]);
}

void Trainer::SampleTrampoline(void* ctx, size_t begin, size_t end) {
  auto* sample = static_cast<SampleCtx*>(ctx);
  Stopwatch watch;
  for (size_t s = begin; s < end; ++s) {
    sample->trainer->SampleShard(sample->batch_index, s);
  }
  sample->trainer->clock_.Add(StageClock::kSample, watch.ElapsedSeconds());
}

void Trainer::ComputeTrampoline(void* ctx, size_t begin, size_t end) {
  auto* trainer = static_cast<Trainer*>(ctx);
  Stopwatch watch;
  for (size_t s = begin; s < end; ++s) trainer->ComputeShard(s);
  trainer->clock_.Add(StageClock::kScore, watch.ElapsedSeconds());
}

void Trainer::ScheduleSampling(size_t batch_index) {
  const size_t batch_size = size_t(options_.batch_size);
  const size_t shard_size = size_t(options_.grad_shard_size);
  const size_t begin = batch_index * batch_size;
  const size_t end = std::min(order_.size(), begin + batch_size);
  const size_t shards = (end - begin + shard_size - 1) / shard_size;
  SampledBatch& buffer = sampled_[batch_index % kPipelineDepth];
  // Within the capacity reserved at construction, so no allocation.
  buffer.negatives.resize((end - begin) * size_t(options_.num_negatives));
  SampleCtx& ctx = sample_ctx_[batch_index % kPipelineDepth];
  ctx = {this, batch_index};
  ThreadPool::StageGroup* group =
      sample_groups_[batch_index % kPipelineDepth].get();
  for (size_t s = 0; s < shards; ++s) {
    pool_->ScheduleRange(group, &Trainer::SampleTrampoline, &ctx, s, s + 1);
  }
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
  if (step_sources_.size() < max_shards + 1) {
    step_sources_.resize(max_shards + 1);
  }

  // Shard gradients run concurrently only for models whose
  // AccumulateGradients is thread-safe; the shard structure (and thus
  // every number produced) is the same either way.
  const bool concurrent_shards =
      pool_->num_threads() > 1 && model_->SupportsParallelGradients();

  double total_loss = 0.0;
  size_t total_examples = 0;

  // Pipeline prologue: prefetch the first kPipelineDepth batches'
  // negatives.
  for (size_t b = 0; b < std::min(kPipelineDepth, num_batches); ++b) {
    ScheduleSampling(b);
  }

  for (size_t batch = 0; batch < num_batches; ++batch) {
    pool_->WaitStage(sample_groups_[batch % kPipelineDepth].get());
    cur_batch_index_ = batch;
    cur_begin_ = batch * batch_size;
    cur_end_ = std::min(n, cur_begin_ + batch_size);
    const size_t shards =
        (cur_end_ - cur_begin_ + shard_size - 1) / shard_size;
    model_->BeginBatch();
    if (concurrent_shards) {
      for (size_t s = 0; s < shards; ++s) {
        pool_->ScheduleRange(&compute_group_, &Trainer::ComputeTrampoline,
                             this, s, s + 1);
      }
      pool_->WaitStage(&compute_group_);
    } else {
      Stopwatch watch;
      for (size_t s = 0; s < shards; ++s) ComputeShard(s);
      clock_.Add(StageClock::kScore, watch.ElapsedSeconds());
    }
    // This batch's sample buffer is free again: refill it with the batch
    // kPipelineDepth ahead while the step runs.
    if (batch + kPipelineDepth < num_batches) {
      ScheduleSampling(batch + kPipelineDepth);
    }

    for (size_t s = 0; s < shards; ++s) {
      total_loss += shard_loss_[s];
      total_examples += shard_examples_[s];
      step_sources_[s] = shard_grads_[s].get();
    }
    finish_grads_->Clear();
    total_loss += model_->FinishBatch(finish_grads_.get());
    step_sources_[shards] = finish_grads_.get();
    {
      Stopwatch watch;
      StepOverShards(std::span<const GradientBuffer* const>(
                         step_sources_.data(), shards + 1),
                     model_, optimizer_.get(), options_.unit_norm_entities,
                     pool_.get());
      clock_.Add(StageClock::kStep, watch.ElapsedSeconds());
    }
  }
  epoch_triples_ = nullptr;
  epoch_sampler_ = nullptr;
  clock_.Add(StageClock::kWall, epoch_watch.ElapsedSeconds());
  return total_examples == 0 ? 0.0 : total_loss / double(total_examples);
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
