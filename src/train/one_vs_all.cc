#include "train/one_vs_all.h"

#include <algorithm>
#include <atomic>
#include <unordered_map>

#include "core/interaction.h"
#include "math/activations.h"
#include "math/vec_ops.h"
#include "util/check.h"
#include "util/timer.h"

namespace kge {

namespace {
// Indices into OneVsAllTrainer::stage_nanos_.
constexpr int kStageSample = 0;  // overlapped touched-flag clears
constexpr int kStageScore = 1;
constexpr int kStageMerge = 2;
constexpr int kStageApply = 3;
}  // namespace

OneVsAllTrainer::OneVsAllTrainer(MultiEmbeddingModel* model,
                                 const OneVsAllOptions& options)
    : model_(model), options_(options) {
  KGE_CHECK(model_ != nullptr);
  KGE_CHECK(options_.batch_queries > 0);
  KGE_CHECK(options_.num_threads >= 0);
  KGE_CHECK(options_.pipeline_depth >= 1 && options_.pipeline_depth <= 8);
  options_.num_threads = int(ResolveNumThreads(options_.num_threads));
  blocks_ = model_->Blocks();
  Result<std::unique_ptr<Optimizer>> optimizer =
      MakeOptimizer(options_.optimizer, blocks_, options_.learning_rate);
  KGE_CHECK_OK(optimizer.status());
  optimizer_ = std::move(*optimizer);
  grads_ = std::make_unique<GradientBuffer>(blocks_);
  // Worst case per batch and block: every entity as a candidate plus one
  // head and one relation row per query.
  grads_->Reserve(size_t(model_->num_entities()) +
                  size_t(options_.batch_queries));
  pool_ = std::make_unique<ThreadPool>(size_t(options_.num_threads));
  // The dense 1-N gradient has no parameter-independent stage to run
  // ahead, so depth only buys the overlapped flag clear (and only when
  // there are idle workers to run it).
  overlap_clear_ = options_.pipeline_depth > 1 && pool_->num_threads() > 1;
  pool_->ReserveStageTasks(pool_->num_threads() * 4 + 8);
}

void OneVsAllTrainer::BuildQueries(
    const std::vector<Triple>& train_triples) {
  std::unordered_map<uint64_t, size_t> index_of;
  queries_.clear();
  for (const Triple& t : train_triples) {
    const uint64_t key =
        (uint64_t(uint32_t(t.head)) << 32) | uint32_t(t.relation);
    auto [it, inserted] = index_of.try_emplace(key, queries_.size());
    if (inserted) {
      queries_.push_back({t.head, t.relation, {}});
    }
    queries_[it->second].tails.push_back(t.tail);
  }
  for (Query& q : queries_) {
    std::sort(q.tails.begin(), q.tails.end());
    q.tails.erase(std::unique(q.tails.begin(), q.tails.end()),
                  q.tails.end());
  }
}

double OneVsAllTrainer::ScoreQuery(const Query& query, std::span<float> fold,
                                   std::span<float> g,
                                   std::span<float> dfold) {
  const WeightTable& weights = model_->weights();
  const int32_t dim = model_->dim();
  const EmbeddingStore& entities = model_->entity_store();
  const EmbeddingStore& relations = model_->relation_store();
  const auto h = entities.Of(query.head);
  const auto r = relations.Of(query.relation);

  FoldForTail(weights, dim, h, r, fold);
  // Score every entity in one blocked GEMV. By the DotBatch contract each
  // score is exactly float(Dot(fold, t_e)) — bitwise what the per-entity
  // loop computed.
  DotBatch(fold, entities.block().Flat(), g);
  return ComputeQueryGrad(query, g, dfold);
}

double OneVsAllTrainer::ComputeQueryGrad(const Query& query,
                                         std::span<float> g,
                                         std::span<float> dfold) {
  const int32_t num_entities = model_->num_entities();
  const EmbeddingStore& entities = model_->entity_store();

  // Labels with optional smoothing.
  const double ls = options_.label_smoothing;
  const double negative_label = ls / double(num_entities);
  const double positive_label = 1.0 - ls + negative_label;

  std::fill(dfold.begin(), dfold.end(), 0.0f);
  double loss = 0.0;
  size_t tail_cursor = 0;
  for (int32_t e = 0; e < num_entities; ++e) {
    while (tail_cursor < query.tails.size() && query.tails[tail_cursor] < e) {
      ++tail_cursor;
    }
    const bool is_positive =
        tail_cursor < query.tails.size() && query.tails[tail_cursor] == e;
    const double label = is_positive ? positive_label : negative_label;
    const double s = double(g[size_t(e)]);
    // Stable BCE-with-logits: softplus(s) − y·s.
    loss += Softplus(s) - label * s;
    // The score slot becomes the upstream gradient dL/ds_e.
    const float ge = static_cast<float>(Sigmoid(s) - label);
    g[size_t(e)] = ge;
    if (ge == 0.0f) continue;
    // Concurrent queries may flag the same entity; relaxed stores of the
    // same value commute, so the flag array is deterministic.
    std::atomic_ref<uint8_t>(touched_data_[size_t(e)])
        .store(1, std::memory_order_relaxed);
    // dL/dfold += g * t_e.
    Axpy(ge, entities.Of(e), dfold);
  }
  return loss;
}

void OneVsAllTrainer::ScoreChunk(size_t qb, size_t qe) {
  if (qb == qe) return;
  const WeightTable& weights = model_->weights();
  const int32_t dim = model_->dim();
  const EmbeddingStore& entities = model_->entity_store();
  const EmbeddingStore& relations = model_->relation_store();
  const size_t width = size_t(weights.ne()) * size_t(dim);
  const size_t num_entities = size_t(model_->num_entities());
  if (options_.batched_scoring) {
    // Fold every (h, r) context of the chunk, score them together with
    // one cache-blocked multi-query product over the entity table, then
    // turn scores into per-query gradients. Fusing the three passes per
    // chunk (instead of three barriers per batch) costs one join.
    for (size_t i = qb; i < qe; ++i) {
      const Query& query = queries_[order_[cur_begin_ + i]];
      FoldForTail(weights, dim, entities.Of(query.head),
                  relations.Of(query.relation),
                  std::span<float>(folds_.data() + i * width, width));
    }
    DotBatchMulti(
        std::span<const float>(folds_.data() + qb * width,
                               (qe - qb) * width),
        qe - qb, entities.block().Flat(),
        std::span<float>(g_.data() + qb * num_entities,
                         (qe - qb) * num_entities));
    for (size_t i = qb; i < qe; ++i) {
      query_loss_[i] = ComputeQueryGrad(
          queries_[order_[cur_begin_ + i]],
          std::span<float>(g_.data() + i * num_entities, num_entities),
          std::span<float>(dfolds_.data() + i * width, width));
    }
  } else {
    for (size_t i = qb; i < qe; ++i) {
      query_loss_[i] = ScoreQuery(
          queries_[order_[cur_begin_ + i]],
          std::span<float>(folds_.data() + i * width, width),
          std::span<float>(g_.data() + i * num_entities, num_entities),
          std::span<float>(dfolds_.data() + i * width, width));
    }
  }
}

void OneVsAllTrainer::AccumulateEntityChunk(size_t eb, size_t ee) {
  const size_t width =
      size_t(model_->weights().ne()) * size_t(model_->dim());
  const size_t num_entities = size_t(model_->num_entities());
  for (size_t e = eb; e < ee; ++e) {
    if (!touched_data_[e]) continue;
    std::span<float> acc =
        grads_->GradFor(MultiEmbeddingModel::kEntityBlock, int64_t(e));
    for (size_t i = 0; i < cur_count_; ++i) {
      const float ge = g_[i * num_entities + e];
      if (ge == 0.0f) continue;
      Axpy(ge, std::span<const float>(folds_.data() + i * width, width),
           acc);
    }
  }
}

void OneVsAllTrainer::FoldBackChunk(size_t qb, size_t qe) {
  const WeightTable& weights = model_->weights();
  const int32_t dim = model_->dim();
  const EmbeddingStore& entities = model_->entity_store();
  const EmbeddingStore& relations = model_->relation_store();
  const size_t width = size_t(weights.ne()) * size_t(dim);
  const size_t head_dim =
      size_t(blocks_[MultiEmbeddingModel::kEntityBlock]->row_dim());
  const size_t relation_dim =
      size_t(blocks_[MultiEmbeddingModel::kRelationBlock]->row_dim());
  for (size_t i = qb; i < qe; ++i) {
    const Query& query = queries_[order_[cur_begin_ + i]];
    const std::span<const float> dfold(dfolds_.data() + i * width, width);
    FoldForHead(weights, dim, dfold,
                relations.Of(query.relation),
                std::span<float>(head_folds_.data() + i * head_dim,
                                 head_dim));
    FoldForRelation(weights, dim, entities.Of(query.head), dfold,
                    std::span<float>(relation_folds_.data() +
                                         i * relation_dim,
                                     relation_dim));
  }
}

void OneVsAllTrainer::ClearTouched(size_t buffer) {
  std::fill(touched_[buffer].begin(), touched_[buffer].end(), uint8_t(0));
}

void OneVsAllTrainer::ClearTrampoline(void* ctx, size_t begin, size_t end) {
  (void)begin;
  (void)end;
  auto* clear = static_cast<ClearCtx*>(ctx);
  Stopwatch watch;
  clear->trainer->ClearTouched(clear->buffer);
  clear->trainer->AddStageNanos(kStageSample, watch.ElapsedSeconds());
}

double OneVsAllTrainer::RunEpoch(Rng* rng) {
  Stopwatch epoch_watch;
  order_.resize(queries_.size());
  for (size_t i = 0; i < order_.size(); ++i) order_[i] = i;
  rng->Shuffle(&order_);

  const size_t num_entities = size_t(model_->num_entities());
  const size_t width =
      size_t(model_->weights().ne()) * size_t(model_->dim());
  const size_t head_dim =
      size_t(blocks_[MultiEmbeddingModel::kEntityBlock]->row_dim());
  const size_t relation_dim =
      size_t(blocks_[MultiEmbeddingModel::kRelationBlock]->row_dim());

  // First-use growth of the touched-flag buffers (both stay all-zero
  // between batches: the non-overlapped path re-assigns per batch, the
  // overlapped path clears each spent buffer before its reuse and joins
  // the last clears at epoch end).
  const size_t buffers = overlap_clear_ ? 2 : 1;
  for (size_t b = 0; b < buffers; ++b) {
    if (touched_[b].size() != num_entities) {
      touched_[b].assign(num_entities, 0);
    }
  }

  double total_loss = 0.0;
  const size_t batch = size_t(options_.batch_queries);
  for (size_t batch_index = 0; batch_index * batch < order_.size();
       ++batch_index) {
    cur_begin_ = batch_index * batch;
    const size_t end = std::min(cur_begin_ + batch, order_.size());
    cur_count_ = end - cur_begin_;
    grads_->Clear();
    folds_.resize(cur_count_ * width);
    dfolds_.resize(cur_count_ * width);
    g_.resize(cur_count_ * num_entities);
    query_loss_.resize(cur_count_);
    head_folds_.resize(cur_count_ * head_dim);
    relation_folds_.resize(cur_count_ * relation_dim);

    size_t buffer = 0;
    if (overlap_clear_) {
      // The clears scheduled up to two batches ago have this buffer
      // zeroed again; join them before writing new flags.
      pool_->WaitStage(&clear_group_);
      buffer = batch_index & 1;
    } else {
      touched_[0].assign(num_entities, 0);
    }
    touched_data_ = touched_[buffer].data();

    // Stage A — independent per query: fold, batched scores, dL/ds and
    // dL/dfold. Writes only the query's own slices (plus the commuting
    // touched flags), so any partition across threads is safe and
    // bit-identical.
    {
      Stopwatch watch;
      pool_->StageFor(0, cur_count_,
                      [this](size_t qb, size_t qe) { ScoreChunk(qb, qe); });
      AddStageNanos(kStageScore, watch.ElapsedSeconds());
    }

    Stopwatch merge_watch;
    // Register every touched entity row serially, in ascending id order —
    // GradFor inserts are not concurrent-safe, and this order does not
    // depend on the thread count.
    for (size_t e = 0; e < num_entities; ++e) {
      if (touched_data_[e]) {
        grads_->GradFor(MultiEmbeddingModel::kEntityBlock, int64_t(e));
      }
    }

    // Stage B — per entity: dL/dt_e = Σ_i g_i[e] · fold_i, summed in
    // batch order for every partition.
    pool_->StageFor(0, num_entities, [this](size_t eb, size_t ee) {
      AccumulateEntityChunk(eb, ee);
    });

    // The flags are dead from here: clear the spent buffer on idle
    // workers while fold-back and apply finish the batch.
    if (overlap_clear_) {
      clear_ctx_[buffer] = {this, buffer};
      pool_->ScheduleRange(&clear_group_, &OneVsAllTrainer::ClearTrampoline,
                           &clear_ctx_[buffer], 0, 1);
    }

    // Stage C — fold each query's dL/dfold back through the transposed
    // folds in parallel (disjoint per-query rows), then accumulate into
    // the head/relation gradient rows serially: heads can repeat across
    // a batch's queries, so the Axpy order stays fixed batch order.
    pool_->StageFor(0, cur_count_, [this](size_t qb, size_t qe) {
      FoldBackChunk(qb, qe);
    });
    for (size_t i = 0; i < cur_count_; ++i) {
      const Query& query = queries_[order_[cur_begin_ + i]];
      Axpy(1.0f,
           std::span<const float>(head_folds_.data() + i * head_dim,
                                  head_dim),
           grads_->GradFor(MultiEmbeddingModel::kEntityBlock, query.head));
      Axpy(1.0f,
           std::span<const float>(relation_folds_.data() + i * relation_dim,
                                  relation_dim),
           grads_->GradFor(MultiEmbeddingModel::kRelationBlock,
                           query.relation));
      total_loss += query_loss_[i];
    }
    AddStageNanos(kStageMerge, merge_watch.ElapsedSeconds());

    {
      Stopwatch watch;
      optimizer_->Apply(*grads_, pool_.get());
      AddStageNanos(kStageApply, watch.ElapsedSeconds());
    }
  }
  if (overlap_clear_) pool_->WaitStage(&clear_group_);
  wall_nanos_.fetch_add(int64_t(epoch_watch.ElapsedSeconds() * 1e9),
                        std::memory_order_relaxed);
  return queries_.empty() ? 0.0 : total_loss / double(queries_.size());
}

TrainStageStats OneVsAllTrainer::stage_stats() const {
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

void OneVsAllTrainer::ResetStageStats() {
  for (std::atomic<int64_t>& nanos : stage_nanos_) {
    nanos.store(0, std::memory_order_relaxed);
  }
  wall_nanos_.store(0, std::memory_order_relaxed);
}

Result<TrainResult> OneVsAllTrainer::Train(
    const std::vector<Triple>& train_triples, const ValidationFn& validate) {
  if (train_triples.empty())
    return Status::InvalidArgument("empty training set");
  BuildQueries(train_triples);

  TrainLoopConfig config;
  config.trainer_kind = "one_vs_all";
  config.max_epochs = options_.max_epochs;
  config.eval_every_epochs = options_.eval_every_epochs;
  config.patience_epochs = options_.patience_epochs;
  config.restore_best = options_.restore_best;
  config.seed = options_.seed;
  config.log_name = model_->name();
  config.log_throughput_items = int64_t(queries_.size());
  config.checkpointing = options_.checkpointing;
  config.divergence = options_.divergence;

  TrainLoop loop(model_, optimizer_.get(), config);
  // No batch counter: the 1-N loop draws all randomness from the
  // epoch-level rng (query-order shuffles).
  return loop.Run([&](Rng* rng) { return RunEpoch(rng); }, validate,
                  /*batch_counter=*/nullptr);
}

}  // namespace kge
