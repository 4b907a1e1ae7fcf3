#include "train/one_vs_all.h"

#include <algorithm>
#include <unordered_map>

#include "core/interaction.h"
#include "math/activations.h"
#include "math/vec_ops.h"
#include "util/check.h"
#include "util/scratch.h"
#include "util/timer.h"

namespace kge {

OneVsAllTrainer::OneVsAllTrainer(MultiEmbeddingModel* model,
                                 const OneVsAllOptions& options)
    : model_(model), options_(options) {
  KGE_CHECK(model_ != nullptr);
  KGE_CHECK(options_.batch_queries > 0);
  KGE_CHECK(options_.num_threads >= 0);
  options_.num_threads = int(ResolveNumThreads(options_.num_threads));
  Result<std::unique_ptr<Optimizer>> optimizer = MakeOptimizer(
      options_.optimizer, model_->Blocks(), options_.learning_rate);
  KGE_CHECK_OK(optimizer.status());
  optimizer_ = std::move(*optimizer);
  pool_ = std::make_unique<ThreadPool>(size_t(options_.num_threads));
  pool_->ReserveStageTasks(pool_->MaxFanOutTasks());
  const size_t batch = size_t(options_.batch_queries);
  head_rows_.reserve(batch);
  relation_rows_.reserve(batch);
  relation_sum_.resize(size_t(model_->relation_store().block()->row_dim()));
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
  const size_t relation_dim = size_t(relations.block().row_dim());
  // Fold every (h, r) context of the chunk, score them together with one
  // cache-blocked multi-query product over the entity table, then turn
  // scores into per-query gradients and fold those back. Fusing the
  // passes per chunk (instead of a barrier each per batch) costs one
  // join.
  for (size_t i = qb; i < qe; ++i) {
    const Query& query = queries_[order_[cur_begin_ + i]];
    FoldForTail(weights, dim, entities.Of(query.head),
                relations.Of(query.relation),
                std::span<float>(folds_.data() + i * width, width));
  }
  DotBatchMulti(
      std::span<const float>(folds_.data() + qb * width, (qe - qb) * width),
      qe - qb, entities.block().Flat(),
      std::span<float>(g_.data() + qb * num_entities,
                       (qe - qb) * num_entities));
  for (size_t i = qb; i < qe; ++i) {
    const Query& query = queries_[order_[cur_begin_ + i]];
    const std::span<float> dfold(dfolds_.data() + i * width, width);
    query_loss_[i] = ComputeQueryGrad(
        query, std::span<float>(g_.data() + i * num_entities, num_entities),
        dfold);
    // The transposed folds of dL/dfold: the query's head and relation
    // gradient rows (summed into their parameter rows by the step).
    FoldForHead(weights, dim, dfold, relations.Of(query.relation),
                std::span<float>(head_folds_.data() + i * width, width));
    FoldForRelation(weights, dim, entities.Of(query.head), dfold,
                    std::span<float>(relation_folds_.data() +
                                         i * relation_dim,
                                     relation_dim));
  }
}

void OneVsAllTrainer::StepEntityChunk(size_t eb, size_t ee) {
  const size_t width =
      size_t(model_->weights().ne()) * size_t(model_->dim());
  const size_t num_entities = size_t(model_->num_entities());
  // Grows once per thread to the entity row width.
  static thread_local std::vector<float> sum_buf;
  const std::span<float> sum = ScratchSpan(sum_buf, width);
  auto head = std::lower_bound(head_rows_.begin(), head_rows_.end(),
                               std::pair<EntityId, size_t>(EntityId(eb), 0));
  for (size_t e = eb; e < ee; ++e) {
    // Zero, then add in batch order: which terms are added, and in what
    // order, is part of the numerics (0 + g also turns -0 into +0).
    bool added = false;
    const auto add = [&](float scale, const float* row) {
      if (!added) Fill(sum, 0.0f);
      added = true;
      Axpy(scale, std::span<const float>(row, width), sum);
    };
    for (size_t i = 0; i < cur_count_; ++i) {
      const float ge = g_[i * num_entities + e];
      if (ge != 0.0f) add(ge, folds_.data() + i * width);
    }
    for (; head != head_rows_.end() && size_t(head->first) == e; ++head) {
      add(1.0f, head_folds_.data() + head->second * width);
    }
    if (added) {
      optimizer_->UpdateRow(MultiEmbeddingModel::kEntityBlock, int64_t(e),
                            sum);
    }
  }
}

double OneVsAllTrainer::RunEpoch(Rng* rng) {
  Stopwatch epoch_watch;
  order_.resize(queries_.size());
  for (size_t i = 0; i < order_.size(); ++i) order_[i] = i;
  rng->Shuffle(&order_);

  const size_t num_entities = size_t(model_->num_entities());
  const size_t width =
      size_t(model_->weights().ne()) * size_t(model_->dim());
  const size_t relation_dim = relation_sum_.size();

  double total_loss = 0.0;
  const size_t batch = size_t(options_.batch_queries);
  for (size_t batch_index = 0; batch_index * batch < order_.size();
       ++batch_index) {
    cur_begin_ = batch_index * batch;
    const size_t end = std::min(cur_begin_ + batch, order_.size());
    cur_count_ = end - cur_begin_;
    folds_.resize(cur_count_ * width);
    dfolds_.resize(cur_count_ * width);
    g_.resize(cur_count_ * num_entities);
    query_loss_.resize(cur_count_);
    head_folds_.resize(cur_count_ * width);
    relation_folds_.resize(cur_count_ * relation_dim);

    // Score stage — independent per query: fold, batched scores, dL/ds,
    // dL/dfold and its fold-back. Writes only the query's own slices, so
    // any partition across threads is safe and bit-identical. It reads
    // parameters the step below has not yet written.
    {
      Stopwatch watch;
      pool_->StageFor(0, cur_count_,
                      [this](size_t qb, size_t qe) { ScoreChunk(qb, qe); });
      clock_.Add(StageClock::kScore, watch.ElapsedSeconds());
    }

    // Step pass: each entity row sums and updates in one visit on the
    // pool; then each relation row sums its folds in batch order. Sorting
    // the (row, batch index) pairs puts each row's adds in batch order.
    Stopwatch step_watch;
    head_rows_.clear();
    relation_rows_.clear();
    for (size_t i = 0; i < cur_count_; ++i) {
      const Query& query = queries_[order_[cur_begin_ + i]];
      head_rows_.emplace_back(query.head, i);
      relation_rows_.emplace_back(query.relation, i);
      total_loss += query_loss_[i];
    }
    std::sort(head_rows_.begin(), head_rows_.end());
    std::sort(relation_rows_.begin(), relation_rows_.end());
    optimizer_->BeginStep();
    pool_->StageFor(0, num_entities, [this](size_t eb, size_t ee) {
      StepEntityChunk(eb, ee);
    });
    const std::span<float> sum(relation_sum_);
    for (size_t k = 0; k < relation_rows_.size();) {
      const RelationId relation = relation_rows_[k].first;
      Fill(sum, 0.0f);
      for (; k < relation_rows_.size() && relation_rows_[k].first == relation;
           ++k) {
        Axpy(1.0f,
             std::span<const float>(
                 relation_folds_.data() + relation_rows_[k].second *
                                              relation_dim,
                 relation_dim),
             sum);
      }
      optimizer_->UpdateRow(MultiEmbeddingModel::kRelationBlock, relation,
                            sum);
    }
    clock_.Add(StageClock::kStep, step_watch.ElapsedSeconds());
  }
  clock_.Add(StageClock::kWall, epoch_watch.ElapsedSeconds());
  return queries_.empty() ? 0.0 : total_loss / double(queries_.size());
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
