#include "train/train_loop.h"

#include <chrono>
#include <cmath>
#include <memory>

#include "train/early_stopping.h"
#include "util/check.h"
#include "util/failpoint.h"
#include "util/logging.h"

namespace kge {

TrainStageStats StageClock::Stats() const {
  const auto seconds = [this](Counter counter) {
    return double(nanos_[counter].load(std::memory_order_relaxed)) * 1e-9;
  };
  TrainStageStats stats;
  stats.sample_seconds = seconds(kSample);
  stats.score_seconds = seconds(kScore);
  stats.apply_seconds = seconds(kStep);
  stats.wall_seconds = seconds(kWall);
  return stats;
}

void StageClock::Reset() {
  for (std::atomic<int64_t>& nanos : nanos_) {
    nanos.store(0, std::memory_order_relaxed);
  }
}

TrainLoop::TrainLoop(KgeModel* model, Optimizer* optimizer,
                     TrainLoopConfig config)
    : model_(model), optimizer_(optimizer), config_(std::move(config)) {
  KGE_CHECK(model_ != nullptr && optimizer_ != nullptr);
  KGE_CHECK(!config_.trainer_kind.empty());
}

bool TrainLoop::HasNonFiniteState(double mean_loss) const {
  if (!std::isfinite(mean_loss)) return true;
  const KgeModel& model = *model_;
  for (const ParameterBlock* block : model.Blocks()) {
    for (float value : block->Flat()) {
      if (!std::isfinite(value)) return true;
    }
  }
  return false;
}

std::vector<std::vector<float>> TrainLoop::SnapshotParameters() const {
  std::vector<std::vector<float>> snapshot;
  const KgeModel& model = *model_;
  const std::vector<const ParameterBlock*> blocks = model.Blocks();
  snapshot.reserve(blocks.size());
  for (const ParameterBlock* block : blocks) {
    const auto flat = block->Flat();
    snapshot.emplace_back(flat.begin(), flat.end());
  }
  return snapshot;
}

void TrainLoop::RestoreParameters(
    const std::vector<std::vector<float>>& snapshot) {
  const std::vector<ParameterBlock*> blocks = model_->Blocks();
  KGE_CHECK(snapshot.size() == blocks.size());
  for (size_t b = 0; b < blocks.size(); ++b) {
    const auto flat = blocks[b]->Flat();
    KGE_CHECK(snapshot[b].size() == flat.size());
    std::copy(snapshot[b].begin(), snapshot[b].end(), flat.begin());
  }
}

Result<TrainResult> TrainLoop::Run(
    const std::function<double(Rng*)>& run_epoch, const ValidationFn& validate,
    uint64_t* batch_counter) {
  Rng rng(config_.seed);
  EarlyStopping stopping(config_.patience_epochs);
  std::vector<std::vector<float>> best_snapshot;
  TrainResult result;
  int start_epoch = 0;
  int retries_used = 0;

  std::unique_ptr<CheckpointManager> manager;
  if (!config_.checkpointing.dir.empty()) {
    manager = std::make_unique<CheckpointManager>(
        config_.checkpointing.dir, config_.checkpointing.keep_last);
    KGE_RETURN_IF_ERROR(manager->Init());
  }

  // Reinstates loop state from a checkpoint (resume and rollback paths).
  auto restore_from = [&](const TrainingState& state) -> Status {
    if (state.trainer_kind != config_.trainer_kind) {
      return Status::InvalidArgument(
          "checkpoint was written by trainer '" + state.trainer_kind +
          "', cannot resume '" + config_.trainer_kind + "'");
    }
    if (state.seed != config_.seed) {
      return Status::FailedPrecondition(
          "checkpoint seed " + std::to_string(state.seed) +
          " does not match configured seed " + std::to_string(config_.seed) +
          "; resume would not reproduce the original run");
    }
    start_epoch = state.epoch;
    rng.SetState(state.rng);
    if (batch_counter != nullptr) *batch_counter = state.batch_counter;
    stopping.Restore(state.best_epoch, state.best_metric);
    best_snapshot = state.best_snapshot;
    retries_used = state.divergence_retries_used;
    result.loss_history = state.loss_history;
    result.epoch_seconds = state.epoch_seconds;
    result.validation_history = state.validation_history;
    result.epochs_run = state.epoch;
    result.divergence_rollbacks = retries_used;
    if (!state.loss_history.empty()) {
      result.final_mean_loss = state.loss_history.back();
    }
    return Status::Ok();
  };

  if (manager != nullptr && config_.checkpointing.resume) {
    Result<std::string> latest = manager->LatestPath();
    if (latest.ok()) {
      TrainingState state;
      KGE_RETURN_IF_ERROR(
          LoadTrainingCheckpoint(model_, optimizer_, &state, *latest));
      KGE_RETURN_IF_ERROR(restore_from(state));
      if (config_.log_every_epochs > 0) {
        KGE_LOG(Info) << config_.log_name << " resumed from " << *latest
                      << " after epoch " << start_epoch;
      }
    } else if (latest.status().code() != StatusCode::kNotFound) {
      // A missing checkpoint means "start fresh"; anything else (torn
      // pointer file, unreadable directory) is a real error.
      return latest.status();
    }
  }
  result.start_epoch = start_epoch;

  auto save_checkpoint = [&](int epoch) -> Status {
    TrainingState state;
    state.trainer_kind = config_.trainer_kind;
    state.seed = config_.seed;
    state.epoch = epoch;
    state.batch_counter = batch_counter != nullptr ? *batch_counter : 0;
    state.rng = rng.GetState();
    state.loss_history = result.loss_history;
    state.epoch_seconds = result.epoch_seconds;
    state.validation_history = result.validation_history;
    state.best_epoch = stopping.best_epoch();
    state.best_metric = stopping.has_observation() ? stopping.best_metric()
                                                   : 0.0;
    state.divergence_retries_used = retries_used;
    state.best_snapshot = best_snapshot;
    return manager->Save(*model_, *optimizer_, state);
  };

  for (int epoch = start_epoch + 1; epoch <= config_.max_epochs; ++epoch) {
    const auto epoch_start = std::chrono::steady_clock::now();
    const double mean_loss = run_epoch(&rng);
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      epoch_start)
            .count();

    if (config_.divergence.enabled && HasNonFiniteState(mean_loss)) {
      // Non-finite loss or parameters: roll back to the last good
      // checkpoint with a smaller learning rate rather than training on.
      if (manager == nullptr) {
        return Status::FailedPrecondition(
            config_.log_name + ": non-finite loss/parameters at epoch " +
            std::to_string(epoch) +
            " and no checkpoint directory configured to roll back to");
      }
      if (retries_used >= config_.divergence.max_retries) {
        return Status::FailedPrecondition(
            config_.log_name + ": still diverging after " +
            std::to_string(retries_used) + " rollbacks");
      }
      Result<std::string> latest = manager->LatestPath();
      if (!latest.ok()) {
        return Status::FailedPrecondition(
            config_.log_name + ": diverged at epoch " +
            std::to_string(epoch) + " before the first checkpoint (" +
            latest.status().message() + ")");
      }
      TrainingState state;
      KGE_RETURN_IF_ERROR(
          LoadTrainingCheckpoint(model_, optimizer_, &state, *latest));
      // The checkpoint predates this (and possibly earlier) rollbacks,
      // so its stored retry count is stale: keep counting from the live
      // one or the budget would never deplete.
      const int retries_before = retries_used;
      KGE_RETURN_IF_ERROR(restore_from(state));
      retries_used = retries_before + 1;
      result.divergence_rollbacks = retries_used;
      const double lr =
          optimizer_->learning_rate() * config_.divergence.lr_backoff;
      optimizer_->set_learning_rate(lr);
      KGE_LOG(Warning) << config_.log_name << " diverged at epoch " << epoch
                       << "; rolled back to epoch " << state.epoch
                       << ", learning rate reduced to " << lr;
      epoch = state.epoch;  // The loop increment resumes at epoch + 1.
      continue;
    }

    result.epochs_run = epoch;
    result.final_mean_loss = mean_loss;
    result.loss_history.push_back(mean_loss);
    result.epoch_seconds.push_back(seconds);
    if (config_.log_every_epochs > 0 &&
        epoch % config_.log_every_epochs == 0) {
      internal::LogMessage log(LogLevel::kInfo, __FILE__, __LINE__);
      log << config_.log_name << " epoch " << epoch << " loss " << mean_loss;
      if (config_.log_throughput_items > 0 && seconds > 0.0) {
        log << " (" << double(config_.log_throughput_items) / seconds
            << " items/s)";
      }
    }

    bool new_best = false;
    bool should_stop = false;
    if (validate && epoch % config_.eval_every_epochs == 0) {
      const double metric = validate(epoch);
      result.validation_history.emplace_back(epoch, metric);
      if (stopping.Observe(epoch, metric)) {
        new_best = true;
        if (config_.restore_best) best_snapshot = SnapshotParameters();
      }
      if (config_.log_every_epochs > 0) {
        KGE_LOG(Info) << config_.log_name << " epoch " << epoch
                      << " validation " << metric << " (best "
                      << stopping.best_metric() << " @ "
                      << stopping.best_epoch() << ")";
      }
      if (stopping.ShouldStop(epoch)) {
        result.stopped_early = true;
        should_stop = true;
      }
    }

    KGE_RETURN_IF_ERROR(KGE_FAILPOINT("train.epoch.end"));
    if (manager != nullptr) {
      const bool cadence = config_.checkpointing.every_epochs > 0 &&
                           epoch % config_.checkpointing.every_epochs == 0;
      if (cadence || new_best || should_stop ||
          epoch == config_.max_epochs) {
        KGE_RETURN_IF_ERROR(save_checkpoint(epoch));
        KGE_RETURN_IF_ERROR(KGE_FAILPOINT("train.epoch.after_ckpt"));
      }
    }
    if (should_stop) break;
  }

  if (stopping.has_observation()) {
    result.best_validation_metric = stopping.best_metric();
    result.best_epoch = stopping.best_epoch();
    if (config_.restore_best && !best_snapshot.empty()) {
      RestoreParameters(best_snapshot);
    }
  }
  return result;
}

}  // namespace kge
