// TrainLoop: the epoch-level control loop shared by Trainer (negative
// sampling) and OneVsAllTrainer — epoch timing, logging, periodic
// validation with early stopping and best-parameter restore, durable
// checkpointing with exact resume, and divergence rollback.
//
// The trainers keep their own batch/gradient inner loops and hand them
// to Run() as a run-one-epoch callback; everything that must behave
// identically across trainers (and must be serialized for crash-safe
// resume) lives here, in exactly one place.
#ifndef KGE_TRAIN_TRAIN_LOOP_H_
#define KGE_TRAIN_TRAIN_LOOP_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "models/kge_model.h"
#include "optim/optimizer.h"
#include "train/train_checkpoint.h"
#include "util/random.h"
#include "util/status.h"

namespace kge {

// Called with the current epoch; returns the validation metric (higher
// = better, typically filtered MRR). Pass nullptr to train for
// max_epochs without early stopping.
using ValidationFn = std::function<double(int epoch)>;

// Cumulative pipeline-stage timings reported by the trainers
// (Trainer::stage_stats() / OneVsAllTrainer::stage_stats()).
// `sample_seconds` is busy time summed across the sampling-prefetch
// tasks, so with T threads it can exceed the wall clock (1-vs-all
// samples nothing); `score_seconds` is busy time of the shard-scoring
// tasks, or the caller's wall time around the 1-vs-all fused
// fold+score+fold-back stage; `apply_seconds` is the caller's wall time
// in the step pass. Both trainers' step passes sum and update each row
// in one visit, so all of it is reported as apply and merge stays 0.
// Occupancy for the bench report is stage_seconds / wall_seconds.
struct TrainStageStats {
  double sample_seconds = 0.0;
  double score_seconds = 0.0;
  double merge_seconds = 0.0;
  double apply_seconds = 0.0;
  double wall_seconds = 0.0;
};

// The counters behind both trainers' stage_stats(): seconds added as
// relaxed-atomic nanoseconds, from pool tasks as well as the epoch loop.
class StageClock {
 public:
  enum Counter { kSample, kScore, kStep, kWall, kNumCounters };

  void Add(Counter counter, double seconds) {
    nanos_[counter].fetch_add(int64_t(seconds * 1e9),
                              std::memory_order_relaxed);
  }
  // The step counter is reported as apply_seconds.
  TrainStageStats Stats() const;
  void Reset();

 private:
  std::atomic<int64_t> nanos_[kNumCounters] = {};
};

struct TrainResult {
  int epochs_run = 0;
  double final_mean_loss = 0.0;
  double best_validation_metric = 0.0;
  int best_epoch = -1;
  bool stopped_early = false;
  // First epoch this process ran (> 0 when resumed from a checkpoint).
  int start_epoch = 0;
  // Divergence-guard rollbacks performed (cumulative across resumes).
  int divergence_rollbacks = 0;
  // Mean per-example loss after each epoch (learning curve). On resume
  // this includes the epochs of the original run, so a resumed run's
  // history is identical to an uninterrupted one.
  std::vector<double> loss_history;
  // Wall-clock seconds per epoch (throughput = triples / epoch_seconds).
  std::vector<double> epoch_seconds;
  // (epoch, metric) for every validation performed.
  std::vector<std::pair<int, double>> validation_history;
};

struct TrainLoopConfig {
  // Stamped into checkpoints and verified on resume.
  std::string trainer_kind;
  int max_epochs = 500;
  int eval_every_epochs = 50;
  int patience_epochs = 100;
  bool restore_best = true;
  uint64_t seed = 1234;
  int log_every_epochs = 0;
  // Name used in log lines (typically the model name).
  std::string log_name;
  // Items processed per epoch, for throughput log lines (0 = omit).
  int64_t log_throughput_items = 0;
  CheckpointingOptions checkpointing;
  DivergenceGuardOptions divergence;
};

class TrainLoop {
 public:
  // `model` and `optimizer` must outlive the loop. The optimizer must be
  // the one updating the model inside `run_epoch`.
  TrainLoop(KgeModel* model, Optimizer* optimizer, TrainLoopConfig config);

  // Runs epochs until max_epochs, early stop, or an error. `run_epoch`
  // performs one full pass and returns its mean loss, drawing epoch-
  // level randomness (shuffles) only from the passed Rng. A non-null
  // `batch_counter` is the trainer's DeriveStreamSeed counter: it is
  // restored before the first epoch on resume and persisted into every
  // checkpoint.
  Result<TrainResult> Run(const std::function<double(Rng*)>& run_epoch,
                          const ValidationFn& validate,
                          uint64_t* batch_counter);

 private:
  // True when any parameter (or the epoch loss) went non-finite.
  bool HasNonFiniteState(double mean_loss) const;

  std::vector<std::vector<float>> SnapshotParameters() const;
  void RestoreParameters(const std::vector<std::vector<float>>& snapshot);

  KgeModel* model_;
  Optimizer* optimizer_;
  TrainLoopConfig config_;
};

}  // namespace kge

#endif  // KGE_TRAIN_TRAIN_LOOP_H_
