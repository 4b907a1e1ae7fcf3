// Full training-state checkpoints and their on-disk management.
//
// A training checkpoint is a format-v3 file (models/checkpoint.h) of
// kind kTrainingState: the model section every reader understands, plus
// a training-state section holding everything needed to resume a run
// bit-identically — optimizer moments and step counts, the epoch-level
// RNG state, loss/validation histories, early-stopping state, and the
// best-parameters snapshot for restore_best. kge_eval can read these
// files directly (it skips the training section).
//
// CheckpointManager owns a checkpoint directory:
//
//   <dir>/ckpt_<epoch>.kge2   one durable checkpoint per saved epoch
//   <dir>/LATEST              text file naming the newest checkpoint
//
// Save order is crash-safe by construction: the checkpoint file is
// fully written, fsynced, and renamed into place BEFORE the LATEST
// pointer is (atomically) updated, and retention deletes only files
// LATEST no longer references. A crash at any instant leaves LATEST
// pointing at a complete, CRC-valid checkpoint (or no LATEST at all,
// for a first save) — the property the failpoint kill-and-resume
// harness enforces at every injected crash site.
#ifndef KGE_TRAIN_TRAIN_CHECKPOINT_H_
#define KGE_TRAIN_TRAIN_CHECKPOINT_H_

#include <string>
#include <utility>
#include <vector>

#include "models/checkpoint.h"
#include "models/kge_model.h"
#include "optim/optimizer.h"
#include "util/random.h"
#include "util/status.h"

namespace kge {

// Where/how often a training run checkpoints. An empty `dir` disables
// checkpointing entirely (the default — no behavior change for
// existing callers).
struct CheckpointingOptions {
  std::string dir;
  // Save a checkpoint every N completed epochs (also at early stop and
  // at the final epoch).
  int every_epochs = 1;
  // Retention: keep this many newest checkpoints (the best-validation
  // epoch's file and the LATEST target are always kept).
  int keep_last = 3;
  // Resume from <dir>/LATEST if it exists; an empty/missing directory
  // starts fresh.
  bool resume = false;
};

// Per-epoch non-finite loss/parameter detection with rollback.
struct DivergenceGuardOptions {
  bool enabled = true;
  // How many rollbacks to attempt before giving up.
  int max_retries = 2;
  // Learning-rate multiplier applied after each rollback.
  double lr_backoff = 0.5;
};

// Everything the epoch loop needs to continue exactly where a previous
// process stopped. `epoch` is the last COMPLETED epoch; resume starts
// at epoch + 1.
struct TrainingState {
  // Which loop wrote this state ("negative_sampling" | "one_vs_all");
  // verified on resume so checkpoints cannot cross trainers.
  std::string trainer_kind;
  uint64_t seed = 0;
  int epoch = 0;
  // Trainer's global batch counter (drives DeriveStreamSeed); unused by
  // the one-vs-all loop.
  uint64_t batch_counter = 0;
  // Epoch-level RNG (shuffles) at the moment the epoch completed.
  RngState rng;
  std::vector<double> loss_history;
  std::vector<double> epoch_seconds;
  std::vector<std::pair<int, double>> validation_history;
  // EarlyStopping state (best_epoch -1 = no observation yet).
  int best_epoch = -1;
  double best_metric = 0.0;
  int divergence_retries_used = 0;
  // Parameter snapshot at the best validation epoch (for restore_best);
  // empty when no validation has happened yet.
  std::vector<std::vector<float>> best_snapshot;
};

// Writes a kind-kTrainingState v3 checkpoint (atomic + CRC).
Status SaveTrainingCheckpoint(const KgeModel& model,
                              const Optimizer& optimizer,
                              const TrainingState& state,
                              const std::string& path);

// Restores model parameters, optimizer state, and `state` from `path`.
// The file's CRC is verified BEFORE any state is mutated. The model and
// optimizer must match the saving configuration (names and shapes are
// checked).
Status LoadTrainingCheckpoint(KgeModel* model, Optimizer* optimizer,
                              TrainingState* state, const std::string& path);

class CheckpointManager {
 public:
  CheckpointManager(std::string dir, int keep_last);

  // Creates the directory if needed and indexes existing checkpoints
  // (so retention keeps working across resumed processes).
  Status Init();

  // Path of the checkpoint file for `epoch`.
  std::string PathForEpoch(int epoch) const;

  // Path the LATEST pointer currently references; NotFound when the
  // directory holds no committed checkpoint yet.
  Result<std::string> LatestPath() const;

  // Durably saves `state` (at state.epoch), updates LATEST, then
  // applies retention (keep_last newest + state.best_epoch + LATEST).
  Status Save(const KgeModel& model, const Optimizer& optimizer,
              const TrainingState& state);

 private:
  Status GarbageCollect(int latest_epoch, int best_epoch);

  std::string dir_;
  int keep_last_;
  // Epochs with an on-disk checkpoint file, ascending.
  std::vector<int> saved_epochs_;
};

}  // namespace kge

#endif  // KGE_TRAIN_TRAIN_CHECKPOINT_H_
