// Model snapshot lifecycle for the serving layer.
//
// A ModelSnapshot bundles a scoring-ready model with the mmap'ed
// checkpoint backing its parameter blocks. SnapshotRegistry publishes
// snapshots RCU-style: readers Acquire() a shared_ptr and score against
// it for the duration of one batch, a writer Publish()es a fully
// constructed replacement, and the old snapshot (plus its mapping) is
// freed when the last in-flight batch drops its reference — queries
// never block on a swap and never observe a half-swapped model.
//
// CheckpointWatcher is the hot-swap driver: a thread polls the
// training-side `LATEST` pointer, loads any new target through the
// mapped loader (which CRC-verifies the mapped bytes before trusting
// any of them), and on any failure renames the bad file to
// `<name>.quarantine` and keeps serving the last good snapshot. A
// corrupt checkpoint is therefore (a) never scored from and (b) taken
// out of the rotation so the next poll does not retry it forever.
#ifndef KGE_SERVE_SNAPSHOT_H_
#define KGE_SERVE_SNAPSHOT_H_

#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/scoring_replica.h"
#include "models/kge_model.h"
#include "serve/mmap_checkpoint.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace kge {

struct ModelSnapshot {
  // Declared before `model` so the model (whose blocks may borrow the
  // mapping's storage) is destroyed first.
  std::unique_ptr<MappedCheckpoint> mapping;
  std::unique_ptr<KgeModel> model;
  std::string source_path;
  // Monotone publish stamp assigned by SnapshotRegistry::Publish;
  // reported in responses so clients can tell which model answered.
  uint64_t version = 0;
};

// Constructs a fresh model via `factory` and loads `path` into it
// through the mmap loader, then rebuilds the scoring replicas for
// `prepare_tiers` (skipping tiers the model does not support) so the
// snapshot is immediately usable from concurrent scoring threads. With
// `prepare_bounds` the per-tile score bounds of the pruned ranking
// scans are rebuilt too (PrepareForPrunedScoring) — required before a
// batcher with prune enabled scores the snapshot, since bounds cannot
// be rebuilt safely once concurrent workers read the model. Given a
// pool (kge_serve's lane pool), the checksum and the replica and bound
// rebuilds run across it; without one, inline. Same snapshot either way.
using ModelFactory = std::function<Result<std::unique_ptr<KgeModel>>()>;
Result<std::shared_ptr<ModelSnapshot>> LoadServingSnapshot(
    const std::string& path, const ModelFactory& factory,
    const std::vector<ScorePrecision>& prepare_tiers,
    bool prepare_bounds = false, ThreadPool* pool = nullptr);

class SnapshotRegistry {
 public:
  // Current snapshot, or null before the first Publish. The returned
  // reference keeps the snapshot (and its mapping) alive; hold it for
  // one batch, not longer.
  std::shared_ptr<const ModelSnapshot> Acquire() const;

  // Atomically replaces the current snapshot and stamps
  // `snapshot->version` with the next publish counter (1, 2, ...).
  // In-flight readers finish on the snapshot they acquired.
  void Publish(std::shared_ptr<ModelSnapshot> snapshot);

  // Version of the current snapshot; 0 when none is published.
  uint64_t current_version() const;

 private:
  mutable Mutex mutex_;
  std::shared_ptr<const ModelSnapshot> current_ KGE_GUARDED_BY(mutex_);
  uint64_t publish_counter_ KGE_GUARDED_BY(mutex_) = 0;
};

class CheckpointWatcher {
 public:
  struct Options {
    // Directory holding ckpt_<epoch>.kge2 files and the LATEST pointer.
    std::string dir;
    int poll_ms = 200;
    // Precision tiers to PrepareForScoring on every new snapshot (the
    // degradation ladder the batcher may downshift to).
    std::vector<ScorePrecision> prepare_tiers;
    // Also rebuild each tier's pruned-scan tile bounds
    // (PrepareForPrunedScoring). Set when serving with --prune.
    bool prepare_bounds = false;
    // Pool every adoption's passes over the table run on (the checksum,
    // the replica and bound rebuilds); kge_serve passes the batcher's
    // lane pool. Null runs them on the adopting thread. Must outlive
    // the watcher.
    ThreadPool* pool = nullptr;
  };

  CheckpointWatcher(SnapshotRegistry* registry, ModelFactory factory,
                    Options options);
  ~CheckpointWatcher();
  CheckpointWatcher(const CheckpointWatcher&) = delete;
  CheckpointWatcher& operator=(const CheckpointWatcher&) = delete;

  // Startup load: adopt the LATEST target if it loads; otherwise
  // quarantine it and adopt the newest ckpt_<epoch>.kge2 that loads,
  // trying each newest first (a candidate that fails is skipped, not
  // quarantined). Every attempt checksums its file once, in the mapped
  // load. NotFound when the directory has no loadable checkpoint. This
  // is how a restart after a crash resumes from the last CRC-valid
  // checkpoint even when LATEST was the casualty.
  Status LoadInitial();

  // Adopts one explicit checkpoint file (no LATEST indirection) — the
  // --checkpoint startup path. No quarantine on failure.
  Status AdoptPath(const std::string& path);

  // Starts/stops the polling thread. Stop() is prompt (the poll wait is
  // interruptible) and idempotent; the destructor calls it.
  void Start();
  void Stop();

  // One poll step: re-resolve LATEST and swap/quarantine as needed.
  // Called by the polling thread; public so tests can drive the watcher
  // deterministically without timing dependence. Must not race Start().
  void PollOnce();

  struct StatsView {
    uint64_t polls = 0;
    uint64_t swaps = 0;
    uint64_t quarantines = 0;
    uint64_t failed_loads = 0;
  };
  StatsView stats() const;

 private:
  // Resolves the LATEST pointer to a full path; empty when missing.
  std::string ResolveLatestTarget() const;
  Status TryAdopt(const std::string& path);
  // Renames `path` out of the checkpoint rotation; true on success.
  bool QuarantineFile(const std::string& path);

  SnapshotRegistry* registry_;
  ModelFactory factory_;
  Options options_;

  // Touched only from the owner's startup path and the poll thread.
  std::string active_path_;
  std::string last_failed_path_;

  std::atomic<uint64_t> polls_{0};
  std::atomic<uint64_t> swaps_{0};
  std::atomic<uint64_t> quarantines_{0};
  std::atomic<uint64_t> failed_loads_{0};

  Mutex mutex_;
  bool stop_ KGE_GUARDED_BY(mutex_) = false;
  CondVar cv_;
  std::thread thread_;
};

}  // namespace kge

#endif  // KGE_SERVE_SNAPSHOT_H_
