// Deadline-aware micro-batcher — the serving layer's throughput and
// robustness core.
//
// Concurrent in-flight queries are coalesced by (relation, side) and
// answered by one reduction: the batch is folded once, then the model's
// tile-strided top-k walk (KgeModel::TopKWalk) runs on every scan lane,
// scoring each kept entity tile once for all the batch's queries, and
// each query's lane heaps are merged in lane order (DESIGN.md §5h).
// Batch composition is deadline-driven: each dispatch picks the group
// of the earliest-deadline request, so a query never waits behind an
// unrelated full batch.
//
// Robustness contract:
//   * Admission control: the queue is a fixed pool of max_queue slots.
//     A Submit with no free slot completes immediately with kShed —
//     overload degrades into explicit rejections, never into unbounded
//     queueing.
//   * Deadlines: every request carries one (or inherits the default).
//     Requests that expire before a batch picks them up complete with
//     kDeadlineExceeded instead of occupying kernel time.
//   * Graceful degradation: sustained queue pressure (an EWMA of slot
//     occupancy) downshifts scoring to the float32 and then int8
//     replica tiers when the model supports them and options allow,
//     trading a little score fidelity for 2-4x candidate bandwidth.
//     Replies report the tier that actually scored them.
//   * Zero steady-state allocation: slots, queues and the lane heaps are
//     preallocated in Start, folds and walk scratch are grown once to the
//     max_batch high-water mark; the assemble/walk/merge roots are
//     KGE_HOT_NOALLOC and gated by scripts/hotpath_check.py.
//
// Completion is a callback (plain function pointer + context, so the
// submit path stays allocation-free). It fires exactly once per Submit,
// on a worker thread — or inline on the submitting thread for requests
// rejected at admission. The results span is valid only during the
// callback; copy what you need.
#ifndef KGE_SERVE_MICRO_BATCHER_H_
#define KGE_SERVE_MICRO_BATCHER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "serve/serve_protocol.h"
#include "serve/snapshot.h"
#include "util/hotpath.h"
#include "util/thread_annotations.h"
#include "util/thread_pool.h"

namespace kge {

struct BatcherOptions {
  // Admission-queue slots; Submit sheds beyond this.
  int max_queue = 256;
  // Max queries coalesced into one kernel dispatch.
  int max_batch = 32;
  int num_workers = 1;
  // Server-side cap on per-request k (kge_serve --topk); requests
  // asking for more are clamped, never rejected.
  uint32_t max_topk = kServeMaxTopK;
  // Applied when a request carries deadline_ms == 0.
  uint32_t default_deadline_ms = 50;
  // Lowest tier pressure may downshift to: kDouble disables
  // degradation, kFloat32 allows one step, kInt8 the full ladder.
  ScorePrecision degrade_floor = ScorePrecision::kDouble;
  // Occupancy EWMA thresholds (percent of max_queue in use) that arm
  // the float32 / int8 tiers.
  int degrade_float32_pct = 50;
  int degrade_int8_pct = 85;
  // Scan lanes of the top-k walk (kge_serve --shards): lane s walks the
  // entity tiles s, s + n, s + 2n, … into its own heaps, the lanes fan
  // out across a shared pool when n > 1 (a lane that finishes first
  // takes over the others' unclaimed tiles), and each query's lane
  // heaps are merged in lane order. Results are identical at every
  // setting ((score, id) is a total order); only latency changes.
  int num_shards = 1;
  // Skip (query, tile) pairs whose Cauchy–Schwarz bound cannot beat the
  // query's lane-heap minimum (kge_serve --prune). Exact, never
  // approximate. Snapshots must be loaded with their tile bounds
  // prepared (CheckpointWatcher::Options::prepare_bounds /
  // KgeModel::PrepareForPrunedScoring) before workers score them.
  bool prune = false;
};

struct ServeReply {
  ServeStatusCode status = ServeStatusCode::kError;
  ScorePrecision tier = ScorePrecision::kDouble;
  // Snapshot that produced the scores; 0 for non-kOk replies.
  uint64_t snapshot_version = 0;
  // Valid only for the duration of the callback.
  std::span<const ScoredEntity> results;
};

using ServeDoneFn = void (*)(void* ctx, const ServeReply& reply);

struct BatcherStatsView {
  uint64_t submitted = 0;
  uint64_t admitted = 0;
  uint64_t shed = 0;
  uint64_t expired = 0;
  uint64_t invalid = 0;
  uint64_t completed = 0;
  uint64_t errors = 0;
  uint64_t shutdown_replies = 0;
  uint64_t batches = 0;
  uint64_t batched_queries = 0;
  uint64_t batches_float32 = 0;
  uint64_t batches_int8 = 0;
  // Walk counters per (query, tile) pair of every valid query;
  // tiles_skipped / tiles_total is the serving-side pruning
  // effectiveness BENCH_serving reports.
  uint64_t tiles_total = 0;
  uint64_t tiles_skipped = 0;
};

class MicroBatcher {
 public:
  // The registry must outlive the batcher. Queries score against
  // whatever snapshot is current when their batch dispatches.
  MicroBatcher(const SnapshotRegistry* registry, BatcherOptions options);
  ~MicroBatcher();
  MicroBatcher(const MicroBatcher&) = delete;
  MicroBatcher& operator=(const MicroBatcher&) = delete;

  // Spawns the worker threads. Requests submitted before Start() queue
  // up (until max_queue) and dispatch once workers run — tests use this
  // to compose batches deterministically.
  void Start();

  // Drains: queued requests complete with kShuttingDown, workers join.
  // Safe to call twice; the destructor calls it. After Stop, Submit
  // completes everything with kShuttingDown inline.
  void Stop();

  // Never blocks. Admission failures (queue full, shutting down)
  // complete inline on this thread; admitted requests complete later on
  // a worker thread. `done` must be non-null and may be invoked
  // concurrently with other callbacks.
  void Submit(const ServeRequest& request, ServeDoneFn done, void* done_ctx);

  BatcherStatsView stats() const;
  // Current occupancy-EWMA percentage driving tier selection.
  int ewma_queue_pct() const;

  // The lanes' shared pool once Start() has run with num_shards > 1;
  // null otherwise. kge_serve hands it to snapshot adoption
  // (CheckpointWatcher::Options::pool), whose fan-out Start() reserves
  // task-ring room for, so a hot swap never grows the ring.
  ThreadPool* lane_pool() const { return shard_pool_.get(); }

 private:
  struct Slot {
    ServeRequest request;
    int64_t deadline_ns = 0;
    ServeDoneFn done = nullptr;
    void* done_ctx = nullptr;
  };

  // One dispatch's worth of work, extracted under the lock.
  struct Assembled {
    std::vector<int> batch;    // slot ids, FIFO within the group
    int batch_count = 0;
    std::vector<int> expired;  // slot ids past deadline (any group)
    int expired_count = 0;
    RelationId relation = 0;
    QuerySide side = QuerySide::kTail;
  };

  // Per-worker preallocated storage: the thread plus every buffer the
  // walk/merge path writes, so workers never contend on scratch.
  struct WorkerState {
    std::thread thread;
    Assembled assembled;
    // Per batch position: 1 when the request is in range.
    std::vector<uint8_t> valid;
    // The valid queries' entities and folds, in batch order.
    std::vector<EntityId> anchors;
    std::vector<float> folds;
    // Lane s, valid query v: lane_heaps[s * max_batch + v]. Each lane
    // writes only its own heaps, scratch and stats.
    std::vector<TopKHeap<float, EntityId>> lane_heaps;
    std::vector<TopKWalkScratch> lane_scratch;
    std::vector<RankScanStats> lane_stats;
    // The lanes' tile claim counters when they run on shard_pool_.
    std::vector<TopKLaneClaim> lane_claims;
    // Merge target when there is more than one lane.
    TopKHeap<float, EntityId> heap;
    std::vector<ScoredEntity> results;
  };

  void WorkerLoop(WorkerState* ws);

  // Sweeps expired requests into ws->expired, then extracts up to
  // max_batch pending requests sharing the earliest-deadline request's
  // (relation, side). FIFO order within the group is preserved, so
  // batch composition is deterministic given arrival order.
  KGE_HOT_NOALLOC
  void AssembleLocked(int64_t now_ns, Assembled* out) KGE_REQUIRES(mutex_);

  // Moves every pending request into out->expired (shutdown drain).
  void DrainAllLocked(Assembled* out) KGE_REQUIRES(mutex_);

  // Updates the occupancy EWMA and picks the tier it arms.
  ScorePrecision DecideTierLocked() KGE_REQUIRES(mutex_);

  // Range-checks each query against the model (ws->valid), folds the
  // valid ones once, arms their lane heaps with their k, and runs the
  // model's top-k walk on every lane — across shard_pool_ when
  // num_shards > 1 — at `tier`. Adds tile counters to ws->lane_stats.
  KGE_HOT_NOALLOC
  void WalkAssembled(const KgeModel& model, ScorePrecision tier,
                     WorkerState* ws);

  // Valid query v's top-k, best first: its lane heaps merged in lane
  // order. Valid until the next call.
  KGE_HOT_NOALLOC
  std::span<const ScoredEntity> MergeLanes(int v, WorkerState* ws);

  void RespondEmpty(const Slot& slot, ServeStatusCode status);
  void ReleaseSlots(const int* ids, int count);

  const SnapshotRegistry* registry_;
  const BatcherOptions options_;

  mutable Mutex mutex_;
  CondVar cv_;
  bool stop_ KGE_GUARDED_BY(mutex_) = true;  // flips false in ctor body
  // Slot pool. The `slots_` array itself is handoff-owned: a slot id in
  // free_/pending_ is owned by whoever pops it under the lock, and its
  // fields are then read/written lock-free by that single owner — which
  // is why slots_ carries no GUARDED_BY.
  std::vector<Slot> slots_;
  std::vector<int> free_ KGE_GUARDED_BY(mutex_);
  int free_count_ KGE_GUARDED_BY(mutex_) = 0;
  std::vector<int> pending_ KGE_GUARDED_BY(mutex_);
  int pending_count_ KGE_GUARDED_BY(mutex_) = 0;
  int ewma_pct_ KGE_GUARDED_BY(mutex_) = 0;

  std::vector<std::unique_ptr<WorkerState>> workers_;
  // Shared fork-join pool for the lane fan-out (created in Start() when
  // num_shards > 1). StageFor is safe from multiple workers
  // concurrently: tasks live in a mutex-protected POD ring and waiters
  // help drain it.
  std::unique_ptr<ThreadPool> shard_pool_;

  std::atomic<uint64_t> submitted_{0};
  std::atomic<uint64_t> admitted_{0};
  std::atomic<uint64_t> shed_{0};
  std::atomic<uint64_t> expired_{0};
  std::atomic<uint64_t> invalid_{0};
  std::atomic<uint64_t> completed_{0};
  std::atomic<uint64_t> errors_{0};
  std::atomic<uint64_t> shutdown_replies_{0};
  std::atomic<uint64_t> batches_{0};
  std::atomic<uint64_t> batched_queries_{0};
  std::atomic<uint64_t> batches_float32_{0};
  std::atomic<uint64_t> batches_int8_{0};
  std::atomic<uint64_t> tiles_total_{0};
  std::atomic<uint64_t> tiles_skipped_{0};
};

}  // namespace kge

#endif  // KGE_SERVE_MICRO_BATCHER_H_
