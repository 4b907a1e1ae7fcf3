#include "serve/micro_batcher.h"

#include <algorithm>
#include <chrono>

#include "util/check.h"
#include "util/scratch.h"

namespace kge {
namespace {

int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

MicroBatcher::MicroBatcher(const SnapshotRegistry* registry,
                           BatcherOptions options)
    : registry_(registry), options_(options) {
  KGE_CHECK(registry_ != nullptr);
  KGE_CHECK(options_.max_queue > 0);
  KGE_CHECK(options_.max_batch > 0);
  KGE_CHECK(options_.num_workers > 0);
  KGE_CHECK(options_.num_shards > 0);
  slots_.resize(size_t(options_.max_queue));
  MutexLock lock(mutex_);
  free_.resize(size_t(options_.max_queue));
  pending_.resize(size_t(options_.max_queue));
  for (int i = 0; i < options_.max_queue; ++i) free_[size_t(i)] = i;
  free_count_ = options_.max_queue;
  pending_count_ = 0;
  stop_ = false;
}

MicroBatcher::~MicroBatcher() { Stop(); }

void MicroBatcher::Start() {
  const int lanes = options_.num_shards;
  const size_t max_batch = size_t(options_.max_batch);
  const int heap_capacity =
      int(std::min(options_.max_topk, kServeMaxTopK));
  if (lanes > 1 && shard_pool_ == nullptr) {
    // Lane fan-out pool, shared by all workers. The dispatching worker
    // walks lanes too, so lanes - 1 threads give each lane a thread (a
    // pool needs two to run off the caller at all); capped at the
    // machine, and pre-reserved so neither the steady-state StageFor
    // nor one snapshot adoption's fan-out (lane_pool()) grows the task
    // ring.
    shard_pool_ = std::make_unique<ThreadPool>(std::min(
        std::max(size_t(lanes) - 1, size_t{2}), ResolveNumThreads(0)));
    shard_pool_->ReserveStageTasks(
        size_t(options_.num_workers) * size_t(lanes) +
        shard_pool_->MaxFanOutTasks());
  }
  for (int w = 0; w < options_.num_workers; ++w) {
    auto ws = std::make_unique<WorkerState>();
    ws->assembled.batch.resize(max_batch);
    ws->assembled.expired.resize(size_t(options_.max_queue));
    ws->valid.resize(max_batch);
    ws->anchors.resize(max_batch);
    // Pre-grow every heap the walk and the merge can arm so the
    // per-batch ResetCapacity calls never allocate, and size each lane's
    // walk scratch for a full batch on its first use.
    ws->lane_heaps.resize(size_t(lanes) * max_batch);
    for (auto& heap : ws->lane_heaps) heap.Reserve(heap_capacity);
    ws->lane_scratch.resize(size_t(lanes));
    for (auto& scratch : ws->lane_scratch) scratch.min_queries = max_batch;
    ws->lane_stats.resize(size_t(lanes));
    ws->lane_claims = std::vector<TopKLaneClaim>(size_t(lanes));
    ws->heap.Reserve(heap_capacity);
    ws->results.resize(size_t(kServeMaxTopK));
    WorkerState* raw = ws.get();
    ws->thread = std::thread([this, raw] { WorkerLoop(raw); });
    workers_.push_back(std::move(ws));
  }
}

void MicroBatcher::Stop() {
  {
    MutexLock lock(mutex_);
    stop_ = true;
  }
  cv_.NotifyAll();
  for (auto& ws : workers_) {
    if (ws->thread.joinable()) ws->thread.join();
  }
  workers_.clear();
  // Drain anything still queued (covers the never-Started case; after
  // a worker join the queue is normally already empty).
  Assembled leftovers;
  leftovers.expired.resize(size_t(options_.max_queue));
  while (true) {
    {
      MutexLock lock(mutex_);
      if (pending_count_ == 0) break;
      DrainAllLocked(&leftovers);
    }
    for (int i = 0; i < leftovers.expired_count; ++i) {
      // Counters are bumped before the callback fires: a waiter woken by
      // the reply must observe its own request in stats() immediately.
      shutdown_replies_.fetch_add(1, std::memory_order_relaxed);
      RespondEmpty(slots_[size_t(leftovers.expired[size_t(i)])],
                   ServeStatusCode::kShuttingDown);
    }
    ReleaseSlots(leftovers.expired.data(), leftovers.expired_count);
  }
}

void MicroBatcher::Submit(const ServeRequest& request, ServeDoneFn done,
                          void* done_ctx) {
  KGE_CHECK(done != nullptr);
  submitted_.fetch_add(1, std::memory_order_relaxed);
  bool shutting_down = false;
  int slot_id = -1;
  {
    MutexLock lock(mutex_);
    if (stop_) {
      shutting_down = true;
    } else if (free_count_ > 0) {
      slot_id = free_[size_t(--free_count_)];
      Slot& slot = slots_[size_t(slot_id)];
      slot.request = request;
      slot.request.k =
          std::min(std::min(request.k, options_.max_topk), kServeMaxTopK);
      uint32_t deadline_ms = request.deadline_ms != 0
                                 ? request.deadline_ms
                                 : options_.default_deadline_ms;
      if (deadline_ms == 0 || deadline_ms > kServeMaxDeadlineMs) {
        deadline_ms = kServeMaxDeadlineMs;
      }
      slot.deadline_ns = NowNanos() + int64_t(deadline_ms) * 1000000;
      slot.done = done;
      slot.done_ctx = done_ctx;
      pending_[size_t(pending_count_++)] = slot_id;
    }
  }
  if (slot_id >= 0) {
    admitted_.fetch_add(1, std::memory_order_relaxed);
    cv_.NotifyOne();
    return;
  }
  ServeReply reply;
  reply.status = shutting_down ? ServeStatusCode::kShuttingDown
                               : ServeStatusCode::kShed;
  if (shutting_down) {
    shutdown_replies_.fetch_add(1, std::memory_order_relaxed);
  } else {
    shed_.fetch_add(1, std::memory_order_relaxed);
  }
  done(done_ctx, reply);
}

void MicroBatcher::AssembleLocked(int64_t now_ns, Assembled* out) {
  out->batch_count = 0;
  out->expired_count = 0;
  // Pass 1: sweep expired requests out of the queue (any group) and
  // find the earliest-deadline survivor.
  int kept = 0;
  int pick = -1;
  int64_t best_deadline = 0;
  for (int i = 0; i < pending_count_; ++i) {
    const int id = pending_[size_t(i)];
    const Slot& slot = slots_[size_t(id)];
    if (slot.deadline_ns <= now_ns) {
      out->expired[size_t(out->expired_count++)] = id;
      continue;
    }
    pending_[size_t(kept++)] = id;
    if (pick < 0 || slot.deadline_ns < best_deadline) {
      pick = id;
      best_deadline = slot.deadline_ns;
    }
  }
  pending_count_ = kept;
  if (pick < 0) return;
  out->relation = slots_[size_t(pick)].request.relation;
  out->side = slots_[size_t(pick)].request.side;
  // Pass 2: extract up to max_batch requests of the picked group,
  // preserving FIFO order; everything else stays queued.
  kept = 0;
  for (int i = 0; i < pending_count_; ++i) {
    const int id = pending_[size_t(i)];
    const Slot& slot = slots_[size_t(id)];
    if (out->batch_count < options_.max_batch &&
        slot.request.relation == out->relation &&
        slot.request.side == out->side) {
      out->batch[size_t(out->batch_count++)] = id;
    } else {
      pending_[size_t(kept++)] = id;
    }
  }
  pending_count_ = kept;
}

void MicroBatcher::DrainAllLocked(Assembled* out) {
  out->batch_count = 0;
  out->expired_count = 0;
  for (int i = 0; i < pending_count_; ++i) {
    out->expired[size_t(out->expired_count++)] = pending_[size_t(i)];
  }
  pending_count_ = 0;
}

ScorePrecision MicroBatcher::DecideTierLocked() {
  const int in_use = options_.max_queue - free_count_;
  const int pct = (100 * in_use) / options_.max_queue;
  ewma_pct_ = (3 * ewma_pct_ + pct) / 4;
  ScorePrecision tier = ScorePrecision::kDouble;
  if (int(options_.degrade_floor) >= int(ScorePrecision::kFloat32) &&
      ewma_pct_ >= options_.degrade_float32_pct) {
    tier = ScorePrecision::kFloat32;
  }
  if (int(options_.degrade_floor) >= int(ScorePrecision::kInt8) &&
      ewma_pct_ >= options_.degrade_int8_pct) {
    tier = ScorePrecision::kInt8;
  }
  return tier;
}

void MicroBatcher::WalkAssembled(const KgeModel& model, ScorePrecision tier,
                                 WorkerState* ws) {
  const Assembled& assembled = ws->assembled;
  const int lanes = options_.num_shards;
  const size_t max_batch = size_t(options_.max_batch);
  const EntityId num_entities = model.num_entities();
  const bool relation_ok =
      assembled.relation >= 0 && assembled.relation < model.num_relations();
  size_t num_valid = 0;
  for (int i = 0; i < assembled.batch_count; ++i) {
    const ServeRequest& request =
        slots_[size_t(assembled.batch[size_t(i)])].request;
    const bool ok = relation_ok && request.entity >= 0 &&
                    request.entity < num_entities;
    ws->valid[size_t(i)] = ok ? 1 : 0;
    if (!ok) continue;
    ws->anchors[num_valid] = request.entity;
    for (int s = 0; s < lanes; ++s) {
      ws->lane_heaps[size_t(s) * max_batch + num_valid].ResetCapacity(
          int(request.k));
    }
    ++num_valid;
  }
  if (num_valid == 0) return;
  const size_t width = model.FoldWidth();
  const std::span<float> folds =
      ScratchSpan(ws->folds, max_batch * width).first(num_valid * width);
  TopKWalkBatch batch;
  batch.side = assembled.side;
  batch.relation = assembled.relation;
  batch.anchors = std::span<const EntityId>(ws->anchors.data(), num_valid);
  batch.folds = folds;
  batch.precision = tier;
  batch.prune = options_.prune;
  model.FoldQueries(batch.side, batch.relation, batch.anchors, folds);
  const auto walk_lanes = [&](size_t lane_begin, size_t lane_end) {
    for (size_t s = lane_begin; s < lane_end; ++s) {
      model.TopKWalk(batch, int(s), lanes,
                     std::span(ws->lane_heaps.data() + s * max_batch,
                               num_valid),
                     {}, &ws->lane_scratch[s], &ws->lane_stats[s]);
    }
  };
  if (shard_pool_ != nullptr) {
    // Concurrent lanes claim their tiles, so a lane whose thread starts
    // late or is descheduled is helped by the others instead of holding
    // up the whole batch.
    for (TopKLaneClaim& claim : ws->lane_claims) {
      claim.next.store(0, std::memory_order_relaxed);
    }
    batch.lane_claims = ws->lane_claims;
    shard_pool_->StageFor(0, size_t(lanes), walk_lanes);
  } else {
    walk_lanes(0, size_t(lanes));
  }
}

std::span<const ScoredEntity> MicroBatcher::MergeLanes(int v,
                                                       WorkerState* ws) {
  TopKHeap<float, EntityId>* heap = &ws->lane_heaps[size_t(v)];
  if (options_.num_shards > 1) {
    // Lane order keeps the walk deterministic; the (score, id) total
    // order makes the merged set the exact top-k of the union anyway.
    ws->heap.ResetCapacity(heap->capacity());
    for (int s = 0; s < options_.num_shards; ++s) {
      ws->heap.MergeFrom(
          ws->lane_heaps[size_t(s) * size_t(options_.max_batch) + size_t(v)]);
    }
    heap = &ws->heap;
  }
  const auto sorted = heap->TakeSorted();
  for (size_t i = 0; i < sorted.size(); ++i) {
    ws->results[i] = ScoredEntity{sorted[i].entity, sorted[i].score};
  }
  return std::span<const ScoredEntity>(ws->results.data(), sorted.size());
}

void MicroBatcher::RespondEmpty(const Slot& slot, ServeStatusCode status) {
  ServeReply reply;
  reply.status = status;
  slot.done(slot.done_ctx, reply);
}

void MicroBatcher::ReleaseSlots(const int* ids, int count) {
  if (count == 0) return;
  MutexLock lock(mutex_);
  for (int i = 0; i < count; ++i) {
    free_[size_t(free_count_++)] = ids[i];
  }
}

void MicroBatcher::WorkerLoop(WorkerState* ws) {
  while (true) {
    ScorePrecision tier = ScorePrecision::kDouble;
    bool draining = false;
    {
      MutexLock lock(mutex_);
      while (!stop_ && pending_count_ == 0) cv_.Wait(mutex_);
      if (stop_) {
        if (pending_count_ == 0) return;
        DrainAllLocked(&ws->assembled);
        draining = true;
      } else {
        AssembleLocked(NowNanos(), &ws->assembled);
        tier = DecideTierLocked();
      }
    }
    const Assembled& assembled = ws->assembled;
    const ServeStatusCode expiry_status = draining
                                              ? ServeStatusCode::kShuttingDown
                                              : ServeStatusCode::kDeadlineExceeded;
    for (int i = 0; i < assembled.expired_count; ++i) {
      // Stats before callback, so the reply's waiter sees them (see Stop).
      if (draining) {
        shutdown_replies_.fetch_add(1, std::memory_order_relaxed);
      } else {
        expired_.fetch_add(1, std::memory_order_relaxed);
      }
      RespondEmpty(slots_[size_t(assembled.expired[size_t(i)])],
                   expiry_status);
    }
    ReleaseSlots(assembled.expired.data(), assembled.expired_count);
    if (assembled.batch_count == 0) continue;

    const std::shared_ptr<const ModelSnapshot> snapshot =
        registry_->Acquire();
    if (snapshot == nullptr || snapshot->model == nullptr) {
      for (int i = 0; i < assembled.batch_count; ++i) {
        errors_.fetch_add(1, std::memory_order_relaxed);
        RespondEmpty(slots_[size_t(assembled.batch[size_t(i)])],
                     ServeStatusCode::kError);
      }
      ReleaseSlots(assembled.batch.data(), assembled.batch_count);
      continue;
    }

    const KgeModel& model = *snapshot->model;
    const ScorePrecision used = model.SupportsScorePrecision(tier)
                                    ? tier
                                    : ScorePrecision::kDouble;
    WalkAssembled(model, used, ws);
    // Counters are bumped before the first callback (see Stop); the lane
    // tile counters are flushed once per batch, not per walk, to keep
    // atomic traffic off the lanes.
    uint64_t tiles_total = 0, tiles_skipped = 0;
    for (RankScanStats& stats : ws->lane_stats) {
      tiles_total += stats.tiles_total;
      tiles_skipped += stats.tiles_skipped;
      stats = RankScanStats{};
    }
    tiles_total_.fetch_add(tiles_total, std::memory_order_relaxed);
    tiles_skipped_.fetch_add(tiles_skipped, std::memory_order_relaxed);
    batches_.fetch_add(1, std::memory_order_relaxed);
    batched_queries_.fetch_add(uint64_t(assembled.batch_count),
                               std::memory_order_relaxed);
    if (used == ScorePrecision::kFloat32) {
      batches_float32_.fetch_add(1, std::memory_order_relaxed);
    } else if (used == ScorePrecision::kInt8) {
      batches_int8_.fetch_add(1, std::memory_order_relaxed);
    }
    int valid_index = 0;
    for (int i = 0; i < assembled.batch_count; ++i) {
      const Slot& slot = slots_[size_t(assembled.batch[size_t(i)])];
      if (ws->valid[size_t(i)] == 0) {
        invalid_.fetch_add(1, std::memory_order_relaxed);
        RespondEmpty(slot, ServeStatusCode::kInvalid);
        continue;
      }
      ServeReply reply;
      reply.status = ServeStatusCode::kOk;
      reply.tier = used;
      reply.snapshot_version = snapshot->version;
      reply.results = MergeLanes(valid_index++, ws);
      completed_.fetch_add(1, std::memory_order_relaxed);
      slot.done(slot.done_ctx, reply);
    }
    ReleaseSlots(assembled.batch.data(), assembled.batch_count);
  }
}

BatcherStatsView MicroBatcher::stats() const {
  BatcherStatsView view;
  view.submitted = submitted_.load(std::memory_order_relaxed);
  view.admitted = admitted_.load(std::memory_order_relaxed);
  view.shed = shed_.load(std::memory_order_relaxed);
  view.expired = expired_.load(std::memory_order_relaxed);
  view.invalid = invalid_.load(std::memory_order_relaxed);
  view.completed = completed_.load(std::memory_order_relaxed);
  view.errors = errors_.load(std::memory_order_relaxed);
  view.shutdown_replies = shutdown_replies_.load(std::memory_order_relaxed);
  view.batches = batches_.load(std::memory_order_relaxed);
  view.batched_queries = batched_queries_.load(std::memory_order_relaxed);
  view.batches_float32 = batches_float32_.load(std::memory_order_relaxed);
  view.batches_int8 = batches_int8_.load(std::memory_order_relaxed);
  view.tiles_total = tiles_total_.load(std::memory_order_relaxed);
  view.tiles_skipped = tiles_skipped_.load(std::memory_order_relaxed);
  return view;
}

int MicroBatcher::ewma_queue_pct() const {
  MutexLock lock(mutex_);
  return ewma_pct_;
}

}  // namespace kge
