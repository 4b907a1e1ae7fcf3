// Fixed-size thread pool with per-stage completion groups. Used to
// parallelize ranking evaluation, the serving walk's lanes, snapshot
// adoption and the pipelined trainers' stage machines. With
// num_threads == 1 all work runs inline on the calling thread, which
// keeps single-core runs (and tests) deterministic.
//
// One scheduling surface: StageGroup + ScheduleRange()/StageFor() +
// WaitStage(). Tasks are plain (function pointer, context, range)
// records stored in a pre-reserved ring, so the steady state enqueues
// and completes without a single heap allocation, and WaitStage(group)
// waits for exactly that group's tasks — other stages keep flowing
// through the pool concurrently. This is what lets the trainers overlap
// sampling of batch N+1 with the score and step stages of batch N
// without a global barrier.
//
// WaitStage may be called from inside a pool task (nested parallelism):
// the calling thread helps drain the queue while it waits, so nesting
// cannot deadlock even on a single-worker pool.
#ifndef KGE_UTIL_THREAD_POOL_H_
#define KGE_UTIL_THREAD_POOL_H_

#include <cstddef>
#include <thread>
#include <vector>

#include "util/thread_annotations.h"

namespace kge {

class ThreadPool {
 public:
  // Plain task shape for the allocation-free stage queue: runs
  // fn(ctx, begin, end). `ctx` must stay valid until the task's group
  // has been waited on.
  using RangeFn = void (*)(void* ctx, size_t begin, size_t end);

  // A per-stage completion group. Create one per pipeline stage (or on
  // the stack for a fork-join region), schedule tasks into it, and
  // WaitStage() for just those tasks — scheduling into other groups
  // proceeds concurrently. A group may be reused after WaitStage()
  // returns; it must not be destroyed with tasks pending.
  class StageGroup {
   public:
    StageGroup() = default;
    StageGroup(const StageGroup&) = delete;
    StageGroup& operator=(const StageGroup&) = delete;

   private:
    friend class ThreadPool;
    // Scheduled-but-unfinished tasks; guarded by the owning pool's
    // mutex_ (the annotation cannot name another object's member).
    size_t pending_ = 0;
  };

  // Creates `num_threads` workers. 0 or 1 means "run inline".
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t num_threads() const { return threads_.empty() ? 1 : threads_.size(); }

  // Most tasks one StageFanOut/StageFor call enqueues (it over-shards to
  // four per thread): what ReserveStageTasks needs per concurrent fan-out.
  size_t MaxFanOutTasks() const { return 4 * num_threads(); }

  // Enqueues fn(ctx, begin, end) into `group`. Inline pools run the task
  // immediately. Steady-state allocation-free once the ring has grown to
  // (or been ReserveStageTasks'd at) the high-water task count.
  void ScheduleRange(StageGroup* group, RangeFn fn, void* ctx, size_t begin,
                     size_t end) KGE_EXCLUDES(mutex_);

  // Blocks until every task scheduled into `group` has finished. The
  // caller helps drain the queue (any group's tasks) while waiting, so
  // WaitStage is safe from inside a pool task.
  void WaitStage(StageGroup* group) KGE_EXCLUDES(mutex_);

  // Pre-sizes the stage-task ring so the steady state never grows it.
  void ReserveStageTasks(size_t capacity) KGE_EXCLUDES(mutex_);

  // Shards [begin, end) across the pool into `group` without waiting:
  // the allocation-free fan-out primitive for pipeline stages. `body`
  // (callable as body(shard_begin, shard_end)) must outlive the group's
  // WaitStage. No std::function is formed — the body is passed by
  // context pointer through the POD ring.
  template <typename Body>
  void StageFanOut(StageGroup* group, size_t begin, size_t end,
                   const Body& body) {
    if (begin >= end) return;
    const size_t n = end - begin;
    const size_t workers = num_threads();
    RangeFn tramp = [](void* ctx, size_t b, size_t e) {
      (*static_cast<const Body*>(ctx))(b, e);
    };
    void* ctx = const_cast<void*>(static_cast<const void*>(&body));
    if (workers == 1 || n == 1) {
      ScheduleRange(group, tramp, ctx, begin, end);
      return;
    }
    // Over-shard lightly so uneven tasks balance.
    const size_t shards = n < MaxFanOutTasks() ? n : MaxFanOutTasks();
    const size_t chunk = (n + shards - 1) / shards;
    for (size_t s = begin; s < end; s += chunk) {
      ScheduleRange(group, tramp, ctx, s, s + chunk < end ? s + chunk : end);
    }
  }

  // Fork-join over [begin, end): StageFanOut into a stack group and
  // WaitStage. Forms no std::function, so hot per-batch callers (the
  // trainers' stages and step passes) stay allocation-free. Safe to call
  // from inside a pool task.
  template <typename Body>
  void StageFor(size_t begin, size_t end, const Body& body) {
    if (begin >= end) return;
    if (threads_.empty()) {
      body(begin, end);
      return;
    }
    StageGroup group;
    StageFanOut(&group, begin, end, body);
    WaitStage(&group);
  }

 private:
  struct RangeTask {
    RangeFn fn;
    void* ctx;
    size_t begin;
    size_t end;
    StageGroup* group;
  };

  void WorkerLoop() KGE_EXCLUDES(mutex_);
  // Pops and runs one queued task on the calling thread. Returns false
  // if the ring was empty.
  bool RunOneTask() KGE_EXCLUDES(mutex_);
  void FinishRangeTask(StageGroup* group) KGE_EXCLUDES(mutex_);
  bool PopRangeTask(RangeTask* task) KGE_EXCLUDES(mutex_);
  void PushRangeTask(const RangeTask& task) KGE_REQUIRES(mutex_);

  std::vector<std::thread> threads_;
  Mutex mutex_;
  CondVar work_available_;
  CondVar stage_done_;
  // Stage-task ring buffer (power-of-two capacity, FIFO). Grows only
  // until the high-water in-flight task count is reached.
  std::vector<RangeTask> ring_ KGE_GUARDED_BY(mutex_);
  size_t ring_head_ KGE_GUARDED_BY(mutex_) = 0;
  size_t ring_count_ KGE_GUARDED_BY(mutex_) = 0;
  bool shutting_down_ KGE_GUARDED_BY(mutex_) = false;
};

// Resolves a user-facing thread-count knob: values >= 1 pass through,
// 0 (the "auto" default) detects std::thread::hardware_concurrency()
// (falling back to 1 when the runtime reports 0). Results never depend
// on the resolved count — the trainers' determinism contract — so auto
// is always safe to default.
size_t ResolveNumThreads(int requested);

}  // namespace kge

#endif  // KGE_UTIL_THREAD_POOL_H_
