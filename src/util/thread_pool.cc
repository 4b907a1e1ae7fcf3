#include "util/thread_pool.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "util/check.h"

namespace kge {

ThreadPool::ThreadPool(size_t num_threads) {
  if (num_threads <= 1) return;  // Inline mode.
  threads_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mutex_);
    shutting_down_ = true;
  }
  work_available_.NotifyAll();
  for (std::thread& t : threads_) t.join();
}

void ThreadPool::PushRangeTask(const RangeTask& task) {
  if (ring_count_ == ring_.size()) {
    // Grow to the high-water in-flight count once, then never again.
    const size_t capacity = ring_.empty() ? 64 : ring_.size() * 2;
    std::vector<RangeTask> grown;
    // kge-hotpath: allow(ring growth to high-water in-flight task count)
    grown.resize(capacity);
    for (size_t i = 0; i < ring_count_; ++i) {
      grown[i] = ring_[(ring_head_ + i) & (ring_.size() - 1)];
    }
    ring_ = std::move(grown);
    ring_head_ = 0;
  }
  ring_[(ring_head_ + ring_count_) & (ring_.size() - 1)] = task;
  ++ring_count_;
}

void ThreadPool::ReserveStageTasks(size_t capacity) {
  size_t rounded = 64;
  while (rounded < capacity) rounded *= 2;
  MutexLock lock(mutex_);
  if (rounded <= ring_.size()) return;
  std::vector<RangeTask> grown;
  grown.resize(rounded);
  for (size_t i = 0; i < ring_count_; ++i) {
    grown[i] = ring_[(ring_head_ + i) & (ring_.size() - 1)];
  }
  ring_ = std::move(grown);
  ring_head_ = 0;
}

void ThreadPool::ScheduleRange(StageGroup* group, RangeFn fn, void* ctx,
                               size_t begin, size_t end) {
  KGE_CHECK(group != nullptr && fn != nullptr);
  if (threads_.empty()) {
    fn(ctx, begin, end);
    return;
  }
  {
    MutexLock lock(mutex_);
    PushRangeTask({fn, ctx, begin, end, group});
    ++group->pending_;
  }
  work_available_.NotifyOne();
}

bool ThreadPool::PopRangeTask(RangeTask* task) {
  MutexLock lock(mutex_);
  if (ring_count_ == 0) return false;
  *task = ring_[ring_head_ & (ring_.size() - 1)];
  ring_head_ = (ring_head_ + 1) & (ring_.size() - 1);
  --ring_count_;
  return true;
}

void ThreadPool::FinishRangeTask(StageGroup* group) {
  MutexLock lock(mutex_);
  if (--group->pending_ == 0) stage_done_.NotifyAll();
}

void ThreadPool::WaitStage(StageGroup* group) {
  if (threads_.empty()) return;
  for (;;) {
    {
      MutexLock lock(mutex_);
      if (group->pending_ == 0) return;
    }
    if (!RunOneTask()) {
      // Queues empty: the group's remaining tasks are running on
      // workers. (Tasks they spawn into this group extend the wait; the
      // workers that spawned them are free to run them.)
      MutexLock lock(mutex_);
      while (group->pending_ != 0) stage_done_.Wait(mutex_);
      return;
    }
  }
}

bool ThreadPool::RunOneTask() {
  RangeTask range;
  if (!PopRangeTask(&range)) return false;
  range.fn(range.ctx, range.begin, range.end);
  FinishRangeTask(range.group);
  return true;
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    RangeTask range;
    {
      MutexLock lock(mutex_);
      while (!shutting_down_ && ring_count_ == 0) {
        work_available_.Wait(mutex_);
      }
      if (ring_count_ == 0) return;  // Shutting down and drained.
      range = ring_[ring_head_ & (ring_.size() - 1)];
      ring_head_ = (ring_head_ + 1) & (ring_.size() - 1);
      --ring_count_;
    }
    range.fn(range.ctx, range.begin, range.end);
    FinishRangeTask(range.group);
  }
}

size_t ResolveNumThreads(int requested) {
  if (requested >= 1) return size_t(requested);
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : size_t(hw);
}

}  // namespace kge
