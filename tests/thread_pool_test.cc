#include "util/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <vector>

namespace kge {
namespace {

// The counter bump every single-task test below schedules.
void Bump(void* ctx, size_t, size_t) {
  static_cast<std::atomic<int>*>(ctx)->fetch_add(1);
}

TEST(ThreadPoolTest, InlineModeRunsTasks) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.num_threads(), 1u);
  ThreadPool::StageGroup group;
  std::atomic<int> counter{0};
  pool.ScheduleRange(&group, &Bump, &counter, 0, 1);
  EXPECT_EQ(counter.load(), 1);  // ran before ScheduleRange returned
  pool.WaitStage(&group);
  EXPECT_EQ(counter.load(), 1);
}

TEST(ThreadPoolTest, RunsAllScheduledTasks) {
  ThreadPool pool(4);
  ThreadPool::StageGroup group;
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.ScheduleRange(&group, &Bump, &counter, 0, 1);
  }
  pool.WaitStage(&group);
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, ParallelForEmptyRange) {
  ThreadPool pool(2);
  bool called = false;
  pool.StageFor(5, 5, [&](size_t, size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPoolTest, ParallelForSingleElement) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  pool.StageFor(3, 4, [&](size_t begin, size_t end) {
    EXPECT_EQ(begin, 3u);
    EXPECT_EQ(end, 4u);
    count.fetch_add(1);
  });
  EXPECT_EQ(count.load(), 1);
}

TEST(ThreadPoolTest, ParallelSumMatchesSerial) {
  ThreadPool pool(3);
  std::vector<int64_t> data(10000);
  std::iota(data.begin(), data.end(), 1);
  std::atomic<int64_t> parallel_sum{0};
  pool.StageFor(0, data.size(), [&](size_t begin, size_t end) {
    int64_t local = 0;
    for (size_t i = begin; i < end; ++i) local += data[i];
    parallel_sum.fetch_add(local);
  });
  const int64_t expected = std::accumulate(data.begin(), data.end(), int64_t{0});
  EXPECT_EQ(parallel_sum.load(), expected);
}

// ---- Per-stage completion groups (the pipeline primitive) ------------------

TEST(ThreadPoolTest, StageForCoversRangeExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> touched(1000);
  pool.StageFor(0, touched.size(), [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) touched[i].fetch_add(1);
  });
  for (const auto& t : touched) EXPECT_EQ(t.load(), 1);
}

TEST(ThreadPoolTest, StageForInlineMode) {
  ThreadPool pool(1);
  std::vector<int> values(50, 0);
  pool.StageFor(0, values.size(), [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) values[i] = int(i);
  });
  for (size_t i = 0; i < values.size(); ++i) EXPECT_EQ(values[i], int(i));
}

TEST(ThreadPoolTest, WaitStageJoinsExactlyThatGroup) {
  ThreadPool pool(4);
  ThreadPool::StageGroup slow_group;
  ThreadPool::StageGroup fast_group;
  std::atomic<int> slow_count{0};
  std::atomic<int> fast_count{0};
  struct Ctx {
    std::atomic<int>* counter;
  } slow_ctx{&slow_count}, fast_ctx{&fast_count};
  ThreadPool::RangeFn bump = [](void* ctx, size_t begin, size_t end) {
    static_cast<Ctx*>(ctx)->counter->fetch_add(int(end - begin));
  };
  for (size_t i = 0; i < 32; ++i) {
    pool.ScheduleRange(&slow_group, bump, &slow_ctx, i, i + 1);
    pool.ScheduleRange(&fast_group, bump, &fast_ctx, i, i + 1);
  }
  pool.WaitStage(&fast_group);
  EXPECT_EQ(fast_count.load(), 32);  // this group is complete...
  pool.WaitStage(&slow_group);       // ...the other only after its own join
  EXPECT_EQ(slow_count.load(), 32);
}

TEST(ThreadPoolTest, StageGroupIsReusableAfterWait) {
  ThreadPool pool(2);
  ThreadPool::StageGroup group;
  std::atomic<int> counter{0};
  ThreadPool::RangeFn bump = [](void* ctx, size_t, size_t) {
    static_cast<std::atomic<int>*>(ctx)->fetch_add(1);
  };
  for (int round = 0; round < 10; ++round) {
    for (int i = 0; i < 8; ++i) {
      pool.ScheduleRange(&group, bump, &counter, 0, 1);
    }
    pool.WaitStage(&group);
    EXPECT_EQ(counter.load(), (round + 1) * 8);
  }
}

TEST(ThreadPoolTest, WaitStageWithNoTasksReturnsImmediately) {
  ThreadPool pool(2);
  ThreadPool::StageGroup group;
  pool.WaitStage(&group);  // must not hang
  SUCCEED();
}

TEST(ThreadPoolTest, StageFanOutDefersUntilWaitStage) {
  ThreadPool pool(3);
  ThreadPool::StageGroup group;
  std::vector<std::atomic<int>> touched(257);
  auto body = [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) touched[i].fetch_add(1);
  };
  pool.StageFanOut(&group, 0, touched.size(), body);
  // The caller is free to do unrelated work here; body stays alive until
  // the join below.
  pool.WaitStage(&group);
  for (const auto& t : touched) EXPECT_EQ(t.load(), 1);
}

TEST(ThreadPoolTest, StageRingGrowsPastReservation) {
  ThreadPool pool(2);
  pool.ReserveStageTasks(4);
  ThreadPool::StageGroup group;
  std::atomic<int> counter{0};
  ThreadPool::RangeFn bump = [](void* ctx, size_t, size_t) {
    static_cast<std::atomic<int>*>(ctx)->fetch_add(1);
  };
  for (int i = 0; i < 500; ++i) {
    pool.ScheduleRange(&group, bump, &counter, 0, 1);
  }
  pool.WaitStage(&group);
  EXPECT_EQ(counter.load(), 500);
}

TEST(ResolveNumThreadsTest, PositivePassesThroughZeroAutoDetects) {
  EXPECT_EQ(ResolveNumThreads(1), 1u);
  EXPECT_EQ(ResolveNumThreads(7), 7u);
  EXPECT_GE(ResolveNumThreads(0), 1u);   // auto: hardware_concurrency
  EXPECT_GE(ResolveNumThreads(-3), 1u);  // negative treated as auto
}

}  // namespace
}  // namespace kge
