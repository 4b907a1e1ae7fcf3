// Stress coverage for ThreadPool under contention: floods of small tasks,
// nested parallel-for loops (StageFor, which deadlocked before the pool
// learned to help drain the queue while waiting), tasks that schedule
// into the group being waited on, and concurrent parallel-for calls from
// independent threads. Run these under -DKGE_SANITIZE=thread; every
// scenario is designed to give TSan real interleavings to check.
#include "util/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <thread>
#include <vector>

namespace kge {
namespace {

void Bump(void* ctx, size_t, size_t) {
  static_cast<std::atomic<int>*>(ctx)->fetch_add(1, std::memory_order_relaxed);
}

TEST(ThreadPoolStressTest, FloodOfSmallTasks) {
  ThreadPool pool(4);
  ThreadPool::StageGroup group;
  std::atomic<int> counter{0};
  constexpr int kTasks = 20000;
  for (int i = 0; i < kTasks; ++i) {
    pool.ScheduleRange(&group, &Bump, &counter, 0, 1);
  }
  pool.WaitStage(&group);
  EXPECT_EQ(counter.load(), kTasks);
}

TEST(ThreadPoolStressTest, RepeatedSmallParallelFors) {
  ThreadPool pool(4);
  std::atomic<size_t> total{0};
  for (int round = 0; round < 300; ++round) {
    pool.StageFor(0, 7, [&](size_t begin, size_t end) {
      total.fetch_add(end - begin, std::memory_order_relaxed);
    });
  }
  EXPECT_EQ(total.load(), 300u * 7u);
}

TEST(ThreadPoolStressTest, NestedParallelFor) {
  ThreadPool pool(4);
  constexpr size_t kOuter = 24;
  constexpr size_t kInner = 32;
  std::vector<std::atomic<int>> touched(kOuter * kInner);
  pool.StageFor(0, kOuter, [&](size_t obegin, size_t oend) {
    for (size_t o = obegin; o < oend; ++o) {
      pool.StageFor(0, kInner, [&, o](size_t ibegin, size_t iend) {
        for (size_t i = ibegin; i < iend; ++i) {
          touched[o * kInner + i].fetch_add(1, std::memory_order_relaxed);
        }
      });
    }
  });
  for (const auto& t : touched) EXPECT_EQ(t.load(), 1);
}

TEST(ThreadPoolStressTest, TriplyNestedParallelForOnTinyPool) {
  // A two-worker pool with three nesting levels: progress is only
  // possible because waiting callers execute queued shards themselves.
  ThreadPool pool(2);
  std::atomic<int> leaves{0};
  pool.StageFor(0, 4, [&](size_t b0, size_t e0) {
    for (size_t i0 = b0; i0 < e0; ++i0) {
      pool.StageFor(0, 4, [&](size_t b1, size_t e1) {
        for (size_t i1 = b1; i1 < e1; ++i1) {
          pool.StageFor(0, 4, [&](size_t b2, size_t e2) {
            leaves.fetch_add(int(e2 - b2), std::memory_order_relaxed);
          });
        }
      });
    }
  });
  EXPECT_EQ(leaves.load(), 4 * 4 * 4);
}

constexpr int kChainDepth = 500;

// Tasks that schedule more tasks into the group they run in.
struct Spawner {
  ThreadPool* pool;
  ThreadPool::StageGroup* group;
  std::atomic<int> count{0};

  // Counts itself and schedules its successor, kChainDepth hops in all.
  static void Hop(void* ctx, size_t, size_t) {
    auto* self = static_cast<Spawner*>(ctx);
    if (self->count.fetch_add(1, std::memory_order_relaxed) + 1 <
        kChainDepth) {
      self->pool->ScheduleRange(self->group, &Hop, self, 0, 1);
    }
  }
  // Schedules four leaves, then counts itself.
  static void FanOut(void* ctx, size_t, size_t) {
    auto* self = static_cast<Spawner*>(ctx);
    for (int j = 0; j < 4; ++j) {
      self->pool->ScheduleRange(self->group, &Leaf, self, 0, 1);
    }
    self->count.fetch_add(1, std::memory_order_relaxed);
  }
  static void Leaf(void* ctx, size_t, size_t) {
    static_cast<Spawner*>(ctx)->count.fetch_add(1, std::memory_order_relaxed);
  }
};

TEST(ThreadPoolStressTest, ScheduleDuringWaitChain) {
  // Each task schedules its successor; WaitStage must cover tasks
  // scheduled into the group while it is already blocking.
  ThreadPool pool(3);
  ThreadPool::StageGroup group;
  Spawner chain{&pool, &group};
  pool.ScheduleRange(&group, &Spawner::Hop, &chain, 0, 1);
  pool.WaitStage(&group);
  EXPECT_EQ(chain.count.load(), kChainDepth);
}

TEST(ThreadPoolStressTest, TasksFanOutDuringWait) {
  ThreadPool pool(4);
  ThreadPool::StageGroup group;
  Spawner fan{&pool, &group};
  for (int i = 0; i < 50; ++i) {
    pool.ScheduleRange(&group, &Spawner::FanOut, &fan, 0, 1);
  }
  pool.WaitStage(&group);
  EXPECT_EQ(fan.count.load(), 50 * 5);
}

TEST(ThreadPoolStressTest, ConcurrentParallelForsFromExternalThreads) {
  // Several client threads share one pool; each StageFor call tracks its
  // own completion group, so results must not bleed across calls.
  ThreadPool pool(4);
  constexpr int kClients = 6;
  constexpr size_t kItems = 2000;
  std::vector<size_t> sums(kClients, 0);
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      std::atomic<size_t> sum{0};
      pool.StageFor(0, kItems, [&](size_t begin, size_t end) {
        size_t local = 0;
        for (size_t i = begin; i < end; ++i) local += i;
        sum.fetch_add(local, std::memory_order_relaxed);
      });
      sums[size_t(c)] = sum.load();
    });
  }
  for (std::thread& t : clients) t.join();
  const size_t expected = kItems * (kItems - 1) / 2;
  for (int c = 0; c < kClients; ++c) EXPECT_EQ(sums[size_t(c)], expected);
}

TEST(ThreadPoolStressTest, NestedParallelForInInlineMode) {
  ThreadPool pool(1);
  std::atomic<int> leaves{0};
  pool.StageFor(0, 8, [&](size_t b0, size_t e0) {
    for (size_t i = b0; i < e0; ++i) {
      pool.StageFor(0, 8, [&](size_t b1, size_t e1) {
        leaves.fetch_add(int(e1 - b1), std::memory_order_relaxed);
      });
    }
  });
  EXPECT_EQ(leaves.load(), 64);
}

TEST(ThreadPoolStressTest, ManyPoolsConstructedAndDestroyed) {
  // Construction/destruction races (worker startup vs. shutdown flag).
  for (int round = 0; round < 50; ++round) {
    ThreadPool pool(3);
    ThreadPool::StageGroup group;
    std::atomic<int> counter{0};
    for (int i = 0; i < 16; ++i) {
      pool.ScheduleRange(&group, &Bump, &counter, 0, 1);
    }
    pool.WaitStage(&group);
    EXPECT_EQ(counter.load(), 16);
  }
}

}  // namespace
}  // namespace kge
