#include "core/parameter_block.h"

#include <gtest/gtest.h>

#include <sys/mman.h>
#include <unistd.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <map>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include "math/vec_ops.h"

// Counts operator-new calls so a test can assert a code region allocates
// nothing. Sanitizers intercept operator new themselves, so the counter
// (and the assertions on it) compile out under ASan/TSan.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define KGE_COUNT_ALLOCS 0
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define KGE_COUNT_ALLOCS 0
#else
#define KGE_COUNT_ALLOCS 1
#endif
#else
#define KGE_COUNT_ALLOCS 1
#endif

#if KGE_COUNT_ALLOCS
namespace {
std::atomic<uint64_t> g_alloc_count{0};
}  // namespace

// Kept out of line: inlined into the containers' (de)allocate, the
// malloc()/free() pairs read to GCC as mismatched new/delete.
__attribute__((noinline)) void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

__attribute__((noinline)) void operator delete(void* p) noexcept {
  std::free(p);
}
__attribute__((noinline)) void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
#endif  // KGE_COUNT_ALLOCS

namespace kge {
namespace {

TEST(ParameterBlockTest, ShapeAndZeroInit) {
  ParameterBlock block("test", 10, 4);
  EXPECT_EQ(block.num_rows(), 10);
  EXPECT_EQ(block.row_dim(), 4);
  EXPECT_EQ(block.size(), 40);
  EXPECT_EQ(block.name(), "test");
  for (float x : block.Flat()) EXPECT_EQ(x, 0.0f);
}

TEST(ParameterBlockTest, RowsAreDisjointViews) {
  ParameterBlock block("test", 3, 2);
  block.Row(1)[0] = 7.0f;
  block.Row(1)[1] = 8.0f;
  EXPECT_EQ(block.Row(0)[0], 0.0f);
  EXPECT_EQ(block.Row(1)[0], 7.0f);
  EXPECT_EQ(block.Row(2)[0], 0.0f);
  EXPECT_EQ(block.Flat()[2], 7.0f);
}

TEST(ParameterBlockTest, InitUniformWithinBounds) {
  ParameterBlock block("test", 100, 10);
  Rng rng(1);
  block.InitUniform(&rng, -0.5f, 0.5f);
  for (float x : block.Flat()) {
    EXPECT_GE(x, -0.5f);
    EXPECT_LT(x, 0.5f);
  }
}

TEST(ParameterBlockTest, InitGaussianHasRoughlyRightSpread) {
  ParameterBlock block("test", 100, 100);
  Rng rng(2);
  block.InitGaussian(&rng, 0.1f);
  double sum_sq = 0.0;
  for (float x : block.Flat()) sum_sq += double(x) * double(x);
  const double stddev = std::sqrt(sum_sq / double(block.size()));
  EXPECT_NEAR(stddev, 0.1, 0.01);
}

TEST(ParameterBlockTest, InitXavierUniformBound) {
  ParameterBlock block("test", 10, 100);
  Rng rng(3);
  block.InitXavierUniform(&rng, 100);
  const float bound = std::sqrt(6.0f / 100.0f);
  for (float x : block.Flat()) {
    EXPECT_GE(x, -bound);
    EXPECT_LT(x, bound);
  }
}

TEST(ParameterBlockTest, ZeroResets) {
  ParameterBlock block("test", 2, 2);
  Rng rng(4);
  block.InitUniform(&rng, 1.0f, 2.0f);
  block.Zero();
  for (float x : block.Flat()) EXPECT_EQ(x, 0.0f);
}

// Pages wholly inside `block`'s storage that the kernel has resident,
// per mincore().
size_t ResidentPages(const ParameterBlock& block) {
  const auto page = uintptr_t(::sysconf(_SC_PAGESIZE));
  const std::span<const float> flat = block.Flat();
  const auto begin =
      (reinterpret_cast<uintptr_t>(flat.data()) + page - 1) & ~(page - 1);
  const auto end =
      reinterpret_cast<uintptr_t>(flat.data() + flat.size()) & ~(page - 1);
  const size_t length = size_t(end - begin);
  std::vector<unsigned char> resident((length + page - 1) / page);
  EXPECT_EQ(::mincore(reinterpret_cast<void*>(begin), length,
                      resident.data()),
            0);
  size_t count = 0;
  for (unsigned char r : resident) count += r & 1u;
  return count;
}

// A large block is fresh zero pages however many tables of its size
// were written and freed before it: its storage is its own anonymous
// mapping, not heap memory a freed table left resident (glibc raises
// its mmap threshold to the size of each freed mapped chunk up to
// 32 MiB, so calloc'd tables after the first came from the heap, and
// the third reused the second's written pages). Nothing is resident
// until a row is written.
TEST(ParameterBlockTest, LargeBlocksStartWithNoResidentPages) {
  constexpr int64_t kRows = 4096;
  constexpr int64_t kDim = 1024;  // 16 MiB
  static_assert(size_t(kRows * kDim) * sizeof(float) >=
                ParameterBlock::kMappedStorageBytes);
  for (int round = 0; round < 3; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    ParameterBlock block("table", kRows, kDim);
    EXPECT_EQ(ResidentPages(block), 0u);
    block.Row(kRows / 2)[0] = 1.0f;
    EXPECT_GE(ResidentPages(block), 1u);
    // Write every page, then free the block.
    for (float& x : block.Flat()) x = 2.0f;
  }
}

TEST(ParameterBlockTest, SmallAndLargeBlocksStartZeroAndBorrowCleanly) {
  for (const int64_t rows : {int64_t{4}, int64_t{1} << 16}) {
    ParameterBlock block("table", rows, 8);
    for (float x : std::as_const(block).Flat()) ASSERT_EQ(x, 0.0f);
    block.Row(rows - 1)[7] = 3.0f;
    std::vector<float> backing(size_t(block.size()), 5.0f);
    block.BorrowStorage(backing.data(), block.size());
    EXPECT_TRUE(block.borrows_storage());
    EXPECT_EQ(std::as_const(block).Row(rows - 1)[7], 5.0f);
  }
}

TEST(GradientBufferTest, GradForZeroedOnFirstTouch) {
  ParameterBlock block("test", 5, 3);
  GradientBuffer grads({&block});
  auto g = grads.GradFor(0, 2);
  EXPECT_EQ(g.size(), 3u);
  for (float x : g) EXPECT_EQ(x, 0.0f);
}

TEST(GradientBufferTest, AccumulatesAcrossCalls) {
  ParameterBlock block("test", 5, 2);
  GradientBuffer grads({&block});
  grads.GradFor(0, 1)[0] += 1.0f;
  grads.GradFor(0, 1)[0] += 2.0f;
  EXPECT_EQ(grads.GradFor(0, 1)[0], 3.0f);
}

TEST(GradientBufferTest, SpansStayValidAsMoreRowsAreTouched) {
  // Regression test: earlier spans must not dangle when later GradFor
  // calls grow the pool.
  ParameterBlock block("test", 1000, 4);
  GradientBuffer grads({&block});
  auto first = grads.GradFor(0, 0);
  first[0] = 42.0f;
  for (int64_t row = 1; row < 500; ++row) grads.GradFor(0, row)[0] = float(row);
  EXPECT_EQ(first[0], 42.0f);
  first[1] = 7.0f;
  EXPECT_EQ(grads.GradFor(0, 0)[1], 7.0f);
}

TEST(GradientBufferTest, ClearRecyclesAndZeroes) {
  ParameterBlock block("test", 5, 2);
  GradientBuffer grads({&block});
  grads.GradFor(0, 3)[0] = 9.0f;
  grads.Clear();
  EXPECT_EQ(grads.NumTouchedRows(), 0u);
  auto g = grads.GradFor(0, 4);  // recycles slot 0
  EXPECT_EQ(g[0], 0.0f);
  EXPECT_EQ(grads.NumTouchedRows(), 1u);
}

TEST(GradientBufferTest, MultipleBlocks) {
  ParameterBlock entities("entities", 10, 4);
  ParameterBlock relations("relations", 5, 2);
  GradientBuffer grads({&entities, &relations});
  EXPECT_EQ(grads.num_blocks(), 2u);
  EXPECT_EQ(grads.GradFor(0, 0).size(), 4u);
  EXPECT_EQ(grads.GradFor(1, 0).size(), 2u);
  EXPECT_EQ(grads.block(1)->name(), "relations");
}

TEST(GradientBufferTest, ForEachVisitsEveryTouchedRowOnce) {
  ParameterBlock a("a", 10, 2);
  ParameterBlock b("b", 10, 3);
  GradientBuffer grads({&a, &b});
  grads.GradFor(0, 1)[0] = 1.0f;
  grads.GradFor(0, 7)[0] = 2.0f;
  grads.GradFor(1, 3)[0] = 3.0f;
  grads.GradFor(0, 1)[1] = 4.0f;  // same row again

  std::map<std::pair<size_t, int64_t>, int> visits;
  grads.ForEach([&](size_t block, int64_t row, std::span<const float> grad) {
    ++visits[{block, row}];
    if (block == 0 && row == 1) {
      EXPECT_EQ(grad[0], 1.0f);
      EXPECT_EQ(grad[1], 4.0f);
    }
  });
  EXPECT_EQ(visits.size(), 3u);
  for (const auto& [key, count] : visits) EXPECT_EQ(count, 1);
}

TEST(GradientBufferTest, NumTouchedRows) {
  ParameterBlock block("test", 10, 2);
  GradientBuffer grads({&block});
  EXPECT_EQ(grads.NumTouchedRows(), 0u);
  grads.GradFor(0, 1);
  grads.GradFor(0, 2);
  grads.GradFor(0, 1);
  EXPECT_EQ(grads.NumTouchedRows(), 2u);
}

TEST(GradientBufferTest, FindReturnsAccumulatorOnlyForTouchedRows) {
  ParameterBlock block("e", 8, 4);
  GradientBuffer grads({&block});
  grads.GradFor(0, 3)[1] = 2.5f;
  const std::span<const float> hit = grads.Find(0, 3);
  ASSERT_EQ(hit.size(), 4u);
  EXPECT_EQ(hit[1], 2.5f);
  // Absent rows come back empty and must NOT be inserted by the lookup.
  EXPECT_TRUE(grads.Find(0, 5).empty());
  EXPECT_EQ(grads.NumTouchedRows(), 1u);
  // After Clear the row is untouched again.
  grads.Clear();
  EXPECT_TRUE(grads.Find(0, 3).empty());
}

TEST(GradientBufferTest, ShardOfRowIsAPartition) {
  // Every (block, row) maps to exactly one shard in [0, num_shards), and
  // the assignment is a pure function (stable across calls).
  for (size_t num_shards : {1u, 2u, 3u, 7u}) {
    for (size_t b = 0; b < 3; ++b) {
      for (int64_t row = 0; row < 500; ++row) {
        const size_t shard = GradientBuffer::ShardOfRow(b, row, num_shards);
        EXPECT_LT(shard, num_shards);
        EXPECT_EQ(shard, GradientBuffer::ShardOfRow(b, row, num_shards));
      }
    }
  }
  // The hash should actually spread rows: with 4 shards over 512 rows no
  // shard may be empty or hold almost everything.
  int counts[4] = {0, 0, 0, 0};
  for (int64_t row = 0; row < 512; ++row) {
    ++counts[GradientBuffer::ShardOfRow(0, row, 4)];
  }
  for (int count : counts) {
    EXPECT_GT(count, 512 / 16);
    EXPECT_LT(count, 512 * 7 / 8);
  }
}

TEST(GradientBufferTest, ForEachShardPartitionsTouchedRows) {
  ParameterBlock a("a", 64, 2);
  ParameterBlock b("b", 64, 2);
  GradientBuffer grads({&a, &b});
  for (int64_t row = 0; row < 40; ++row) {
    grads.GradFor(0, row)[0] = float(row);
    grads.GradFor(1, row)[1] = float(-row);
  }
  constexpr size_t kShards = 4;
  std::map<std::pair<size_t, int64_t>, int> visits;
  for (size_t shard = 0; shard < kShards; ++shard) {
    grads.ForEachShard(shard, kShards,
                       [&](size_t block, int64_t row, std::span<const float>) {
                         ++visits[{block, row}];
                       });
  }
  // Union over shards == ForEach, each row exactly once.
  size_t total = 0;
  grads.ForEach([&](size_t block, int64_t row, std::span<const float>) {
    ++total;
    EXPECT_EQ(visits[std::make_pair(block, row)], 1)
        << "block " << block << " row " << row;
  });
  EXPECT_EQ(total, visits.size());
  EXPECT_EQ(total, grads.NumTouchedRows());
}

TEST(GradientBufferTest, TableGrowthPreservesAccumulators) {
  // Touch far more rows than the initial probe-table capacity so the
  // table rehashes several times mid-batch; earlier accumulators and the
  // spans handed out for them must survive.
  ParameterBlock block("e", 4096, 2);
  GradientBuffer grads({&block});
  const std::span<float> first = grads.GradFor(0, 0);
  first[0] = 1.0f;
  for (int64_t row = 0; row < 1000; ++row) grads.GradFor(0, row)[1] += 1.0f;
  for (int64_t row = 0; row < 1000; ++row) {
    const std::span<const float> g = grads.Find(0, row);
    ASSERT_EQ(g.size(), 2u);
    EXPECT_EQ(g[0], row == 0 ? 1.0f : 0.0f) << "row " << row;
    EXPECT_EQ(g[1], 1.0f) << "row " << row;
  }
  EXPECT_EQ(first.data(), grads.Find(0, 0).data());  // span stayed valid
}

TEST(GradientBufferTest, ReserveIsCappedAtEachBlocksRowCount) {
  // A batch-sized reservation must not pool more rows than a small
  // block (a relation table) has — and touching every row of every block
  // must still allocate nothing.
  ParameterBlock entities("entities", 500, 8);
  ParameterBlock relations("relations", 18, 8);
  GradientBuffer grads({&entities, &relations});
  grads.Reserve(300);
  EXPECT_EQ(grads.PooledRows(0), 300u);
  EXPECT_EQ(grads.PooledRows(1), 18u);

  grads.Reserve(3000);  // more than either block has
  EXPECT_EQ(grads.PooledRows(0), 500u);
  EXPECT_EQ(grads.PooledRows(1), 18u);
#if KGE_COUNT_ALLOCS
  const uint64_t before = g_alloc_count.load(std::memory_order_relaxed);
#endif
  for (int round = 0; round < 2; ++round) {
    grads.Clear();
    for (int64_t row = 0; row < 500; ++row) grads.GradFor(0, row)[0] += 1.0f;
    for (int64_t row = 0; row < 18; ++row) grads.GradFor(1, row)[0] += 1.0f;
  }
#if KGE_COUNT_ALLOCS
  EXPECT_EQ(g_alloc_count.load(std::memory_order_relaxed), before);
#endif
  EXPECT_EQ(grads.NumTouchedRows(), 518u);
  EXPECT_EQ(grads.PooledRows(0), 500u);
  EXPECT_EQ(grads.PooledRows(1), 18u);
}

}  // namespace
}  // namespace kge
