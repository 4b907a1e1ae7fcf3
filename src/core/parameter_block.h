// ParameterBlock: a named, row-structured flat float parameter array —
// the unit of storage the optimizers update. Embedding matrices are
// blocks with one row per entity/relation; the learnable weight vector ω
// is a block with a single row. GradientBuffer accumulates sparse
// per-row gradients for one mini-batch.
#ifndef KGE_CORE_PARAMETER_BLOCK_H_
#define KGE_CORE_PARAMETER_BLOCK_H_

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "util/hotpath.h"
#include "util/random.h"

namespace kge {

class ParameterBlock {
 public:
  // Zero-filled. A block of at least kMappedStorageBytes gets its own
  // anonymous mapping: fresh zero pages the kernel maps only on first
  // write, so an embedding table that is never written before
  // BorrowStorage replaces it (a serving snapshot's) costs neither time
  // nor resident memory, and a freed table goes back to the kernel
  // instead of staying resident on the heap for the next one. The
  // mapping asks for transparent huge pages. Smaller blocks come from
  // calloc.
  ParameterBlock(std::string name, int64_t num_rows, int64_t row_dim);

  static constexpr size_t kMappedStorageBytes = size_t{1} << 20;

  const std::string& name() const { return name_; }
  int64_t num_rows() const { return num_rows_; }
  int64_t row_dim() const { return row_dim_; }
  int64_t size() const { return num_rows_ * row_dim_; }

  std::span<float> Row(int64_t row);
  std::span<const float> Row(int64_t row) const;
  std::span<float> Flat() {
    BumpGeneration();
    return std::span<float>(mutable_storage(), size_t(size()));
  }
  std::span<const float> Flat() const {
    return std::span<const float>(storage(), size_t(size()));
  }

  // Re-points the block at caller-owned storage of exactly size()
  // floats, releasing the internally owned array. The serving layer
  // uses this to back blocks directly by an mmap'ed checkpoint so
  // startup does not copy the embedding tables. The storage must stay
  // valid and writable (MAP_PRIVATE is fine) for the block's lifetime.
  // Bumps the generation stamp: any derived cache must rebuild.
  void BorrowStorage(float* backing, int64_t count);

  bool borrows_storage() const { return view_ != nullptr; }

  // Initializers (deterministic given the Rng state).
  void InitUniform(Rng* rng, float lo, float hi);
  void InitGaussian(Rng* rng, float stddev);
  // Xavier/Glorot-style range ±sqrt(6 / (rows_per_id + dim)); for
  // embedding tables the conventional choice is ±sqrt(6/dim) — pass the
  // per-vector dimension explicitly.
  void InitXavierUniform(Rng* rng, int64_t fan);
  void Zero();

  // Monotone mutation stamp: bumped by every mutable access (non-const
  // Row/Flat, the initializers, Zero) and never by const reads. Derived
  // caches — the precision-tiered ScoringReplica — compare it against
  // the generation they were built at to decide whether a rebuild is
  // due. Starts at 1 so "never built" (0) is distinguishable. The bump
  // is a relaxed atomic because the optimizer's parallel apply writes
  // disjoint rows from several threads; the stamp only answers "has
  // anything changed", so ordering beyond the count does not matter.
  uint64_t generation() const {
    return generation_.load(std::memory_order_relaxed);
  }

 private:
  KGE_HOT_NOALLOC
  void BumpGeneration() {
    generation_.fetch_add(1, std::memory_order_relaxed);
  }

  float* mutable_storage() { return view_ != nullptr ? view_ : data_.get(); }
  const float* storage() const {
    return view_ != nullptr ? view_ : data_.get();
  }

  // munmap()s a mapped block's storage (mapped_bytes != 0), free()s a
  // calloc'd one.
  struct StorageDeleter {
    StorageDeleter() : mapped_bytes(0) {}
    explicit StorageDeleter(size_t bytes) : mapped_bytes(bytes) {}
    void operator()(float* p) const;
    size_t mapped_bytes;
  };

  std::string name_;
  int64_t num_rows_;
  int64_t row_dim_;
  std::unique_ptr<float[], StorageDeleter> data_;
  // When non-null, the block reads/writes this caller-owned storage
  // instead of data_ (see BorrowStorage).
  float* view_ = nullptr;
  std::atomic<uint64_t> generation_{1};
};

// Sparse per-(block, row) gradient accumulator. Rows are indexed through
// an open-addressing flat table with generation-stamped slots, so the
// steady-state training loop performs ZERO heap allocations: Clear() is
// a generation bump, row storage is recycled, and the probe table only
// grows (rehashes) until the high-water row count is reached.
//
// Thread-safety: GradFor may insert and is NOT safe to call
// concurrently. Once a row is registered (touched since the last
// Clear()), concurrent GradFor/Find calls for registered rows are pure
// reads of the probe table and are safe, as is writing the returned
// spans from one thread per row — the trainer's step pass reads its
// filled shard buffers from every worker, each worker taking the rows of
// its ShardOfRow() partition.
class GradientBuffer {
 public:
  // The referenced blocks must outlive the buffer.
  explicit GradientBuffer(std::vector<ParameterBlock*> blocks);

  size_t num_blocks() const { return blocks_.size(); }
  ParameterBlock* block(size_t index) const { return blocks_[index]; }

  // Returns the gradient accumulator row for (block_index, row), zeroed on
  // first touch within the current batch. Accumulate with +=.
  KGE_HOT_NOALLOC
  std::span<float> GradFor(size_t block_index, int64_t row);

  // Read-only lookup: the accumulator for (block_index, row), or an empty
  // span if the row is untouched in the current batch. Never inserts.
  KGE_HOT_NOALLOC
  std::span<const float> Find(size_t block_index, int64_t row) const;

  // Resets all touched rows; keeps capacity.
  void Clear();

  // Pre-sizes every block's row pool and probe table for up to
  // min(rows_per_block, block->num_rows()) touched rows, so batches
  // within that bound never allocate. Callers that know a worst-case
  // rows-per-batch (the trainers) use this to make the steady state
  // allocation-free from the first batch instead of after capacity has
  // warmed up.
  void Reserve(size_t rows_per_block);

  // Deterministic row -> shard assignment (SplitMix64 over the pair) used
  // to partition touched rows across threads for the step pass and the
  // optimizer apply. Stable across platforms and runs.
  KGE_HOT_NOALLOC
  static size_t ShardOfRow(size_t block_index, int64_t row,
                           size_t num_shards);

  // Calls fn(block_index, row, grad) for every touched row.
  template <typename Fn>
  KGE_HOT_NOALLOC void ForEach(Fn&& fn) const {
    for (size_t b = 0; b < blocks_.size(); ++b) {
      const PerBlock& pb = per_block_[b];
      for (size_t slot = 0; slot < pb.rows.size(); ++slot) {
        fn(b, pb.rows[slot], std::span<const float>(pb.pool[slot]));
      }
    }
  }

  // ForEach restricted to rows with ShardOfRow(block, row) == shard.
  // Iterating every shard in [0, num_shards) visits each touched row
  // exactly once; per-row visit order (registration order) is identical
  // for every num_shards, so shard-parallel per-row work is bit-stable.
  template <typename Fn>
  KGE_HOT_NOALLOC void ForEachShard(size_t shard, size_t num_shards, Fn&& fn) const {
    for (size_t b = 0; b < blocks_.size(); ++b) {
      const PerBlock& pb = per_block_[b];
      for (size_t slot = 0; slot < pb.rows.size(); ++slot) {
        if (num_shards > 1 &&
            ShardOfRow(b, pb.rows[slot], num_shards) != shard) {
          continue;
        }
        fn(b, pb.rows[slot], std::span<const float>(pb.pool[slot]));
      }
    }
  }

  // Number of touched rows across all blocks.
  size_t NumTouchedRows() const;

  // Rows of `block_index` with pooled gradient storage: the high-water
  // touched-row count, or what Reserve set aside.
  size_t PooledRows(size_t block_index) const {
    return per_block_[block_index].pool.size();
  }

 private:
  struct PerBlock {
    // Touched rows in registration order.
    std::vector<int64_t> rows;
    // One stable allocation per slot: spans handed out by GradFor must
    // stay valid while later calls add slots. Slots are recycled across
    // Clear() calls, so steady-state training does not allocate.
    std::vector<std::vector<float>> pool;
    // Open-addressing row -> slot map (linear probing, power-of-two
    // capacity). A table entry is live iff its stamp equals `generation`,
    // which lets Clear() invalidate the whole table in O(1).
    std::vector<int64_t> table_rows;
    std::vector<uint32_t> table_slots;
    std::vector<uint32_t> table_stamps;
    uint32_t generation = 1;
  };

  // Probe for `row`; returns the table index holding it or the first
  // free index. `found` reports which.
  static size_t Probe(const PerBlock& pb, int64_t row, bool* found);
  // Rebuilds the probe table at `capacity` entries (a power of two at
  // least twice the registered row count).
  static void Grow(PerBlock& pb, size_t capacity);

  std::vector<ParameterBlock*> blocks_;
  std::vector<PerBlock> per_block_;
};

}  // namespace kge

#endif  // KGE_CORE_PARAMETER_BLOCK_H_
