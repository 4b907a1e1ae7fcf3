#include "core/parameter_block.h"

#include <sys/mman.h>

#include <algorithm>
#include <cmath>
#include <cstring>

#include "util/check.h"

namespace kge {

void ParameterBlock::StorageDeleter::operator()(float* p) const {
  if (mapped_bytes != 0) {
    ::munmap(p, mapped_bytes);
  } else {
    std::free(p);
  }
}

ParameterBlock::ParameterBlock(std::string name, int64_t num_rows,
                               int64_t row_dim)
    : name_(std::move(name)), num_rows_(num_rows), row_dim_(row_dim) {
  KGE_CHECK(num_rows_ >= 0 && row_dim_ > 0);
  const size_t count = static_cast<size_t>(num_rows_ * row_dim_);
  const size_t bytes = count * sizeof(float);
  if (bytes >= kMappedStorageBytes) {
    // Not calloc: glibc raises its mmap threshold to the size of each
    // mapped chunk it frees, so after the first large table is freed
    // the next one would come from the heap, resident or not.
    void* storage = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                           MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    KGE_CHECK(storage != MAP_FAILED);
    // A fresh table is written whole by its initializer: with huge pages
    // that costs a fault per 2 MiB instead of per 4 KiB (and fewer TLB
    // misses after). Advice only; untouched pages stay unmapped either
    // way.
    ::madvise(storage, bytes, MADV_HUGEPAGE);
    data_ = std::unique_ptr<float[], StorageDeleter>(
        static_cast<float*>(storage), StorageDeleter(bytes));
  } else {
    data_.reset(static_cast<float*>(std::calloc(count, sizeof(float))));
    KGE_CHECK(data_ != nullptr || count == 0);
  }
}

std::span<float> ParameterBlock::Row(int64_t row) {
  KGE_DCHECK(row >= 0 && row < num_rows_);
  BumpGeneration();
  return std::span<float>(
      mutable_storage() + size_t(row) * size_t(row_dim_), size_t(row_dim_));
}

std::span<const float> ParameterBlock::Row(int64_t row) const {
  KGE_DCHECK(row >= 0 && row < num_rows_);
  return std::span<const float>(
      storage() + size_t(row) * size_t(row_dim_), size_t(row_dim_));
}

void ParameterBlock::BorrowStorage(float* backing, int64_t count) {
  KGE_CHECK(backing != nullptr);
  KGE_CHECK(count == size());
  view_ = backing;
  // Release the internally owned copy — with a view installed it can
  // never be read again, and for embedding tables it is the dominant
  // memory cost.
  data_.reset();
  BumpGeneration();
}

void ParameterBlock::InitUniform(Rng* rng, float lo, float hi) {
  for (float& x : Flat()) x = rng->NextUniform(lo, hi);
}

void ParameterBlock::InitGaussian(Rng* rng, float stddev) {
  for (float& x : Flat()) x = static_cast<float>(rng->NextGaussian()) * stddev;
}

void ParameterBlock::InitXavierUniform(Rng* rng, int64_t fan) {
  KGE_CHECK(fan > 0);
  const float bound = std::sqrt(6.0f / static_cast<float>(fan));
  InitUniform(rng, -bound, bound);
}

void ParameterBlock::Zero() {
  BumpGeneration();
  std::memset(mutable_storage(), 0, size_t(size()) * 4);
}

namespace {

// SplitMix64 finalizer over a precombined key — the probe hash and the
// row -> shard assignment both need a platform-stable avalanche.
inline uint64_t MixKey(uint64_t key) {
  uint64_t z = key + 0x9E3779B97F4A7C15ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

}  // namespace

GradientBuffer::GradientBuffer(std::vector<ParameterBlock*> blocks)
    : blocks_(std::move(blocks)), per_block_(blocks_.size()) {
  for (ParameterBlock* block : blocks_) KGE_CHECK(block != nullptr);
}

size_t GradientBuffer::ShardOfRow(size_t block_index, int64_t row,
                                  size_t num_shards) {
  KGE_DCHECK(num_shards > 0);
  const uint64_t key =
      (uint64_t(block_index) << 48) ^ uint64_t(row);
  return size_t(MixKey(key) % uint64_t(num_shards));
}

size_t GradientBuffer::Probe(const PerBlock& pb, int64_t row, bool* found) {
  const size_t mask = pb.table_rows.size() - 1;
  size_t i = size_t(MixKey(uint64_t(row))) & mask;
  while (pb.table_stamps[i] == pb.generation) {
    if (pb.table_rows[i] == row) {
      *found = true;
      return i;
    }
    i = (i + 1) & mask;
  }
  *found = false;
  return i;
}

void GradientBuffer::Grow(PerBlock& pb, size_t capacity) {
  // kge-hotpath: allow(probe-table rehash: doubling growth, amortized constant)
  pb.table_rows.assign(capacity, 0);
  // kge-hotpath: allow(probe-table rehash: doubling growth, amortized constant)
  pb.table_slots.assign(capacity, 0);
  // kge-hotpath: allow(probe-table rehash: doubling growth, amortized constant)
  pb.table_stamps.assign(capacity, 0);
  pb.generation = 1;
  // Re-insert every registered row into the fresh table.
  for (size_t slot = 0; slot < pb.rows.size(); ++slot) {
    bool found = false;
    const size_t i = Probe(pb, pb.rows[slot], &found);
    KGE_DCHECK(!found);
    pb.table_rows[i] = pb.rows[slot];
    pb.table_slots[i] = uint32_t(slot);
    pb.table_stamps[i] = pb.generation;
  }
}

std::span<float> GradientBuffer::GradFor(size_t block_index, int64_t row) {
  KGE_DCHECK(block_index < blocks_.size());
  PerBlock& pb = per_block_[block_index];
  const auto dim = static_cast<size_t>(blocks_[block_index]->row_dim());
  // Keep load factor below 1/2 (counting the pending insert).
  if ((pb.rows.size() + 1) * 2 > pb.table_rows.size()) {
    Grow(pb, pb.table_rows.empty() ? 64 : pb.table_rows.size() * 2);
  }
  bool found = false;
  const size_t i = Probe(pb, row, &found);
  if (found) return std::span<float>(pb.pool[pb.table_slots[i]]);
  const size_t slot = pb.rows.size();
  // kge-hotpath: allow(row registration: bounded by Reserve/high-water)
  pb.rows.push_back(row);
  if (slot == pb.pool.size()) {
    // kge-hotpath: allow(one stable pool slot per high-water row)
    pb.pool.emplace_back(dim, 0.0f);
  } else {
    // Recycled slot from a previous batch; zero it.
    std::memset(pb.pool[slot].data(), 0, dim * sizeof(float));
  }
  pb.table_rows[i] = row;
  pb.table_slots[i] = uint32_t(slot);
  pb.table_stamps[i] = pb.generation;
  return std::span<float>(pb.pool[slot]);
}

std::span<const float> GradientBuffer::Find(size_t block_index,
                                            int64_t row) const {
  KGE_DCHECK(block_index < blocks_.size());
  const PerBlock& pb = per_block_[block_index];
  if (pb.table_rows.empty()) return {};
  bool found = false;
  const size_t i = Probe(pb, row, &found);
  if (!found) return {};
  return std::span<const float>(pb.pool[pb.table_slots[i]]);
}

void GradientBuffer::Reserve(size_t rows_per_block) {
  for (size_t b = 0; b < blocks_.size(); ++b) {
    PerBlock& pb = per_block_[b];
    const auto dim = static_cast<size_t>(blocks_[b]->row_dim());
    // A block cannot touch more distinct rows than it has.
    const size_t rows =
        std::min(rows_per_block, static_cast<size_t>(blocks_[b]->num_rows()));
    pb.rows.reserve(rows);
    while (pb.pool.size() < rows) pb.pool.emplace_back(dim, 0.0f);
    size_t capacity = pb.table_rows.empty() ? 64 : pb.table_rows.size();
    while (capacity < (rows + 1) * 2) capacity *= 2;
    if (capacity > pb.table_rows.size()) Grow(pb, capacity);
  }
}

void GradientBuffer::Clear() {
  for (PerBlock& pb : per_block_) {
    pb.rows.clear();
    // Invalidate the probe table by bumping the generation; on the (rare)
    // wrap back to 0, scrub the stamps so stale entries cannot alias.
    if (++pb.generation == 0) {
      std::fill(pb.table_stamps.begin(), pb.table_stamps.end(), 0u);
      pb.generation = 1;
    }
    // pool allocations are kept and recycled by GradFor.
  }
}

size_t GradientBuffer::NumTouchedRows() const {
  size_t total = 0;
  for (const PerBlock& pb : per_block_) total += pb.rows.size();
  return total;
}

}  // namespace kge
