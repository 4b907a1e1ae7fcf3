#include "core/scoring_replica.h"

#include <algorithm>

#include "math/simd.h"
#include "util/check.h"
#include "util/thread_pool.h"

namespace kge {
namespace {

// Runs body(row_begin, row_end, first_tile) over a table's bound tiles,
// split on tile boundaries across `pool` (inline without one). Each
// call covers whole tiles, so every split builds the same table.
template <typename Body>
void ForTileRows(ThreadPool* pool, size_t num_rows, size_t rows_per_tile,
                 const Body& body) {
  const size_t tiles = (num_rows + rows_per_tile - 1) / rows_per_tile;
  const auto run = [&](size_t tile_begin, size_t tile_end) {
    body(tile_begin * rows_per_tile,
         std::min(num_rows, tile_end * rows_per_tile), tile_begin);
  };
  if (pool == nullptr) {
    run(0, tiles);
  } else {
    pool->StageFor(0, tiles, run);
  }
}

}  // namespace

const char* ScorePrecisionName(ScorePrecision precision) {
  switch (precision) {
    case ScorePrecision::kDouble:
      return "double";
    case ScorePrecision::kFloat32:
      return "float32";
    case ScorePrecision::kInt8:
      return "int8";
  }
  return "?";
}

bool ParseScorePrecision(std::string_view text, ScorePrecision* out) {
  KGE_CHECK(out != nullptr);
  if (text == "double") {
    *out = ScorePrecision::kDouble;
  } else if (text == "float32") {
    *out = ScorePrecision::kFloat32;
  } else if (text == "int8") {
    *out = ScorePrecision::kInt8;
  } else {
    return false;
  }
  return true;
}

ScoringReplica::ScoringReplica(const ParameterBlock* master)
    : master_(master) {
  KGE_CHECK(master_ != nullptr);
}

bool ScoringReplica::IsFresh(ScorePrecision precision) const {
  if (precision != ScorePrecision::kInt8) return true;
  return int8_generation_ == master_->generation();
}

void ScoringReplica::EnsureFresh(ScorePrecision precision,
                                 ThreadPool* pool) {
  if (IsFresh(precision)) return;
  // Only the int8 tier reaches here. Record the stamp BEFORE reading the
  // table: if a (misbehaving) concurrent writer mutates the master
  // mid-quantization, the replica stays marked stale rather than
  // silently serving half-old codes.
  const uint64_t generation = master_->generation();
  const auto num_rows = size_t(master_->num_rows());
  const auto dim = size_t(master_->row_dim());
  const float* master_rows = master_->Flat().data();
  int8_rows_.resize(num_rows * dim);
  int8_scales_.resize(num_rows);
  ForTileRows(pool, num_rows, simd::PrunedTileRows(dim),
              [&](size_t row_begin, size_t row_end, size_t /*tile*/) {
                simd::QuantizeRowsI8(master_rows + row_begin * dim,
                                     row_end - row_begin, dim,
                                     int8_rows_.data() + row_begin * dim,
                                     int8_scales_.data() + row_begin);
              });
  int8_generation_ = generation;
}

bool ScoringReplica::BoundsFresh(ScorePrecision precision) const {
  if (precision == ScorePrecision::kInt8) {
    return IsFresh(precision) &&
           int8_bounds_generation_ == master_->generation();
  }
  return master_bounds_generation_ == master_->generation();
}

void ScoringReplica::EnsureBoundsFresh(ScorePrecision precision,
                                       ThreadPool* pool) {
  if (BoundsFresh(precision)) return;
  const uint64_t generation = master_->generation();
  const auto num_rows = size_t(master_->num_rows());
  const auto dim = size_t(master_->row_dim());
  const size_t rows_per_tile = simd::PrunedTileRows(dim);
  const size_t tiles = simd::PrunedTileCount(num_rows, dim);
  if (precision == ScorePrecision::kInt8) {
    EnsureFresh(precision, pool);
    int8_bounds_.resize(tiles);
    ForTileRows(pool, num_rows, rows_per_tile,
                [&](size_t row_begin, size_t row_end, size_t tile) {
                  simd::TileMaxRowNormsI8(
                      int8_rows_.data() + row_begin * dim,
                      int8_scales_.data() + row_begin, row_end - row_begin,
                      dim, rows_per_tile, int8_bounds_.data() + tile);
                });
    int8_bounds_generation_ = generation;
    return;
  }
  master_bounds_.resize(tiles);
  const float* master_rows = master_->Flat().data();
  ForTileRows(pool, num_rows, rows_per_tile,
              [&](size_t row_begin, size_t row_end, size_t tile) {
                simd::TileMaxRowNorms(master_rows + row_begin * dim,
                                      row_end - row_begin, dim,
                                      rows_per_tile,
                                      master_bounds_.data() + tile);
              });
  master_bounds_generation_ = generation;
}

std::span<const float> ScoringReplica::TileBounds(
    ScorePrecision precision) const {
  KGE_DCHECK(BoundsFresh(precision));
  return precision == ScorePrecision::kInt8 ? int8_bounds_ : master_bounds_;
}

std::span<const std::int8_t> ScoringReplica::Int8Rows() const {
  KGE_DCHECK(IsFresh(ScorePrecision::kInt8));
  return int8_rows_;
}

std::span<const float> ScoringReplica::Int8Scales() const {
  KGE_DCHECK(IsFresh(ScorePrecision::kInt8));
  return int8_scales_;
}

}  // namespace kge
