// Fixture: the tile-strided, multi-query pruned top-k walk behind the
// serving reduction. A cold preparer computes per-tile score upper
// bounds (max row norm per tile) and sizes every per-lane buffer for the
// whole batch; the annotated lane root walks tiles lane, lane + lanes,
// lane + 2·lanes, …, skips each (query, tile) pair whose Cauchy-Schwarz
// bound is strictly below that query's own window minimum (there is no
// primed floor), scores each kept tile once for all its live queries,
// and keeps every query's k-window inside preallocated storage.
// Expected: silent — all allocation happens in the preparer, which is
// never called from the root; the root only reads bounds and indexes
// scratch.
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/hotpath.h"

namespace fixture {

struct LaneWalk {
  std::vector<float> entities;     // num_entities x dim candidate table
  std::vector<float> tile_bounds;  // max row norm per tile
  std::vector<float> folds;        // num_queries x dim folded queries
  std::vector<float> query_norms;  // per query
  std::vector<size_t> live;        // queries the current tile is kept for
  std::vector<float> tile_scores;  // live queries x rows_per_tile
  std::vector<int32_t> top_ids;    // num_queries x k windows
  std::vector<float> top_scores;   // num_queries x k windows
  std::vector<size_t> filled;      // per query
  size_t dim = 0;
  size_t num_entities = 0;
  size_t rows_per_tile = 0;
  size_t num_queries = 0;
  size_t k = 0;
  size_t lane = 0;
  size_t num_lanes = 1;
  uint64_t pairs_skipped = 0;
};

// Cold path: rebuilds the per-tile bounds and sizes the lane's buffers
// for the whole batch. Runs once per published model generation, never
// from the walk root, so its growth is invisible to the analyzer's hot
// set.
void PrepareLaneWalk(LaneWalk* walk) {
  const size_t tiles =
      (walk->num_entities + walk->rows_per_tile - 1) / walk->rows_per_tile;
  walk->tile_bounds.resize(tiles);
  for (size_t t = 0; t < tiles; ++t) {
    float max_norm = 0.0f;
    const size_t begin = t * walk->rows_per_tile;
    const size_t end = begin + walk->rows_per_tile < walk->num_entities
                           ? begin + walk->rows_per_tile
                           : walk->num_entities;
    for (size_t e = begin; e < end; ++e) {
      float sq = 0.0f;
      for (size_t d = 0; d < walk->dim; ++d) {
        const float x = walk->entities[e * walk->dim + d];
        sq += x * x;
      }
      const float norm = std::sqrt(sq);
      if (norm > max_norm) max_norm = norm;
    }
    walk->tile_bounds[t] = max_norm;
  }
  walk->query_norms.resize(walk->num_queries);
  walk->live.resize(walk->num_queries);
  walk->tile_scores.resize(walk->num_queries * walk->rows_per_tile);
  walk->top_ids.resize(walk->num_queries * walk->k);
  walk->top_scores.resize(walk->num_queries * walk->k);
  walk->filled.resize(walk->num_queries);
}

KGE_HOT_NOALLOC
void StridedTopKWalkRoot(LaneWalk* walk) {
  const size_t dim = walk->dim;
  const size_t k = walk->k;
  for (size_t q = 0; q < walk->num_queries; ++q) {
    float sq = 0.0f;
    for (size_t d = 0; d < dim; ++d) {
      sq += walk->folds[q * dim + d] * walk->folds[q * dim + d];
    }
    walk->query_norms[q] = std::sqrt(sq);
    walk->filled[q] = 0;
  }
  const size_t tiles =
      (walk->num_entities + walk->rows_per_tile - 1) / walk->rows_per_tile;
  for (size_t tile = walk->lane; tile < tiles; tile += walk->num_lanes) {
    // Strict <, against the query's own full window: ties must scan,
    // since an equal-scoring candidate can still win on smaller id.
    size_t num_live = 0;
    for (size_t q = 0; q < walk->num_queries; ++q) {
      const float* best = walk->top_scores.data() + q * k;
      if (k > 0 && walk->filled[q] == k) {
        float lowest = best[0];
        for (size_t i = 1; i < k; ++i) {
          if (best[i] < lowest) lowest = best[i];
        }
        if (walk->query_norms[q] * walk->tile_bounds[tile] < lowest) {
          ++walk->pairs_skipped;
          continue;
        }
      }
      walk->live[num_live++] = q;
    }
    const size_t row0 = tile * walk->rows_per_tile;
    const size_t rows = row0 + walk->rows_per_tile < walk->num_entities
                            ? walk->rows_per_tile
                            : walk->num_entities - row0;
    // One pass over the tile's rows for every live query.
    for (size_t r = 0; r < rows; ++r) {
      const float* row = walk->entities.data() + (row0 + r) * dim;
      for (size_t i = 0; i < num_live; ++i) {
        const float* fold = walk->folds.data() + walk->live[i] * dim;
        float acc = 0.0f;
        for (size_t d = 0; d < dim; ++d) acc += fold[d] * row[d];
        walk->tile_scores[i * walk->rows_per_tile + r] = acc;
      }
    }
    for (size_t i = 0; i < num_live; ++i) {
      const size_t q = walk->live[i];
      int32_t* ids = walk->top_ids.data() + q * k;
      float* best = walk->top_scores.data() + q * k;
      for (size_t r = 0; r < rows && k > 0; ++r) {
        const float score = walk->tile_scores[i * walk->rows_per_tile + r];
        if (walk->filled[q] < k) {
          best[walk->filled[q]] = score;
          ids[walk->filled[q]++] = int32_t(row0 + r);
          continue;
        }
        size_t lowest = 0;
        for (size_t j = 1; j < k; ++j) {
          if (best[j] < best[lowest]) lowest = j;
        }
        if (score > best[lowest]) {
          best[lowest] = score;
          ids[lowest] = int32_t(row0 + r);
        }
      }
    }
  }
}

}  // namespace fixture
