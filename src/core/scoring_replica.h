// ScoringReplica: precision-tiered read-only companions to a
// ParameterBlock for the DRAM-bound full-vocabulary ranking path.
// Full-vocab ranking streams the whole entity table per query batch, so
// bytes-per-candidate — not FLOPs — bound throughput once the table
// outgrows L3. The tiers trade accumulation width and candidate bytes
// for speed (see math/simd.h's precision-tier contract for the exact
// numerics):
//
//   kDouble  — the exact baseline: double-accumulation kernels over the
//              float master table. No replica involved.
//   kFloat32 — float-accumulation kernels over the SAME master rows: the
//              master table already stores float, so this tier changes
//              arithmetic width only, never the bytes streamed. No copy,
//              always fresh.
//   kInt8    — a materialized per-row absmax-quantized int8 copy of the
//              master block: 1 byte per element instead of 4, plus one
//              float scale per row. The only tier that owns storage.
//
// Lifecycle: the int8 replica is rebuilt on demand, synced to the master
// via ParameterBlock::generation() — every mutable access to the master
// bumps the stamp, and EnsureFresh() requantizes iff the stamp moved
// since the last build. During pure evaluation the master never mutates,
// so the rebuild happens once and scoring is replica-read-only from then
// on; interleaved train/eval pays one requantization pass per eval.
//
// Thread-safety: EnsureFresh() mutates and is NOT safe to call
// concurrently with anything. Models call it from
// KgeModel::PrepareForScoring before fanning scoring out; the hot
// accessors (Int8Rows/Int8Scales) are then pure reads. Given a pool, a
// rebuild splits the table's rows on bound-tile boundaries across it
// (the caller helps); every row and every tile is still built whole by
// one thread, so the result is bit-identical to the inline build.
#ifndef KGE_CORE_SCORING_REPLICA_H_
#define KGE_CORE_SCORING_REPLICA_H_

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "core/parameter_block.h"
#include "util/hotpath.h"

namespace kge {

class ThreadPool;

// The numeric tier full-vocabulary ranking kernels score at
// (EvalOptions::score_precision, kge_eval/kge_train --eval-precision).
enum class ScorePrecision { kDouble, kFloat32, kInt8 };

// "double", "float32", or "int8" — the CLI spelling, also stamped into
// BENCH_eval.json's precision section.
const char* ScorePrecisionName(ScorePrecision precision);

// Parses a --eval-precision value ("double" | "float32" | "int8") into
// `*out`; returns false (leaving `*out` untouched) on anything else.
bool ParseScorePrecision(std::string_view text, ScorePrecision* out);

class ScoringReplica {
 public:
  // The master block must outlive the replica. Construction is cheap;
  // no tier is materialized until EnsureFresh() asks for one.
  explicit ScoringReplica(const ParameterBlock* master);

  // True when scoring at `precision` needs no rebuild. The double and
  // float32 tiers read the master table directly, so they are always
  // fresh; the int8 tier is fresh iff its quantized table was built at
  // the master's current generation.
  bool IsFresh(ScorePrecision precision) const;

  // Materializes (or requantizes) the tier's backing data if stale; a
  // cheap stamp comparison when fresh. NOT thread-safe — run once
  // before fanning scoring out. The rows are quantized across `pool`
  // when one is given, inline otherwise.
  void EnsureFresh(ScorePrecision precision, ThreadPool* pool = nullptr);

  // The quantized table: num_rows × row_dim int8 codes and one
  // dequantization scale per row, laid out for simd::DotBatchMultiI8.
  // The int8 tier must be fresh.
  KGE_HOT_NOALLOC
  std::span<const std::int8_t> Int8Rows() const;
  KGE_HOT_NOALLOC
  std::span<const float> Int8Scales() const;

  // ---- Per-tile score bounds (pruned ranking path, DESIGN.md §5h) ----------
  //
  // One float per simd::PrunedTileRows(row_dim) tile of the table: the
  // max row L2 norm inside the tile (master tiers) resp. the max of
  // scales[row]·‖codes_row‖₂ (int8 tier). Multiplied by a query's fold
  // norm and simd::kPruneBoundSlack this is a conservative upper bound
  // on every score the tile can produce (Cauchy–Schwarz), which is what
  // lets the pruned scans skip provably sub-threshold tiles without
  // ever changing a result. Generation-stamped exactly like the int8
  // table; EnsureBoundsFresh is NOT thread-safe (call it from
  // PrepareForScoring, before the scoring fanout). Given a pool, the
  // tiles are built across it.

  bool BoundsFresh(ScorePrecision precision) const;
  void EnsureBoundsFresh(ScorePrecision precision,
                         ThreadPool* pool = nullptr);

  // The bound array for `precision`'s table (kDouble and kFloat32 share
  // the master-table bounds). Bounds must be fresh.
  KGE_HOT_NOALLOC
  std::span<const float> TileBounds(ScorePrecision precision) const;

  // Master generation the int8 table was built at; 0 = never built.
  uint64_t built_generation() const { return int8_generation_; }

 private:
  const ParameterBlock* master_;
  std::vector<std::int8_t> int8_rows_;
  std::vector<float> int8_scales_;
  uint64_t int8_generation_ = 0;
  // Tile bounds over the master float table (serves kDouble + kFloat32)
  // and over the quantized table, each with its own build stamp.
  std::vector<float> master_bounds_;
  std::vector<float> int8_bounds_;
  uint64_t master_bounds_generation_ = 0;
  uint64_t int8_bounds_generation_ = 0;
};

}  // namespace kge

#endif  // KGE_CORE_SCORING_REPLICA_H_
