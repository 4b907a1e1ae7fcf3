// The four kge_bench workloads and the measurement helpers they share.
#ifndef KGE_BENCHMARK_WORKLOADS_H_
#define KGE_BENCHMARK_WORKLOADS_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "bench_stats.h"
#include "eval/topk.h"
#include "load_client.h"
#include "models/kge_model.h"
#include "serve/snapshot.h"
#include "train/train_checkpoint.h"
#include "util/status.h"

// Evaluates a kge::Result expression: returns its Status on error,
// otherwise moves the value into `lhs` (a declaration or an lvalue).
#define BENCH_ASSIGN_OR_RETURN(lhs, expr) \
  BENCH_ASSIGN_OR_RETURN_IMPL(BENCH_CAT(bench_result_, __LINE__), lhs, expr)
#define BENCH_CAT_INNER(a, b) a##b
#define BENCH_CAT(a, b) BENCH_CAT_INNER(a, b)
#define BENCH_ASSIGN_OR_RETURN_IMPL(tmp, lhs, expr) \
  auto tmp = (expr);                                \
  if (!tmp.ok()) return tmp.status();               \
  lhs = std::move(*tmp)

namespace kgebench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  // Measured time of one run; every phase is a fixed share of it. The
  // default is BENCHMARK.json's run_seconds, at which the rates and
  // phase sizes were calibrated.
  double seconds = 15.0;
  bool trace = false;
  // Scratch checkpoints, logs and trace files.
  std::string out_dir;
  std::string serve_bin;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// What one workload run measured. Every measured number goes into
// `metrics`; kge_bench prints them all and puts the ones BENCHMARK.json
// names in the result line.
struct Outcome {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<Span> spans;

  void Add(std::string name, double value, std::string unit);
  // Marks the run incorrect and says why on stderr.
  void Mismatch(const std::string& what);
};

bool IsServeWorkload(const std::string& name);
kge::Result<Outcome> RunServeWorkload(const RunOptions& options);
kge::Result<Outcome> RunTrainWorkload(const RunOptions& options);

// ---- Shared measurements ----------------------------------------------------

// STREAM triad (McCalpin) on 4 threads over arrays larger than the
// last-level cache: the bandwidth ceiling scan.frac_of_peak divides by.
double StreamTriadGbPerS();

// simd::DotBatchMulti throughput with `queries` random query rows
// against `rows` (row-major, `dim` floats each), median of several reps.
double DotBatchMultiGflops(std::span<const float> rows, size_t dim,
                           size_t queries, uint64_t seed);

// Saves `model` as checkpoint `epoch` of `manager` (the layout kge_serve
// --checkpoint-dir reads) and returns how long Save took, in ms.
kge::Result<double> SaveCheckpoint(kge::CheckpointManager* manager,
                                   kge::KgeModel* model, uint64_t seed,
                                   int epoch);

// Median wall time of VerifyCheckpoint and of LoadServingSnapshot on
// `path`, in ms, with the tiers and bounds a server with `prune` loads.
struct SnapshotTimes {
  double verify_ms = 0.0;
  double load_ms = 0.0;
};
kge::Result<SnapshotTimes> TimeSnapshotLoad(const std::string& path,
                                            const kge::ModelFactory& factory,
                                            bool prune);

// Builds the model kge_serve builds for these flags, ready to load.
kge::ModelFactory FactoryFor(const std::string& model_name,
                             int32_t num_entities, int32_t num_relations,
                             int32_t dim_budget, uint64_t seed);

// The top kTopK for `query`, through PredictTails/PredictHeads.
std::vector<kge::ScoredEntity> Predict(const kge::KgeModel& model,
                                       const Query& query, int shards,
                                       bool prune);

// Same entities in the same order with bit-identical scores.
bool SameResults(std::span<const kge::ScoredEntity> a,
                 std::span<const kge::ScoredEntity> b);

}  // namespace kgebench

#endif  // KGE_BENCHMARK_WORKLOADS_H_
