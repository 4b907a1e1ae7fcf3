// perf_report: the JSON perf-tracking harness for the SIMD kernel layer.
//
// Emits BENCH_kernels.json with three sections:
//
//   * "kernels"  — GFLOP/s and ns/call for each hot kernel at ranking
//                  sizes, plus its speedup over the naive sequential
//                  reference in simd::ref (the pre-SIMD implementation).
//   * "ranking"  — full-vocabulary ScoreAll throughput on a ComplEx
//                  model at the paper's dim budget: ns per ranked triple,
//                  triples/sec, candidate scores/sec, speedup over the
//                  scalar-reference ranking loop, and the measured heap
//                  allocations per ranked triple (the zero-allocation
//                  contract; null when built under a sanitizer).
//   * "eval"     — end-to-end filtered evaluation throughput on the
//                  WN18-like KG, with the filtered MRR included so runs
//                  from differently-vectorized builds can be diffed for
//                  metric equality.
//
// It also emits BENCH_training.json with a "training" section: epoch
// throughput (triples/s, examples/s) and steady-state allocations per
// triple for the negative-sampling and 1-N trainers, at 1 and 4 worker
// threads per model, plus each row's speedup over its own 1-thread run.
// Both trainers produce bit-identical results for every thread count, so
// the rows measure pure scheduling overhead/benefit.
//
// BENCH_eval.json gets an "eval_batching" section (the evaluator's
// ranking walk throughput vs query batch size, with a metric-equality
// canary) and a "precision" section: the same walk at each scoring tier
// (double / float32 / int8, see core/scoring_replica.h) with per-tier
// ns/triple, effective GB/s, speedup over the exact double tier, and a
// drift block giving filtered MRR / Hits@{1,3,10} deltas of the narrow
// tiers against double on a briefly-trained model. CI jq-gates the
// drift deltas and the zero-allocation contract per tier.
//
// BENCH_serving.json covers kge_serve's batcher and socket paths, the
// multi-lane pruned walk at the scale tiers, and an "adoption" section:
// the two passes a snapshot adoption makes over the table (the mapped
// load's CRC and the tile bounds), inline and on a 4-lane batcher's
// pool, with a bit-identity check.
//
// "meta" records the ISA the binary dispatches to (scalar / avx2+fma /
// neon), compiler, and workload shape, so JSON files from different
// builds are self-describing. CI runs this with --quick and validates
// the schema with jq; full runs track kernel regressions over time.
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <new>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "kge.h"
#include "math/simd.h"
#include "util/scratch.h"

// ---- Allocation counter ----------------------------------------------------
// Counts every global operator new while the program runs. Replacing the
// allocation operators is incompatible with sanitizer interception, so
// the counter compiles out (and the JSON field becomes null) under
// ASan/TSan.
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

void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
#endif  // KGE_COUNT_ALLOCS

namespace kge {
namespace {

// Sink that the optimizer cannot discard reduction results into.
volatile double g_sink = 0.0;

// Default output location: the repo root (baked in at configure time),
// so the benchmark trajectory accumulates in one canonical place no
// matter which build directory the binary runs from. Overridable with
// --out / --train_out / --eval_out.
#ifndef KGE_REPO_ROOT
#define KGE_REPO_ROOT "."
#endif

struct PerfConfig {
  int64_t entities = 40000;    // full-vocab ranking table size
  int64_t dim_budget = 256;    // total floats per entity (ComplEx: 2x128)
  int64_t queries = 400;       // ScoreAll calls to time
  int64_t kernel_n = 256;      // vector length for kernel microbenches
  int64_t kernel_iters = 200000;
  int64_t eval_entities = 3000;  // WN18-like KG size for end-to-end eval
  int64_t eval_triples = 500;    // test triples evaluated end-to-end
  int64_t train_entities = 2000;  // WN18-like KG size for training bench
  int64_t train_epochs = 2;       // timed epochs (after the warm-up)
  int64_t train_negatives = 4;    // negatives per positive
  int64_t drift_epochs = 30;      // training epochs before drift measurement
  int64_t serve_entities = 8000;      // vocab for the serving bench
  int64_t serve_queries = 2000;       // direct (no-socket) timed queries
  int64_t serve_client_queries = 200;  // per-client queries per phase
  int64_t scale_queries = 40;        // ranked queries per scale tier
  int64_t scale_serve_queries = 200;  // serving queries per scale tier
  std::string out = std::string(KGE_REPO_ROOT) + "/BENCH_kernels.json";
  std::string train_out = std::string(KGE_REPO_ROOT) + "/BENCH_training.json";
  std::string eval_out = std::string(KGE_REPO_ROOT) + "/BENCH_eval.json";
  std::string serve_out = std::string(KGE_REPO_ROOT) + "/BENCH_serving.json";
  bool quick = false;

  void Finalize() {
    if (!quick) return;
    entities = 2000;
    queries = 40;
    kernel_iters = 2000;
    eval_entities = 400;
    eval_triples = 40;
    train_entities = 300;
    train_epochs = 1;
    serve_entities = 1000;
    serve_queries = 200;
    serve_client_queries = 50;
    scale_queries = 16;
    scale_serve_queries = 50;
  }
};

// Entity-table sizes for the §5h scale tiers. The full run covers the
// medium (100k) and xl (1M) presets behind the tools' --scale flag; the
// CI --quick run keeps one reduced tier so the schema (and the
// bit-identical + zero-alloc gates) stay exercised in seconds.
std::vector<int64_t> ScaleTierEntities(const PerfConfig& config) {
  if (config.quick) return {20000};
  return {kWordNetScaleMedium, kWordNetScaleXl};
}

std::vector<float> RandomVector(Rng* rng, size_t n) {
  std::vector<float> v(n);
  for (float& x : v) x = rng->NextUniform(-1.0f, 1.0f);
  return v;
}

// Median-of-three timing of `iters` calls to fn, seconds per call.
template <typename Fn>
double SecondsPerCall(int64_t iters, const Fn& fn) {
  double best = 0.0;
  for (int rep = 0; rep < 3; ++rep) {
    Stopwatch sw;
    for (int64_t i = 0; i < iters; ++i) fn();
    const double per_call = sw.ElapsedSeconds() / double(iters);
    if (rep == 0 || per_call < best) best = per_call;
  }
  return best;
}

struct KernelRow {
  std::string name;
  int64_t n = 0;
  double ns_per_call = 0.0;
  double gflops = 0.0;
  double speedup_vs_ref = 0.0;
};

// Times `fn` against `ref_fn` doing the same work; `flops` is the
// floating-point operation count of one call.
template <typename Fn, typename RefFn>
KernelRow BenchKernel(const std::string& name, int64_t n, double flops,
                      int64_t iters, const Fn& fn, const RefFn& ref_fn) {
  KernelRow row;
  row.name = name;
  row.n = n;
  const double simd_sec = SecondsPerCall(iters, fn);
  const double ref_sec = SecondsPerCall(iters, ref_fn);
  row.ns_per_call = simd_sec * 1e9;
  row.gflops = flops / simd_sec / 1e9;
  row.speedup_vs_ref = ref_sec / simd_sec;
  return row;
}

std::vector<KernelRow> BenchKernels(const PerfConfig& config) {
  Rng rng(7);
  const size_t n = size_t(config.kernel_n);
  const int64_t iters = config.kernel_iters;
  const auto a = RandomVector(&rng, n);
  const auto b = RandomVector(&rng, n);
  const auto c = RandomVector(&rng, n);
  auto out = RandomVector(&rng, n);
  auto gh = RandomVector(&rng, n);
  auto gt = RandomVector(&rng, n);
  auto gr = RandomVector(&rng, n);

  // A small entity table for the batch kernel: large enough to stream,
  // small enough that timing is dominated by compute, not DRAM.
  const size_t batch_rows = 1024;
  const auto rows = RandomVector(&rng, batch_rows * n);
  std::vector<float> batch_out(batch_rows);

  std::vector<KernelRow> kernels;
  kernels.push_back(BenchKernel(
      "dot", int64_t(n), 2.0 * double(n), iters,
      [&] { g_sink = g_sink + simd::Dot(a.data(), b.data(), n); },
      [&] { g_sink = g_sink + simd::ref::Dot(a.data(), b.data(), n); }));
  kernels.push_back(BenchKernel(
      "trilinear_dot", int64_t(n), 3.0 * double(n), iters,
      [&] {
        g_sink = g_sink + simd::TrilinearDot(a.data(), b.data(), c.data(), n);
      },
      [&] {
        g_sink =
            g_sink + simd::ref::TrilinearDot(a.data(), b.data(), c.data(), n);
      }));
  kernels.push_back(BenchKernel(
      "dot_batch", int64_t(n), 2.0 * double(n) * double(batch_rows),
      std::max<int64_t>(iters / 256, 16),
      [&] {
        simd::DotBatch(a.data(), rows.data(), batch_rows, n,
                       batch_out.data());
      },
      [&] {
        simd::ref::DotBatch(a.data(), rows.data(), batch_rows, n,
                            batch_out.data());
      }));
  // Multi-query batch kernel: 8 queries against the same row block.
  const size_t multi_queries = 8;
  const auto query_mat = RandomVector(&rng, multi_queries * n);
  std::vector<float> multi_out(multi_queries * batch_rows);
  kernels.push_back(BenchKernel(
      "dot_batch_multi", int64_t(n),
      2.0 * double(n) * double(batch_rows) * double(multi_queries),
      std::max<int64_t>(iters / 2048, 8),
      [&] {
        simd::DotBatchMulti(query_mat.data(), multi_queries, rows.data(),
                            batch_rows, n, multi_out.data());
      },
      [&] {
        simd::ref::DotBatchMulti(query_mat.data(), multi_queries,
                                 rows.data(), batch_rows, n,
                                 multi_out.data());
      }));
  // Id-indirected batch kernel: a shuffled candidate set scored straight
  // out of the row table (the gather-free ScoreCandidates path).
  std::vector<int32_t> ids(batch_rows);
  for (size_t i = 0; i < batch_rows; ++i) {
    ids[i] = int32_t(rng.NextBounded(uint64_t(batch_rows)));
  }
  kernels.push_back(BenchKernel(
      "dot_batch_indexed", int64_t(n), 2.0 * double(n) * double(batch_rows),
      std::max<int64_t>(iters / 256, 16),
      [&] {
        simd::DotBatchIndexed(a.data(), rows.data(), ids.data(), batch_rows,
                              n, batch_out.data());
      },
      [&] {
        simd::ref::DotBatchIndexed(a.data(), rows.data(), ids.data(),
                                   batch_rows, n, batch_out.data());
      }));
  kernels.push_back(BenchKernel(
      "hadamard_axpy", int64_t(n), 3.0 * double(n), iters,
      [&] { simd::HadamardAxpy(0.5f, a.data(), b.data(), out.data(), n); },
      [&] {
        simd::ref::HadamardAxpy(0.5f, a.data(), b.data(), out.data(), n);
      }));
  kernels.push_back(BenchKernel(
      "triple_grad_axpy", int64_t(n), 8.0 * double(n), iters,
      [&] {
        simd::TripleGradAxpy(0.5f, a.data(), b.data(), c.data(), gh.data(),
                             gt.data(), gr.data(), n);
      },
      [&] {
        simd::ref::TripleGradAxpy(0.5f, a.data(), b.data(), c.data(),
                                  gh.data(), gt.data(), gr.data(), n);
      }));
  return kernels;
}

// The pre-SIMD tail-side ScoreAll: per-call fold allocation, naive sequential
// fold and per-candidate dot. This is the "scalar baseline" the ranking
// speedup is measured against.
void NaiveScoreAllTails(const MultiEmbeddingModel& model, EntityId head,
                        RelationId relation, std::span<float> out) {
  const WeightTable& weights = model.weights();
  const size_t d = size_t(model.dim());
  const auto h = model.entity_store().Of(head);
  const auto r = model.relation_store().Of(relation);
  std::vector<float> fold(size_t(weights.ne()) * d, 0.0f);
  for (const WeightTable::Term& term : weights.terms()) {
    simd::ref::HadamardAxpy(term.weight, h.data() + size_t(term.i) * d,
                            r.data() + size_t(term.k) * d,
                            fold.data() + size_t(term.j) * d, d);
  }
  for (int32_t e = 0; e < model.num_entities(); ++e) {
    out[size_t(e)] = float(simd::ref::Dot(
        fold.data(), model.entity_store().Of(e).data(), fold.size()));
  }
}

struct RankingResult {
  int64_t entities = 0;
  int64_t dim = 0;
  int64_t queries = 0;
  double ns_per_triple = 0.0;
  double triples_per_sec = 0.0;
  double candidates_per_sec = 0.0;
  double speedup_vs_scalar_ref = 0.0;
  double allocs_per_triple = -1.0;  // -1 = not measured (sanitized build)
};

RankingResult BenchRanking(const PerfConfig& config) {
  const int32_t num_entities = int32_t(config.entities);
  const int32_t num_relations = 18;
  const int32_t dim = int32_t(config.dim_budget / 2);  // ComplEx: 2 vectors
  std::unique_ptr<MultiEmbeddingModel> model =
      MakeComplEx(num_entities, num_relations, dim, /*seed=*/42);

  Rng rng(11);
  std::vector<float> scores(static_cast<size_t>(num_entities));
  const auto query = [&](const auto& score_fn) {
    const EntityId head = EntityId(rng.NextBounded(uint64_t(num_entities)));
    const RelationId rel =
        RelationId(rng.NextBounded(uint64_t(num_relations)));
    score_fn(head, rel, std::span<float>(scores));
  };
  const auto simd_score = [&](EntityId h, RelationId r,
                              std::span<float> out) {
    model->ScoreAll(QuerySide::kTail, h, r, out);
  };
  const auto ref_score = [&](EntityId h, RelationId r, std::span<float> out) {
    NaiveScoreAllTails(*model, h, r, out);
  };

  // Warm up: populates the thread_local fold scratch so the timed (and
  // allocation-counted) region is steady state.
  for (int i = 0; i < 3; ++i) query(simd_score);

  RankingResult result;
  result.entities = num_entities;
  result.dim = dim;
  result.queries = config.queries;

#if KGE_COUNT_ALLOCS
  const uint64_t allocs_before =
      g_alloc_count.load(std::memory_order_relaxed);
#endif
  Stopwatch sw;
  for (int64_t q = 0; q < config.queries; ++q) query(simd_score);
  const double simd_sec = sw.ElapsedSeconds();
#if KGE_COUNT_ALLOCS
  const uint64_t allocs =
      g_alloc_count.load(std::memory_order_relaxed) - allocs_before;
  result.allocs_per_triple = double(allocs) / double(config.queries);
#endif

  // The scalar baseline is ~10x slower; a fraction of the queries gives
  // the same per-call estimate without dominating wall time.
  const int64_t ref_queries = std::max<int64_t>(config.queries / 8, 5);
  sw.Restart();
  for (int64_t q = 0; q < ref_queries; ++q) query(ref_score);
  const double ref_sec = sw.ElapsedSeconds();

  const double per_query = simd_sec / double(config.queries);
  result.ns_per_triple = per_query * 1e9;
  result.triples_per_sec = 1.0 / per_query;
  result.candidates_per_sec = double(num_entities) / per_query;
  result.speedup_vs_scalar_ref =
      (ref_sec / double(ref_queries)) / per_query;
  return result;
}

struct EvalThroughput {
  int64_t entities = 0;
  int64_t triples = 0;
  double triples_per_sec = 0.0;
  double filtered_mrr = 0.0;
  double filtered_hits10 = 0.0;
};

EvalThroughput BenchEndToEnd(const PerfConfig& config) {
  WordNetLikeOptions options;
  options.num_entities = int32_t(config.eval_entities);
  options.seed = 42;
  const Dataset dataset = GenerateWordNetLike(options);
  FilterIndex filter;
  filter.Build(dataset.train, dataset.valid, dataset.test);
  Evaluator evaluator(&filter, dataset.num_relations());

  std::unique_ptr<MultiEmbeddingModel> model = MakeComplEx(
      dataset.num_entities(), dataset.num_relations(),
      int32_t(config.dim_budget / 2), /*seed=*/42);

  EvalOptions eval_options;
  eval_options.filtered = true;
  eval_options.max_triples = size_t(config.eval_triples);
  eval_options.num_threads = 1;

  // Warm-up evaluates once (JIT-free, but faults pages + fills scratch).
  evaluator.EvaluateOverall(*model, dataset.test, eval_options);

  Stopwatch sw;
  const RankingMetrics metrics =
      evaluator.EvaluateOverall(*model, dataset.test, eval_options);
  const double seconds = sw.ElapsedSeconds();

  EvalThroughput result;
  result.entities = dataset.num_entities();
  result.triples = int64_t(metrics.count());
  result.triples_per_sec = double(metrics.count()) / seconds;
  result.filtered_mrr = metrics.Mrr();
  result.filtered_hits10 = metrics.HitsAt(10);
  return result;
}

// ---- Eval batching ---------------------------------------------------------
// The evaluator's ranking step as a function of the query batch size B:
// the same Q queries (one relation, a designated true tail each) are
// walked B at a time through KgeModel::TopKWalk's rank sink, counting
// the candidates above each truth. Counts are identical at every B, so
// the rows measure pure memory scheduling: each entity-table tile is
// read once per walk instead of once per query.

// One walk of the rank sink over the tails of (heads[q], relation),
// counted against truths[q], unfiltered and on one lane: the
// evaluator's step for one batch. `folds` and `scratch` only grow, so
// once warmed a pass allocates nothing.
void RankWalk(const KgeModel& model, RelationId relation,
              std::span<const EntityId> heads,
              std::span<const EntityId> truths, ScorePrecision precision,
              bool prune, std::vector<float>* folds,
              TopKWalkScratch* scratch, std::span<RankCounts> counts,
              RankScanStats* stats) {
  const std::span<float> fold =
      ScratchSpan(*folds, heads.size() * model.FoldWidth());
  model.FoldQueries(QuerySide::kTail, relation, heads, fold);
  TopKWalkBatch batch;
  batch.relation = relation;
  batch.anchors = heads;
  batch.folds = fold;
  batch.truths = truths;
  batch.precision = precision;
  batch.prune = prune;
  std::fill(counts.begin(), counts.end(), RankCounts{});
  model.TopKWalk(batch, 0, 1, {}, counts, scratch, stats);
}

struct EvalBatchRow {
  int batch = 1;
  double ns_per_triple = 0.0;
  double gb_per_s = 0.0;  // entity-table bytes scored per second
  double allocs_per_triple = -1.0;  // -1 = not measured (sanitized build)
  double speedup_vs_b1 = 1.0;
};

struct EvalBatchReport {
  int64_t entities = 0;
  int64_t dim = 0;
  int64_t queries = 0;
  std::vector<EvalBatchRow> rows;
  // Metric-equality canary: full filtered Evaluate on the WN18-like KG,
  // one query per walk (mrr_per_query) vs 32 (mrr_batched).
  double mrr_per_query = 0.0;
  double mrr_batched = 0.0;
  bool bit_identical = false;
};

EvalBatchReport BenchEvalBatching(const PerfConfig& config) {
  const int32_t num_entities = int32_t(config.entities);
  const int32_t num_relations = 18;
  const int32_t dim = int32_t(config.dim_budget / 2);  // ComplEx: 2 vectors
  std::unique_ptr<MultiEmbeddingModel> model =
      MakeComplEx(num_entities, num_relations, dim, /*seed=*/42);

  // A fixed query workload shared by every batch size: Q heads, one
  // relation (grouping by relation is the evaluator's job; a walk sees
  // one relation either way), and a designated true tail per query.
  Rng rng(13);
  const int64_t num_queries = config.queries;
  std::vector<EntityId> heads(static_cast<size_t>(num_queries));
  std::vector<EntityId> truths(static_cast<size_t>(num_queries));
  for (int64_t q = 0; q < num_queries; ++q) {
    heads[size_t(q)] = EntityId(rng.NextBounded(uint64_t(num_entities)));
    truths[size_t(q)] = EntityId(rng.NextBounded(uint64_t(num_entities)));
  }
  const RelationId relation = 0;

  const int batch_sizes[] = {1, 8, 32, 128};
  const size_t max_batch = 128;
  std::vector<float> folds;
  TopKWalkScratch scratch;
  std::vector<RankCounts> counts(max_batch);
  RankScanStats stats;
  volatile uint64_t rank_sink = 0;

  EvalBatchReport report;
  report.entities = num_entities;
  report.dim = dim;
  report.queries = num_queries;

  for (const int batch : batch_sizes) {
    // Warm-up pass: faults pages and grows the walk's scratch to this
    // batch size, so the timed loop is steady state.
    const auto run_pass = [&] {
      for (int64_t q0 = 0; q0 < num_queries; q0 += batch) {
        const size_t count =
            size_t(std::min<int64_t>(batch, num_queries - q0));
        RankWalk(*model, relation,
                 std::span<const EntityId>(heads.data() + q0, count),
                 std::span<const EntityId>(truths.data() + q0, count),
                 ScorePrecision::kDouble, /*prune=*/false, &folds, &scratch,
                 std::span<RankCounts>(counts.data(), count), &stats);
        for (size_t i = 0; i < count; ++i) {
          rank_sink = rank_sink + counts[i].better;
        }
      }
    };
    run_pass();

#if KGE_COUNT_ALLOCS
    const uint64_t allocs_before =
        g_alloc_count.load(std::memory_order_relaxed);
#endif
    Stopwatch sw;
    run_pass();
    const double seconds = sw.ElapsedSeconds();

    EvalBatchRow row;
    row.batch = batch;
#if KGE_COUNT_ALLOCS
    const uint64_t allocs =
        g_alloc_count.load(std::memory_order_relaxed) - allocs_before;
    row.allocs_per_triple = double(allocs) / double(num_queries);
#endif
    row.ns_per_triple = seconds / double(num_queries) * 1e9;
    const double table_bytes = double(num_queries) * double(num_entities) *
                               double(config.dim_budget) * sizeof(float);
    row.gb_per_s = table_bytes / seconds / 1e9;
    report.rows.push_back(row);
  }
  for (EvalBatchRow& row : report.rows) {
    row.speedup_vs_b1 = report.rows.front().ns_per_triple / row.ns_per_triple;
  }

  // Metric-equality canary on the end-to-end KG: the evaluator at B = 32
  // must reproduce its B = 1 metrics bit-for-bit.
  WordNetLikeOptions kg_options;
  kg_options.num_entities = int32_t(config.eval_entities);
  kg_options.seed = 42;
  const Dataset dataset = GenerateWordNetLike(kg_options);
  FilterIndex filter;
  filter.Build(dataset.train, dataset.valid, dataset.test);
  Evaluator evaluator(&filter, dataset.num_relations());
  std::unique_ptr<MultiEmbeddingModel> eval_model = MakeComplEx(
      dataset.num_entities(), dataset.num_relations(), dim, /*seed=*/42);
  EvalOptions eval_options;
  eval_options.filtered = true;
  eval_options.max_triples = size_t(config.eval_triples);
  eval_options.batch_queries = 1;
  const RankingMetrics per_query =
      evaluator.EvaluateOverall(*eval_model, dataset.test, eval_options);
  eval_options.batch_queries = 32;
  const RankingMetrics batched =
      evaluator.EvaluateOverall(*eval_model, dataset.test, eval_options);
  report.mrr_per_query = per_query.Mrr();
  report.mrr_batched = batched.Mrr();
  report.bit_identical = per_query.Mrr() == batched.Mrr() &&
                         per_query.MeanRank() == batched.MeanRank() &&
                         per_query.HitsAt(10) == batched.HitsAt(10);
  return report;
}

// ---- Precision tiers -------------------------------------------------------
// The same ranking walk workload at each scoring tier
// (see core/scoring_replica.h): kDouble is the exact protocol baseline,
// kFloat32 swaps the accumulator width, kInt8 streams the quantized
// entity replica (4x fewer table bytes per candidate). The drift block
// evaluates a briefly-trained model under the full filtered protocol at
// every tier so CI can gate the metric deltas the narrow tiers trade
// for bandwidth.

struct PrecisionTierRow {
  ScorePrecision precision = ScorePrecision::kDouble;
  double ns_per_triple = 0.0;
  double gb_per_s = 0.0;  // effective entity-table bytes scored per second
  double allocs_per_triple = -1.0;  // -1 = not measured (sanitized build)
  double speedup_vs_double = 1.0;
};

struct PrecisionDriftRow {
  ScorePrecision precision = ScorePrecision::kDouble;
  double mrr = 0.0;
  double hits1 = 0.0;
  double hits3 = 0.0;
  double hits10 = 0.0;
  double delta_mrr = 0.0;
  double delta_hits1 = 0.0;
  double delta_hits3 = 0.0;
  double delta_hits10 = 0.0;
};

struct PrecisionReport {
  int64_t entities = 0;
  int64_t dim = 0;
  int64_t queries = 0;
  int batch = 32;
  std::vector<PrecisionTierRow> tiers;
  int64_t drift_entities = 0;
  int64_t drift_triples = 0;
  int64_t drift_epochs = 0;
  std::vector<PrecisionDriftRow> drift;
};

constexpr ScorePrecision kPrecisionTiers[] = {
    ScorePrecision::kDouble, ScorePrecision::kFloat32, ScorePrecision::kInt8};

PrecisionReport BenchPrecisionTiers(const PerfConfig& config) {
  const int32_t num_entities = int32_t(config.entities);
  const int32_t num_relations = 18;
  const int32_t dim = int32_t(config.dim_budget / 2);  // ComplEx: 2 vectors
  std::unique_ptr<MultiEmbeddingModel> model =
      MakeComplEx(num_entities, num_relations, dim, /*seed=*/42);

  // Same fixed workload shape as the batching bench: Q heads, one
  // relation, a designated true tail per query, batch fixed at 32 so the
  // rows differ only in the scoring tier.
  Rng rng(17);
  const int64_t num_queries = config.queries;
  std::vector<EntityId> heads(static_cast<size_t>(num_queries));
  std::vector<EntityId> truths(static_cast<size_t>(num_queries));
  for (int64_t q = 0; q < num_queries; ++q) {
    heads[size_t(q)] = EntityId(rng.NextBounded(uint64_t(num_entities)));
    truths[size_t(q)] = EntityId(rng.NextBounded(uint64_t(num_entities)));
  }
  const RelationId relation = 0;

  PrecisionReport report;
  report.entities = num_entities;
  report.dim = dim;
  report.queries = num_queries;
  const int batch = report.batch;
  std::vector<float> folds;
  TopKWalkScratch scratch;
  std::vector<RankCounts> counts(static_cast<size_t>(batch));
  RankScanStats stats;
  volatile uint64_t rank_sink = 0;

  for (const ScorePrecision precision : kPrecisionTiers) {
    // Replica builds (the int8 quantization pass) happen here, outside
    // the timed and allocation-counted region — exactly where the
    // evaluator runs them (once, before the ranking fanout).
    model->PrepareForScoring(precision);
    const auto run_pass = [&] {
      for (int64_t q0 = 0; q0 < num_queries; q0 += batch) {
        const size_t count =
            size_t(std::min<int64_t>(batch, num_queries - q0));
        RankWalk(*model, relation,
                 std::span<const EntityId>(heads.data() + q0, count),
                 std::span<const EntityId>(truths.data() + q0, count),
                 precision, /*prune=*/false, &folds, &scratch,
                 std::span<RankCounts>(counts.data(), count), &stats);
        for (size_t i = 0; i < count; ++i) {
          rank_sink = rank_sink + counts[i].better;
        }
      }
    };
    run_pass();  // warm-up: faults pages, grows the walk's scratch

#if KGE_COUNT_ALLOCS
    const uint64_t allocs_before =
        g_alloc_count.load(std::memory_order_relaxed);
#endif
    Stopwatch sw;
    run_pass();
    const double seconds = sw.ElapsedSeconds();

    PrecisionTierRow row;
    row.precision = precision;
#if KGE_COUNT_ALLOCS
    const uint64_t allocs =
        g_alloc_count.load(std::memory_order_relaxed) - allocs_before;
    row.allocs_per_triple = double(allocs) / double(num_queries);
#endif
    row.ns_per_triple = seconds / double(num_queries) * 1e9;
    // Bytes actually streamed per candidate element: the double and
    // float32 tiers read the 4-byte master rows, int8 the 1-byte codes.
    const double bytes_per_elem =
        precision == ScorePrecision::kInt8 ? 1.0 : double(sizeof(float));
    const double table_bytes = double(num_queries) * double(num_entities) *
                               double(config.dim_budget) * bytes_per_elem;
    row.gb_per_s = table_bytes / seconds / 1e9;
    report.tiers.push_back(row);
  }
  for (PrecisionTierRow& row : report.tiers) {
    row.speedup_vs_double =
        report.tiers.front().ns_per_triple / row.ns_per_triple;
  }

  // ---- Accuracy drift under the full filtered protocol ----
  // Measured on a briefly-trained model: training opens score margins
  // between true triples and corruptions that dwarf the int8
  // quantization noise, so the deltas reflect the tier contract rather
  // than coin-flip rank swaps among near-tied random initial scores.
  WordNetLikeOptions kg_options;
  kg_options.num_entities = int32_t(config.eval_entities);
  kg_options.seed = 42;
  const Dataset dataset = GenerateWordNetLike(kg_options);
  FilterIndex filter;
  filter.Build(dataset.train, dataset.valid, dataset.test);
  Evaluator evaluator(&filter, dataset.num_relations());
  std::unique_ptr<MultiEmbeddingModel> drift_model = MakeComplEx(
      dataset.num_entities(), dataset.num_relations(), dim, /*seed=*/42);
  TrainerOptions train_options;
  train_options.batch_size = 256;
  train_options.num_negatives = 2;
  train_options.learning_rate = 0.05;
  train_options.optimizer = "adagrad";
  train_options.seed = 42;
  Trainer trainer(drift_model.get(), train_options);
  NegativeSamplerOptions sampler_options;
  NegativeSampler sampler(drift_model->num_entities(),
                          drift_model->num_relations(), dataset.train,
                          sampler_options);
  Rng train_rng(42);
  for (int64_t e = 0; e < config.drift_epochs; ++e) {
    g_sink = g_sink + trainer.RunEpoch(dataset.train, sampler, &train_rng);
  }

  report.drift_entities = dataset.num_entities();
  report.drift_epochs = config.drift_epochs;
  EvalOptions eval_options;
  eval_options.filtered = true;
  eval_options.max_triples = 0;  // the full test split, every tier
  eval_options.batch_queries = 32;
  for (const ScorePrecision precision : kPrecisionTiers) {
    eval_options.score_precision = precision;
    const RankingMetrics metrics =
        evaluator.EvaluateOverall(*drift_model, dataset.test, eval_options);
    PrecisionDriftRow row;
    row.precision = precision;
    row.mrr = metrics.Mrr();
    row.hits1 = metrics.HitsAt(1);
    row.hits3 = metrics.HitsAt(3);
    row.hits10 = metrics.HitsAt(10);
    report.drift_triples = int64_t(metrics.count());
    report.drift.push_back(row);
  }
  const PrecisionDriftRow& exact = report.drift.front();
  for (PrecisionDriftRow& row : report.drift) {
    row.delta_mrr = row.mrr - exact.mrr;
    row.delta_hits1 = row.hits1 - exact.hits1;
    row.delta_hits3 = row.hits3 - exact.hits3;
    row.delta_hits10 = row.hits10 - exact.hits10;
  }
  return report;
}

// ---- Scale tiers (§5h) -----------------------------------------------------
// Full-vocabulary ranking at the --scale presets (medium = 100k, xl =
// 1M entities), exhaustive vs bound-pruned, on a trained-like model.
// Pruning is exact — every pruned row carries a bit_identical canary
// against the exhaustive result — so the rows measure how many
// candidate tiles the Cauchy–Schwarz bounds prove irrelevant and what
// that saves in table bandwidth. The walk's two sinks are timed
// separately: rank counts (the evaluator's) and top-k (the serving
// reduction); the top-k path adds a multi-lane row to pin the
// lane-count invariance at scale.

// A trained-like model for the scale tiers without paying a 1M-entity
// training run: Xavier init, then entity norms rescaled to decay with
// id. Trained KGE embedding tables develop exactly this skew once the
// vocabulary is frequency-sorted — frequent entities grow large norms,
// the long tail stays small — and id-clustered norm skew is the
// structure tile pruning feeds on. The 0.05 floor keeps every tail row
// nonzero so pruned scans still have real work to reject.
std::unique_ptr<MultiEmbeddingModel> MakeSkewedDistMult(int32_t entities,
                                                        int32_t dim) {
  std::unique_ptr<MultiEmbeddingModel> model =
      MakeDistMult(entities, 8, dim, /*seed=*/42);
  EmbeddingStore& store = model->entity_store();
  for (int32_t e = 0; e < entities; ++e) {
    const double u = double(e) / double(entities);
    const float scale = 0.05f + 0.95f * float(std::exp(-8.0 * u));
    for (float& x : store.Of(e)) x *= scale;
  }
  return model;
}

struct ScaleRankRow {
  double exhaustive_ns_per_query = 0.0;
  double pruned_ns_per_query = 0.0;
  double speedup_pruned_vs_exhaustive = 0.0;
  double tiles_skipped_frac = 0.0;
  double exhaustive_gb_per_s = 0.0;
  double pruned_effective_gb_per_s = 0.0;
  double pruned_allocs_per_query = -1.0;  // -1 = sanitized build
  bool bit_identical = false;
};

struct ScaleTopKRow {
  double exhaustive_ns_per_query = 0.0;
  double pruned_ns_per_query = 0.0;
  double sharded_pruned_ns_per_query = 0.0;
  double speedup_pruned_vs_exhaustive = 0.0;
  double tiles_skipped_frac = 0.0;
  double pruned_allocs_per_query = -1.0;  // -1 = sanitized build
  bool bit_identical = false;
};

struct ScaleTierRow {
  int64_t entities = 0;
  int64_t queries = 0;
  ScaleRankRow rank;
  ScaleTopKRow topk;
};

struct ScaleReport {
  int64_t dim = 0;
  uint32_t k = 10;
  int shards = 7;
  std::vector<ScaleTierRow> tiers;
};

ScaleTierRow BenchScaleTier(const PerfConfig& config, int64_t entities,
                            uint32_t k, int shards) {
  const int32_t n = int32_t(entities);
  const int32_t dim = int32_t(config.dim_budget);
  std::unique_ptr<MultiEmbeddingModel> model = MakeSkewedDistMult(n, dim);
  const ScorePrecision precision = ScorePrecision::kDouble;
  model->PrepareForPrunedScoring(precision);

  // Query workload: random heads; the true tail is the best-scoring
  // entity of a fixed-size candidate sample, standing in for the truth
  // of a converged model (which the filtered protocol ranks near the
  // top — an untrained truth sits in the noise floor and no bound can
  // prove anything against it).
  Rng rng(23);
  const int64_t num_queries = config.scale_queries;
  std::vector<EntityId> heads(static_cast<size_t>(num_queries));
  std::vector<RelationId> rels(static_cast<size_t>(num_queries));
  std::vector<EntityId> truths(static_cast<size_t>(num_queries));
  const int32_t sample = int32_t(std::min<int64_t>(entities, 2048));
  std::vector<EntityId> candidates(static_cast<size_t>(sample));
  for (int32_t t = 0; t < sample; ++t) candidates[size_t(t)] = t;
  std::vector<float> sample_scores(static_cast<size_t>(sample));
  for (int64_t q = 0; q < num_queries; ++q) {
    const EntityId head = EntityId(rng.NextBounded(uint64_t(n)));
    const RelationId rel = RelationId(rng.NextBounded(8));
    model->ScoreCandidates(QuerySide::kTail, head, rel, candidates,
                           sample_scores);
    heads[size_t(q)] = head;
    rels[size_t(q)] = rel;
    truths[size_t(q)] = EntityId(
        std::max_element(sample_scores.begin(), sample_scores.end()) -
        sample_scores.begin());
  }

  ScaleTierRow tier;
  tier.entities = entities;
  tier.queries = num_queries;
  const double table_bytes_per_query =
      double(entities) * double(dim) * sizeof(float);

  // ---- Rank path: the rank-count walk, exhaustive vs pruned ----
  // One query per walk, as a batch of one. One flat buffer for both
  // count arrays (GCC 12's -Wmismatched-new-delete false-fires on the
  // malloc-backed replacement operator new when a vector's full
  // lifetime is inlined into this frame, so the buffers share one
  // up-front allocation).
  std::vector<RankCounts> counts(static_cast<size_t>(num_queries) * 2);
  const std::span<RankCounts> ex_counts(counts.data(), size_t(num_queries));
  const std::span<RankCounts> pr_counts(counts.data() + num_queries,
                                        size_t(num_queries));
  std::vector<float> rank_folds;
  TopKWalkScratch rank_scratch;
  const auto rank_pass = [&](bool prune, std::span<RankCounts> out,
                             RankScanStats* stats) {
    for (int64_t q = 0; q < num_queries; ++q) {
      RankWalk(*model, rels[size_t(q)],
               std::span<const EntityId>(&heads[size_t(q)], 1),
               std::span<const EntityId>(&truths[size_t(q)], 1), precision,
               prune, &rank_folds, &rank_scratch, out.subspan(size_t(q), 1),
               stats);
    }
  };
  RankScanStats warm_stats;
  rank_pass(false, ex_counts, &warm_stats);  // warm-up + reference
  Stopwatch sw;
  rank_pass(false, ex_counts, &warm_stats);
  const double ex_seconds = sw.ElapsedSeconds();

  RankScanStats rank_stats;
  rank_pass(true, pr_counts, &rank_stats);  // warm-up
  rank_stats = RankScanStats{};
#if KGE_COUNT_ALLOCS
  const uint64_t rank_allocs_before =
      g_alloc_count.load(std::memory_order_relaxed);
#endif
  sw.Restart();
  rank_pass(true, pr_counts, &rank_stats);
  const double pr_seconds = sw.ElapsedSeconds();
#if KGE_COUNT_ALLOCS
  tier.rank.pruned_allocs_per_query =
      double(g_alloc_count.load(std::memory_order_relaxed) -
             rank_allocs_before) /
      double(num_queries);
#endif

  tier.rank.exhaustive_ns_per_query =
      ex_seconds / double(num_queries) * 1e9;
  tier.rank.pruned_ns_per_query = pr_seconds / double(num_queries) * 1e9;
  tier.rank.speedup_pruned_vs_exhaustive = ex_seconds / pr_seconds;
  tier.rank.tiles_skipped_frac =
      rank_stats.tiles_total > 0
          ? double(rank_stats.tiles_skipped) / double(rank_stats.tiles_total)
          : 0.0;
  tier.rank.exhaustive_gb_per_s =
      double(num_queries) * table_bytes_per_query / ex_seconds / 1e9;
  // Effective bandwidth of the pruned pass: only unskipped tiles are
  // streamed, so the touched-byte count shrinks by the skip fraction.
  tier.rank.pruned_effective_gb_per_s =
      double(num_queries) * table_bytes_per_query *
      (1.0 - tier.rank.tiles_skipped_frac) / pr_seconds / 1e9;
  tier.rank.bit_identical = true;
  for (int64_t q = 0; q < num_queries; ++q) {
    if (pr_counts[size_t(q)].better != ex_counts[size_t(q)].better ||
        pr_counts[size_t(q)].equal != ex_counts[size_t(q)].equal) {
      tier.rank.bit_identical = false;
    }
  }

  // ---- Top-k path: TopKWalk, exhaustive vs pruned vs multi-lane ----
  TopKHeap<float, EntityId> ex_heap;
  TopKHeap<float, EntityId> pr_heap;
  TopKHeap<float, EntityId> laned_heap;
  ex_heap.Reserve(int(k));
  pr_heap.Reserve(int(k));
  laned_heap.Reserve(int(k));
  std::vector<float> fold(model->FoldWidth());
  TopKWalkScratch scratch;
  // One query walked lane by lane into one heap, as PredictTails runs
  // it; `lanes` > 1 is the multi-lane row.
  const auto topk_pass = [&](bool prune, int lanes,
                             TopKHeap<float, EntityId>* heap, int64_t q,
                             RankScanStats* stats) {
    TopKWalkBatch batch;
    batch.relation = rels[size_t(q)];
    batch.anchors = std::span<const EntityId>(&heads[size_t(q)], 1);
    model->FoldQueries(batch.side, batch.relation, batch.anchors, fold);
    batch.folds = fold;
    batch.precision = precision;
    batch.prune = prune;
    heap->ResetCapacity(int(k));
    for (int lane = 0; lane < lanes; ++lane) {
      model->TopKWalk(batch, lane, lanes, std::span(heap, 1), {}, &scratch,
                      stats);
    }
  };
  const auto sharded_pass = [&](int64_t q, RankScanStats* stats) {
    topk_pass(true, shards, &laned_heap, q, stats);
  };
  const auto same_entries = [](std::span<const TopKHeap<float, EntityId>::Entry>
                                   a,
                               std::span<const TopKHeap<float, EntityId>::Entry>
                                   b) {
    if (a.size() != b.size()) return false;
    for (size_t i = 0; i < a.size(); ++i) {
      if (a[i].entity != b[i].entity || a[i].score != b[i].score) return false;
    }
    return true;
  };

  RankScanStats topk_stats;
  tier.topk.bit_identical = true;
  // Correctness sweep (untimed): pruned and sharded-pruned must return
  // exactly the exhaustive top-k for every query. Also warms scratch.
  for (int64_t q = 0; q < num_queries; ++q) {
    topk_pass(false, 1, &ex_heap, q, &topk_stats);
    topk_pass(true, 1, &pr_heap, q, &topk_stats);
    sharded_pass(q, &topk_stats);
    if (!same_entries(ex_heap.TakeSorted(), pr_heap.TakeSorted()) ||
        !same_entries(ex_heap.TakeSorted(), laned_heap.TakeSorted())) {
      tier.topk.bit_identical = false;
    }
  }

  sw.Restart();
  for (int64_t q = 0; q < num_queries; ++q) {
    topk_pass(false, 1, &ex_heap, q, &topk_stats);
  }
  const double topk_ex_seconds = sw.ElapsedSeconds();

  topk_stats = RankScanStats{};
#if KGE_COUNT_ALLOCS
  const uint64_t topk_allocs_before =
      g_alloc_count.load(std::memory_order_relaxed);
#endif
  sw.Restart();
  for (int64_t q = 0; q < num_queries; ++q) {
    topk_pass(true, 1, &pr_heap, q, &topk_stats);
  }
  const double topk_pr_seconds = sw.ElapsedSeconds();
#if KGE_COUNT_ALLOCS
  tier.topk.pruned_allocs_per_query =
      double(g_alloc_count.load(std::memory_order_relaxed) -
             topk_allocs_before) /
      double(num_queries);
#endif

  sw.Restart();
  for (int64_t q = 0; q < num_queries; ++q) {
    RankScanStats shard_stats;
    sharded_pass(q, &shard_stats);
  }
  const double topk_sh_seconds = sw.ElapsedSeconds();

  tier.topk.exhaustive_ns_per_query =
      topk_ex_seconds / double(num_queries) * 1e9;
  tier.topk.pruned_ns_per_query =
      topk_pr_seconds / double(num_queries) * 1e9;
  tier.topk.sharded_pruned_ns_per_query =
      topk_sh_seconds / double(num_queries) * 1e9;
  tier.topk.speedup_pruned_vs_exhaustive = topk_ex_seconds / topk_pr_seconds;
  tier.topk.tiles_skipped_frac =
      topk_stats.tiles_total > 0
          ? double(topk_stats.tiles_skipped) / double(topk_stats.tiles_total)
          : 0.0;
  return tier;
}

ScaleReport BenchScaleTiers(const PerfConfig& config) {
  ScaleReport report;
  report.dim = config.dim_budget;
  for (const int64_t entities : ScaleTierEntities(config)) {
    report.tiers.push_back(
        BenchScaleTier(config, entities, report.k, report.shards));
  }
  return report;
}

// ---- Training throughput ---------------------------------------------------

struct TrainingRow {
  std::string model;
  std::string regime;  // "negative_sampling" | "one_vs_all"
  int threads = 1;
  // Batches in flight: Trainer::kPipelineDepth for negative sampling, 1
  // for 1-vs-all (no sampling stage runs ahead).
  int pipeline_depth = 1;
  int64_t train_triples = 0;
  double epoch_seconds = 0.0;
  double triples_per_sec = 0.0;
  double examples_per_sec = 0.0;
  double allocs_per_triple = -1.0;  // -1 = not measured (sanitized build)
  double speedup_vs_1t = 1.0;
  // Per-stage occupancy: busy (sample/score, summed over tasks) or caller
  // wall (merge/apply) seconds divided by total epoch wall seconds.
  // Sample/score can exceed 1.0 when several workers are busy at once.
  double occ_sample = 0.0;
  double occ_score = 0.0;
  double occ_merge = 0.0;
  double occ_apply = 0.0;
};

void FillStageOccupancy(const TrainStageStats& stats, TrainingRow* row) {
  if (stats.wall_seconds <= 0.0) return;
  row->occ_sample = stats.sample_seconds / stats.wall_seconds;
  row->occ_score = stats.score_seconds / stats.wall_seconds;
  row->occ_merge = stats.merge_seconds / stats.wall_seconds;
  row->occ_apply = stats.apply_seconds / stats.wall_seconds;
}

std::unique_ptr<MultiEmbeddingModel> MakeTrainModel(const std::string& name,
                                                    const Dataset& data,
                                                    int64_t dim_budget) {
  if (name == "DistMult") {
    return MakeDistMult(data.num_entities(), data.num_relations(),
                        int32_t(dim_budget), /*seed=*/42);
  }
  return MakeComplEx(data.num_entities(), data.num_relations(),
                     int32_t(dim_budget / 2), /*seed=*/42);
}

// Warm-up epochs until one allocates nothing, at most 20 (one when
// allocations are not counted): every per-thread scratch buffer, shard
// buffer and gradient pool has then grown to its high-water mark, so
// the timed (and allocation-counted) epochs are steady state. One epoch
// is not enough with a pool: a worker may run its first task, and grow
// its thread_local scratch, only in a later epoch.
template <typename Epoch>
void WarmUpTraining(const Epoch& run_epoch) {
  constexpr int kMaxWarmUpEpochs = 20;
  for (int epoch = 0; epoch < kMaxWarmUpEpochs; ++epoch) {
#if KGE_COUNT_ALLOCS
    const uint64_t before = g_alloc_count.load(std::memory_order_relaxed);
    run_epoch();
    if (g_alloc_count.load(std::memory_order_relaxed) == before) return;
#else
    run_epoch();
    return;
#endif
  }
}

TrainingRow BenchNegativeSampling(const PerfConfig& config,
                                  const Dataset& data,
                                  const std::string& model_name,
                                  int threads) {
  std::unique_ptr<MultiEmbeddingModel> model =
      MakeTrainModel(model_name, data, config.dim_budget);
  TrainerOptions options;
  options.batch_size = 256;
  options.num_negatives = int(config.train_negatives);
  options.num_threads = threads;
  options.seed = 42;
  Trainer trainer(model.get(), options);
  NegativeSamplerOptions sampler_options;
  NegativeSampler sampler(model->num_entities(), model->num_relations(),
                          data.train, sampler_options);
  Rng rng(42);
  WarmUpTraining(
      [&] { g_sink = g_sink + trainer.RunEpoch(data.train, sampler, &rng); });
  trainer.ResetStageStats();

  TrainingRow row;
  row.model = model_name;
  row.regime = "negative_sampling";
  row.threads = threads;
  row.pipeline_depth = int(Trainer::kPipelineDepth);
  row.train_triples = int64_t(data.train.size());
#if KGE_COUNT_ALLOCS
  const uint64_t allocs_before =
      g_alloc_count.load(std::memory_order_relaxed);
#endif
  Stopwatch sw;
  for (int64_t e = 0; e < config.train_epochs; ++e) {
    g_sink = g_sink + trainer.RunEpoch(data.train, sampler, &rng);
  }
  const double seconds = sw.ElapsedSeconds();
#if KGE_COUNT_ALLOCS
  const uint64_t allocs =
      g_alloc_count.load(std::memory_order_relaxed) - allocs_before;
  row.allocs_per_triple =
      double(allocs) /
      double(config.train_epochs * int64_t(data.train.size()));
#endif
  const double per_epoch = seconds / double(config.train_epochs);
  row.epoch_seconds = per_epoch;
  row.triples_per_sec = double(data.train.size()) / per_epoch;
  row.examples_per_sec =
      row.triples_per_sec * double(1 + config.train_negatives);
  FillStageOccupancy(trainer.stage_stats(), &row);
  return row;
}

TrainingRow BenchOneVsAll(const PerfConfig& config, const Dataset& data,
                          const std::string& model_name, int threads) {
  std::unique_ptr<MultiEmbeddingModel> model =
      MakeTrainModel(model_name, data, config.dim_budget);
  OneVsAllOptions options;
  options.max_epochs = 1;
  options.num_threads = threads;
  options.seed = 42;
  OneVsAllTrainer trainer(model.get(), options);
  // Train() builds the query index and runs the first warm-up epoch.
  const Result<TrainResult> warmup =
      trainer.Train(data.train, OneVsAllTrainer::ValidationFn());
  KGE_CHECK_OK(warmup.status());
  Rng rng(43);
  WarmUpTraining([&] { g_sink = g_sink + trainer.RunEpoch(&rng); });

  // Distinct (h, r) queries, to convert epoch time into candidate
  // scoring throughput (each query scores every entity).
  std::unordered_set<uint64_t> distinct;
  for (const Triple& t : data.train) {
    distinct.insert((uint64_t(uint32_t(t.head)) << 32) |
                    uint32_t(t.relation));
  }

  TrainingRow row;
  row.model = model_name;
  row.regime = "one_vs_all";
  row.threads = threads;
  row.train_triples = int64_t(data.train.size());
  trainer.ResetStageStats();
#if KGE_COUNT_ALLOCS
  const uint64_t allocs_before =
      g_alloc_count.load(std::memory_order_relaxed);
#endif
  Stopwatch sw;
  for (int64_t e = 0; e < config.train_epochs; ++e) {
    g_sink = g_sink + trainer.RunEpoch(&rng);
  }
  const double seconds = sw.ElapsedSeconds();
#if KGE_COUNT_ALLOCS
  const uint64_t allocs =
      g_alloc_count.load(std::memory_order_relaxed) - allocs_before;
  row.allocs_per_triple =
      double(allocs) /
      double(config.train_epochs * int64_t(data.train.size()));
#endif
  const double per_epoch = seconds / double(config.train_epochs);
  row.epoch_seconds = per_epoch;
  row.triples_per_sec = double(data.train.size()) / per_epoch;
  // Each query scores every entity: candidate examples per second.
  row.examples_per_sec = double(distinct.size()) *
                         double(data.num_entities()) / per_epoch;
  FillStageOccupancy(trainer.stage_stats(), &row);
  return row;
}

std::vector<TrainingRow> BenchTraining(const PerfConfig& config) {
  WordNetLikeOptions options;
  options.num_entities = int32_t(config.train_entities);
  options.seed = 42;
  const Dataset data = GenerateWordNetLike(options);

  std::vector<TrainingRow> rows;
  const int thread_counts[] = {1, 4};
  for (const char* model : {"DistMult", "ComplEx"}) {
    for (int t : thread_counts) {
      rows.push_back(BenchNegativeSampling(config, data, model, t));
    }
  }
  for (int t : thread_counts) {
    rows.push_back(BenchOneVsAll(config, data, "ComplEx", t));
  }
  // Speedup of every row over its own (model, regime) 1-thread run.
  for (TrainingRow& row : rows) {
    for (const TrainingRow& base : rows) {
      if (base.model == row.model && base.regime == row.regime &&
          base.threads == 1 && base.triples_per_sec > 0.0) {
        row.speedup_vs_1t = row.triples_per_sec / base.triples_per_sec;
      }
    }
  }
  return rows;
}

// ---- Serving ---------------------------------------------------------------
// The kge_serve hot path (DESIGN.md §5g): one direct (no-socket) phase
// timing the micro-batcher + batched kernels alone and gating its
// steady-state allocation count, loopback client phases at several
// connection counts for p50/p99/QPS, and an overload phase with a tiny
// admission queue at 2x the largest client count proving load shedding
// engages while admitted requests still meet the deadline.

struct ServeClientRow {
  int clients = 0;
  int64_t queries = 0;  // kOk replies across all clients
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double qps = 0.0;
};

struct ServingReport {
  int64_t entities = 0;
  int64_t dim = 0;
  uint32_t topk = 0;
  int64_t direct_queries = 0;
  double direct_ns_per_query = 0.0;
  double direct_allocs_per_query = -1.0;
  std::vector<ServeClientRow> client_rows;
  int overload_clients = 0;
  int overload_max_queue = 0;
  uint32_t overload_deadline_ms = 0;
  int64_t overload_queries = 0;
  int64_t overload_ok = 0;
  int64_t overload_shed = 0;
  double shed_rate = 0.0;
  double admitted_p99_ms = 0.0;
};

// Synchronous rendezvous for direct batcher submissions. The results
// buffer is reserved once, so steady-state replies do not allocate.
struct ServeWaiter {
  Mutex mutex;
  CondVar cv;
  bool done KGE_GUARDED_BY(mutex) = false;
  ServeStatusCode status KGE_GUARDED_BY(mutex) = ServeStatusCode::kError;
  std::vector<ScoredEntity> results KGE_GUARDED_BY(mutex);

  ServeWaiter() {
    MutexLock lock(mutex);
    results.reserve(kServeMaxTopK);
  }

  static void OnReply(void* ctx, const ServeReply& reply) {
    auto* waiter = static_cast<ServeWaiter*>(ctx);
    MutexLock lock(waiter->mutex);
    waiter->status = reply.status;
    waiter->results.assign(reply.results.begin(), reply.results.end());
    waiter->done = true;
    waiter->cv.NotifyAll();
  }

  ServeStatusCode Await() {
    MutexLock lock(mutex);
    while (!done) cv.Wait(mutex);
    done = false;
    return status;
  }
};

double PercentileMs(std::vector<double>* sorted_in_place, double fraction) {
  if (sorted_in_place->empty()) return 0.0;
  std::sort(sorted_in_place->begin(), sorted_in_place->end());
  const size_t index =
      size_t(fraction * double(sorted_in_place->size() - 1) + 0.5);
  return (*sorted_in_place)[std::min(index, sorted_in_place->size() - 1)];
}

int ConnectLoopback(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(uint16_t(port));
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

struct ServeClientTally {
  std::vector<double> ok_latencies_ms;
  int64_t ok = 0;
  int64_t shed = 0;
  int64_t other = 0;
};

// One synchronous loopback client: send a query, wait for the full
// response, repeat. Latency is recorded only for kOk replies (shed
// replies return immediately and would flatter the percentiles).
void RunServeClient(int port, int64_t queries, uint32_t k,
                    int64_t entities, uint64_t seed,
                    ServeClientTally* tally) {
  const int fd = ConnectLoopback(port);
  if (fd < 0) {
    tally->other += queries;
    return;
  }
  Rng rng(seed);
  std::vector<uint8_t> frame(kRequestFrameBytes);
  std::vector<uint8_t> response(MaxResponseFrameBytes(kServeMaxTopK));
  tally->ok_latencies_ms.reserve(size_t(queries));
  for (int64_t q = 0; q < queries; ++q) {
    ServeRequest request;
    request.side = QuerySide::kTail;
    request.entity = EntityId(rng.NextBounded(uint64_t(entities)));
    request.relation = 0;
    request.k = k;
    request.request_id = uint64_t(q) + 1;
    if (EncodeServeRequest(request, frame) == 0) {
      tally->other += queries - q;
      break;
    }
    Stopwatch sw;
    if (!WriteAll(fd, frame.data(), frame.size())) {
      tally->other += queries - q;
      break;
    }
    uint8_t head[kFrameHeaderBytes];
    if (!ReadExact(fd, head, sizeof(head))) {
      tally->other += queries - q;
      break;
    }
    uint32_t magic = 0;
    uint32_t body_len = 0;
    DecodeFrameHeader(std::span<const uint8_t>(head, sizeof(head)), &magic,
                      &body_len);
    if (magic != kServeResponseMagic ||
        body_len + kFrameHeaderBytes > response.size() ||
        !ReadExact(fd, response.data() + kFrameHeaderBytes, body_len)) {
      tally->other += queries - q;
      break;
    }
    std::memcpy(response.data(), head, sizeof(head));
    ServeResponseHeader header;
    std::vector<ScoredEntity> results;
    const Status decoded = DecodeServeResponseFrame(
        std::span<const uint8_t>(response.data(),
                                 kFrameHeaderBytes + body_len),
        &header, &results);
    if (!decoded.ok()) {
      tally->other += queries - q;
      break;
    }
    if (header.status == ServeStatusCode::kOk) {
      tally->ok += 1;
      tally->ok_latencies_ms.push_back(sw.ElapsedSeconds() * 1e3);
    } else if (header.status == ServeStatusCode::kShed) {
      tally->shed += 1;
    } else {
      tally->other += 1;
    }
  }
  ::close(fd);
}

ServingReport BenchServing(const PerfConfig& config) {
  ServingReport report;
  report.entities = config.serve_entities;
  report.dim = config.dim_budget;
  report.topk = 10;

  Result<std::unique_ptr<KgeModel>> model =
      MakeModelByName("distmult", int32_t(config.serve_entities), 8,
                      int32_t(config.dim_budget), 42);
  KGE_CHECK_OK(model.status());
  (*model)->PrepareForScoring(ScorePrecision::kDouble);
  SnapshotRegistry registry;
  {
    auto snapshot = std::make_shared<ModelSnapshot>();
    snapshot->model = std::move(*model);
    registry.Publish(std::move(snapshot));
  }

  // Phase 1: direct submissions, no socket. Times the admission path,
  // batch assembly, the batched kernel, and the top-k reduction; the
  // steady state must not allocate (CI gates allocs_per_query == 0).
  {
    BatcherOptions options;
    options.default_deadline_ms = kServeMaxDeadlineMs;
    MicroBatcher batcher(&registry, options);
    batcher.Start();
    ServeWaiter waiter;
    ServeRequest request;
    request.side = QuerySide::kTail;
    request.relation = 0;
    request.k = report.topk;
    Rng rng(7);
    for (int64_t q = 0; q < 64; ++q) {  // warm the scratch high-water mark
      request.entity =
          EntityId(rng.NextBounded(uint64_t(config.serve_entities)));
      batcher.Submit(request, &ServeWaiter::OnReply, &waiter);
      KGE_CHECK(waiter.Await() == ServeStatusCode::kOk);
    }
#if KGE_COUNT_ALLOCS
    const uint64_t allocs_before =
        g_alloc_count.load(std::memory_order_relaxed);
#endif
    Stopwatch sw;
    for (int64_t q = 0; q < config.serve_queries; ++q) {
      request.entity =
          EntityId(rng.NextBounded(uint64_t(config.serve_entities)));
      batcher.Submit(request, &ServeWaiter::OnReply, &waiter);
      KGE_CHECK(waiter.Await() == ServeStatusCode::kOk);
    }
    const double seconds = sw.ElapsedSeconds();
#if KGE_COUNT_ALLOCS
    const uint64_t allocs =
        g_alloc_count.load(std::memory_order_relaxed) - allocs_before;
    report.direct_allocs_per_query =
        double(allocs) / double(config.serve_queries);
#endif
    report.direct_queries = config.serve_queries;
    report.direct_ns_per_query =
        seconds / double(config.serve_queries) * 1e9;
    batcher.Stop();
  }

  // Phase 2: loopback clients at increasing connection counts.
  for (const int clients : {1, 4, 16}) {
    BatcherOptions options;
    options.default_deadline_ms = kServeMaxDeadlineMs;
    MicroBatcher batcher(&registry, options);
    batcher.Start();
    KgeServer server(&batcher, ServerOptions{});
    KGE_CHECK_OK(server.Start());
    std::vector<ServeClientTally> tallies(static_cast<size_t>(clients));
    std::vector<std::thread> threads;
    Stopwatch sw;
    for (int c = 0; c < clients; ++c) {
      threads.emplace_back(RunServeClient, server.port(),
                           config.serve_client_queries, report.topk,
                           config.serve_entities, uint64_t(c) + 1,
                           &tallies[size_t(c)]);
    }
    for (std::thread& thread : threads) thread.join();
    const double seconds = sw.ElapsedSeconds();
    server.Stop();

    ServeClientRow row;
    row.clients = clients;
    std::vector<double> latencies;
    for (const ServeClientTally& tally : tallies) {
      row.queries += tally.ok;
      latencies.insert(latencies.end(), tally.ok_latencies_ms.begin(),
                       tally.ok_latencies_ms.end());
    }
    row.p50_ms = PercentileMs(&latencies, 0.50);
    row.p99_ms = PercentileMs(&latencies, 0.99);
    row.qps = seconds > 0.0 ? double(row.queries) / seconds : 0.0;
    report.client_rows.push_back(row);
  }

  // Phase 3: overload. 2x the largest client count against a tiny
  // admission queue: shedding must engage (bounded queue, bounded
  // latency) and every admitted request must still meet the deadline.
  {
    report.overload_clients = 32;
    report.overload_max_queue = 8;
    report.overload_deadline_ms = 10000;
    BatcherOptions options;
    options.max_queue = report.overload_max_queue;
    options.default_deadline_ms = report.overload_deadline_ms;
    MicroBatcher batcher(&registry, options);
    batcher.Start();
    KgeServer server(&batcher, ServerOptions{});
    KGE_CHECK_OK(server.Start());
    std::vector<ServeClientTally> tallies(
        static_cast<size_t>(report.overload_clients));
    std::vector<std::thread> threads;
    const int64_t queries = std::max<int64_t>(config.serve_client_queries / 2,
                                              10);
    for (int c = 0; c < report.overload_clients; ++c) {
      threads.emplace_back(RunServeClient, server.port(), queries,
                           report.topk, config.serve_entities,
                           uint64_t(c) + 101, &tallies[size_t(c)]);
    }
    for (std::thread& thread : threads) thread.join();
    server.Stop();

    std::vector<double> latencies;
    for (const ServeClientTally& tally : tallies) {
      report.overload_ok += tally.ok;
      report.overload_shed += tally.shed;
      report.overload_queries += tally.ok + tally.shed + tally.other;
      latencies.insert(latencies.end(), tally.ok_latencies_ms.begin(),
                       tally.ok_latencies_ms.end());
    }
    report.shed_rate =
        report.overload_queries > 0
            ? double(report.overload_shed) / double(report.overload_queries)
            : 0.0;
    report.admitted_p99_ms = PercentileMs(&latencies, 0.99);
  }
  return report;
}

// ---- Serving at scale (§5h) ------------------------------------------------
// The kge_serve reduction at the --scale presets with the multi-lane
// pruned walk enabled: direct (no-socket) submissions against a
// bounds-prepared snapshot of the same trained-like skewed model, in
// rounds of `concurrent` queries (one at a time, and 4 sharing one
// batcher group so batches hold several queries), with round latency
// percentiles, the batcher's tile counters, and an untimed check of the
// first rounds against the exhaustive single-lane top-k.

struct ServeScaleRow {
  int64_t entities = 0;
  int concurrent = 1;
  int64_t queries = 0;
  // Wall time of a round: first submit to last reply.
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double qps = 0.0;
  double tiles_skipped_frac = 0.0;
  double effective_gb_per_s = 0.0;
  double allocs_per_query = -1.0;  // -1 = sanitized build
  bool bit_identical = false;
};

struct ServeScaleReport {
  int64_t dim = 0;
  uint32_t topk = 10;
  int shards = 4;
  bool prune = true;
  std::vector<ServeScaleRow> rows;
};

ServeScaleRow BenchServeScaleTier(const PerfConfig& config, int64_t entities,
                                  uint32_t k, int shards, int concurrent) {
  ServeScaleRow row;
  row.entities = entities;
  row.concurrent = concurrent;
  const int64_t rounds =
      std::max<int64_t>(config.scale_serve_queries / concurrent, 1);
  row.queries = rounds * concurrent;
  const int32_t dim = int32_t(config.dim_budget);

  std::unique_ptr<MultiEmbeddingModel> model =
      MakeSkewedDistMult(int32_t(entities), dim);
  // Serving snapshots are frozen after load, so bounds prepared here
  // stay fresh for the batcher's lifetime (snapshot.cc does the same
  // under --prune via prepare_bounds).
  model->PrepareForPrunedScoring(ScorePrecision::kDouble);
  SnapshotRegistry registry;
  {
    auto snapshot = std::make_shared<ModelSnapshot>();
    snapshot->model = std::move(model);
    registry.Publish(std::move(snapshot));
  }
  const std::shared_ptr<const ModelSnapshot> snapshot = registry.Acquire();
  const KgeModel& served = *snapshot->model;

  BatcherOptions options;
  options.default_deadline_ms = kServeMaxDeadlineMs;
  options.num_shards = shards;
  options.prune = true;
  MicroBatcher batcher(&registry, options);
  batcher.Start();

  std::vector<ServeWaiter> waiters(static_cast<size_t>(concurrent));
  std::vector<ServeRequest> requests(static_cast<size_t>(concurrent));
  Rng rng(29);
  // One round: `concurrent` queries of one (relation, side) group in
  // flight together.
  const auto run_round = [&] {
    const RelationId relation = RelationId(rng.NextBounded(8));
    for (int c = 0; c < concurrent; ++c) {
      ServeRequest& request = requests[size_t(c)];
      request.side = QuerySide::kTail;
      request.k = k;
      request.relation = relation;
      request.entity = EntityId(rng.NextBounded(uint64_t(entities)));
      batcher.Submit(request, &ServeWaiter::OnReply, &waiters[size_t(c)]);
    }
    for (ServeWaiter& waiter : waiters) {
      KGE_CHECK(waiter.Await() == ServeStatusCode::kOk);
    }
  };
  // Untimed: the first rounds against the exhaustive single-lane walk,
  // which also warms every lane's scratch to its high-water mark.
  TopKOptions exhaustive;
  exhaustive.k = int(k);
  row.bit_identical = true;
  for (int round = 0; round < 4; ++round) {
    run_round();
    for (int c = 0; c < concurrent; ++c) {
      const ServeRequest& request = requests[size_t(c)];
      const std::vector<ScoredEntity> expect = PredictTails(
          served, request.entity, request.relation, exhaustive);
      ServeWaiter& waiter = waiters[size_t(c)];
      MutexLock lock(waiter.mutex);
      if (waiter.results.size() != expect.size()) row.bit_identical = false;
      for (size_t i = 0; i < expect.size() && row.bit_identical; ++i) {
        if (waiter.results[i].entity != expect[i].entity ||
            waiter.results[i].score != expect[i].score) {
          row.bit_identical = false;
        }
      }
    }
  }

  std::vector<double> latencies;
  latencies.reserve(size_t(rounds));
  const BatcherStatsView before = batcher.stats();
#if KGE_COUNT_ALLOCS
  const uint64_t allocs_before =
      g_alloc_count.load(std::memory_order_relaxed);
#endif
  Stopwatch total;
  for (int64_t round = 0; round < rounds; ++round) {
    Stopwatch sw;
    run_round();
    latencies.push_back(sw.ElapsedSeconds() * 1e3);
  }
  const double seconds = total.ElapsedSeconds();
#if KGE_COUNT_ALLOCS
  row.allocs_per_query =
      double(g_alloc_count.load(std::memory_order_relaxed) - allocs_before) /
      double(row.queries);
#endif
  const BatcherStatsView after = batcher.stats();
  batcher.Stop();

  const uint64_t tiles_total = after.tiles_total - before.tiles_total;
  const uint64_t tiles_skipped = after.tiles_skipped - before.tiles_skipped;
  row.tiles_skipped_frac =
      tiles_total > 0 ? double(tiles_skipped) / double(tiles_total) : 0.0;
  row.p50_ms = PercentileMs(&latencies, 0.50);
  row.p99_ms = PercentileMs(&latencies, 0.99);
  row.qps = seconds > 0.0 ? double(row.queries) / seconds : 0.0;
  row.effective_gb_per_s = double(row.queries) * double(entities) *
                           double(dim) * sizeof(float) *
                           (1.0 - row.tiles_skipped_frac) / seconds / 1e9;
  return row;
}

ServeScaleReport BenchServingScale(const PerfConfig& config) {
  ServeScaleReport report;
  report.dim = config.dim_budget;
  for (const int64_t entities : ScaleTierEntities(config)) {
    for (const int concurrent : {1, 4}) {
      report.rows.push_back(BenchServeScaleTier(
          config, entities, report.topk, report.shards, concurrent));
    }
  }
  return report;
}

// ---- Snapshot adoption on the lane pool (serving.adoption) -----------------
//
// What kge_serve does to adopt a snapshot, at start-up and on every hot
// swap, timed inline (no pool: --shards=1) and on the pool of a 4-lane
// batcher (MicroBatcher::lane_pool(), as kge_serve passes it): the
// mapped load's whole-file CRC (MappedCheckpoint::LoadInto on a fresh
// mapping, so its time includes the first touch of the mapped pages,
// plus the O(blocks) header walk) and the tile-bound pass
// (ScoringReplica::EnsureBoundsFresh). The tables are the shapes the
// benchmark's hot-swap and 1M workloads adopt.

struct AdoptionRow {
  int64_t entities = 0;
  int64_t dim = 0;
  double file_mb = 0.0;
  double crc_ms_1t = 0.0;
  double crc_ms_lanes = 0.0;
  double bounds_ms_1t = 0.0;
  double bounds_ms_lanes = 0.0;
  double crc_gb_per_s_1t = 0.0;
  double crc_gb_per_s_lanes = 0.0;
  double bounds_gb_per_s_1t = 0.0;
  double bounds_gb_per_s_lanes = 0.0;
  // The pooled CRC equals the serial one, both loads pass it, and the
  // pooled bounds equal the inline ones bit for bit.
  bool bit_identical = false;
};

struct AdoptionReport {
  int lanes = 4;
  size_t pool_threads = 0;
  int reps = 0;
  std::vector<AdoptionRow> rows;
};

AdoptionRow BenchAdoptionTier(int64_t entities, int64_t dim, int reps,
                              ThreadPool* pool, const std::string& dir) {
  AdoptionRow row;
  row.entities = entities;
  row.dim = dim;
  const std::string path = dir + "/adopt_" + std::to_string(entities) +
                           "x" + std::to_string(dim) + ".kge2";
  {
    std::unique_ptr<MultiEmbeddingModel> model =
        MakeSkewedDistMult(int32_t(entities), int32_t(dim));
    KGE_CHECK_OK(SaveModelCheckpoint(*model, path));
  }
  Result<std::string> bytes = ReadFileToString(path);
  KGE_CHECK_OK(bytes.status());
  const double file_bytes = double(bytes->size());
  row.file_mb = file_bytes / 1e6;
  row.bit_identical =
      Crc32cOnPool(bytes->data(), bytes->size(), pool) ==
      Crc32c(bytes->data(), bytes->size());
  bytes = std::string();

  std::vector<double> crc_ms[2];
  std::vector<double> bounds_ms[2];
  std::vector<float> bounds[2];
  for (int rep = 0; rep < reps; ++rep) {
    // Alternate which side goes first, so neither always meets a warmer
    // cache.
    for (int turn = 0; turn < 2; ++turn) {
      const int side = (rep + turn) % 2;  // 0 inline, 1 pooled
      ThreadPool* use = side == 1 ? pool : nullptr;
      std::unique_ptr<MultiEmbeddingModel> model =
          MakeDistMult(int32_t(entities), 8, int32_t(dim), std::nullopt);
      Result<std::unique_ptr<MappedCheckpoint>> mapping =
          MappedCheckpoint::Open(path);
      KGE_CHECK_OK(mapping.status());
      Stopwatch watch;
      const Status loaded = (*mapping)->LoadInto(model.get(), use);
      crc_ms[side].push_back(watch.ElapsedMillis());
      if (!loaded.ok()) row.bit_identical = false;
      ScoringReplica replica(model->entity_store().block());
      watch.Restart();
      replica.EnsureBoundsFresh(ScorePrecision::kDouble, use);
      bounds_ms[side].push_back(watch.ElapsedMillis());
      const std::span<const float> built =
          replica.TileBounds(ScorePrecision::kDouble);
      if (rep == 0) bounds[side].assign(built.begin(), built.end());
      model.reset();  // before its mapping
    }
  }
  row.bit_identical =
      row.bit_identical && bounds[0].size() == bounds[1].size() &&
      std::memcmp(bounds[0].data(), bounds[1].data(),
                  bounds[0].size() * sizeof(float)) == 0;
  row.crc_ms_1t = PercentileMs(&crc_ms[0], 0.5);
  row.crc_ms_lanes = PercentileMs(&crc_ms[1], 0.5);
  row.bounds_ms_1t = PercentileMs(&bounds_ms[0], 0.5);
  row.bounds_ms_lanes = PercentileMs(&bounds_ms[1], 0.5);
  const double table_bytes = double(entities) * double(dim) * sizeof(float);
  row.crc_gb_per_s_1t = file_bytes / (row.crc_ms_1t * 1e6);
  row.crc_gb_per_s_lanes = file_bytes / (row.crc_ms_lanes * 1e6);
  row.bounds_gb_per_s_1t = table_bytes / (row.bounds_ms_1t * 1e6);
  row.bounds_gb_per_s_lanes = table_bytes / (row.bounds_ms_lanes * 1e6);
  std::remove(path.c_str());
  return row;
}

AdoptionReport BenchAdoption(const PerfConfig& config) {
  AdoptionReport report;
  report.reps = config.quick ? 3 : 7;
  // The pool kge_serve --shards=4 adopts on: the batcher's own.
  SnapshotRegistry registry;
  BatcherOptions options;
  options.num_shards = report.lanes;
  MicroBatcher batcher(&registry, options);
  batcher.Start();
  ThreadPool* pool = batcher.lane_pool();
  KGE_CHECK(pool != nullptr);
  report.pool_threads = pool->num_threads();
  std::string dir =
      (std::filesystem::temp_directory_path() / "kge_adoption.XXXXXX")
          .string();
  KGE_CHECK(::mkdtemp(dir.data()) != nullptr);
  const std::vector<std::pair<int64_t, int64_t>> tiers =
      config.quick ? std::vector<std::pair<int64_t, int64_t>>{{20000, 64}}
                   : std::vector<std::pair<int64_t, int64_t>>{
                         {kWordNetScaleMedium, 256}, {kWordNetScaleXl, 64}};
  for (const auto& [entities, dim] : tiers) {
    report.rows.push_back(
        BenchAdoptionTier(entities, dim, report.reps, pool, dir));
  }
  batcher.Stop();
  ::rmdir(dir.c_str());
  return report;
}

// ---- JSON ------------------------------------------------------------------

std::string JsonNumber(double v) {
  std::ostringstream out;
  out.precision(12);
  out << v;
  return out.str();
}

void AppendMeta(std::ostringstream& out, const PerfConfig& config) {
  out << "  \"meta\": {\n";
  out << "    \"isa\": \"" << simd::IsaName() << "\",\n";
  out << "    \"accumulator_lanes\": " << simd::kAccumulatorLanes << ",\n";
  out << "    \"dot_batch_tile_rows\": " << simd::kDotBatchTileRows << ",\n";
  out << "    \"compiler\": \"" << __VERSION__ << "\",\n";
  out << "    \"build\": \""
#ifdef NDEBUG
      << "release"
#else
      << "debug"
#endif
      << "\",\n";
  out << "    \"hardware_threads\": " << std::thread::hardware_concurrency()
      << ",\n";
  out << "    \"quick\": " << (config.quick ? "true" : "false") << "\n";
  out << "  },\n";
}

std::string BuildJson(const PerfConfig& config,
                      const std::vector<KernelRow>& kernels,
                      const RankingResult& ranking,
                      const EvalThroughput& eval) {
  std::ostringstream out;
  out << "{\n";
  out << "  \"schema_version\": 1,\n";
  AppendMeta(out, config);
  out << "  \"kernels\": [\n";
  for (size_t i = 0; i < kernels.size(); ++i) {
    const KernelRow& k = kernels[i];
    out << "    {\"name\": \"" << k.name << "\", \"n\": " << k.n
        << ", \"ns_per_call\": " << JsonNumber(k.ns_per_call)
        << ", \"gflops\": " << JsonNumber(k.gflops)
        << ", \"speedup_vs_ref\": " << JsonNumber(k.speedup_vs_ref) << "}"
        << (i + 1 < kernels.size() ? "," : "") << "\n";
  }
  out << "  ],\n";
  out << "  \"ranking\": {\n";
  out << "    \"model\": \"ComplEx\",\n";
  out << "    \"entities\": " << ranking.entities << ",\n";
  out << "    \"dim_per_vector\": " << ranking.dim << ",\n";
  out << "    \"queries\": " << ranking.queries << ",\n";
  out << "    \"ns_per_triple\": " << JsonNumber(ranking.ns_per_triple)
      << ",\n";
  out << "    \"triples_per_sec\": " << JsonNumber(ranking.triples_per_sec)
      << ",\n";
  out << "    \"candidates_per_sec\": "
      << JsonNumber(ranking.candidates_per_sec) << ",\n";
  out << "    \"speedup_vs_scalar_ref\": "
      << JsonNumber(ranking.speedup_vs_scalar_ref) << ",\n";
  out << "    \"allocations_per_ranked_triple\": ";
  if (ranking.allocs_per_triple < 0.0) {
    out << "null";
  } else {
    out << JsonNumber(ranking.allocs_per_triple);
  }
  out << "\n  },\n";
  out << "  \"eval\": {\n";
  out << "    \"entities\": " << eval.entities << ",\n";
  out << "    \"test_triples\": " << eval.triples << ",\n";
  out << "    \"triples_per_sec\": " << JsonNumber(eval.triples_per_sec)
      << ",\n";
  out << "    \"filtered_mrr\": " << JsonNumber(eval.filtered_mrr) << ",\n";
  out << "    \"filtered_hits10\": " << JsonNumber(eval.filtered_hits10)
      << "\n";
  out << "  }\n";
  out << "}\n";
  return out.str();
}

std::string BuildTrainingJson(const PerfConfig& config,
                              const std::vector<TrainingRow>& rows) {
  std::ostringstream out;
  out << "{\n";
  out << "  \"schema_version\": 1,\n";
  AppendMeta(out, config);
  out << "  \"training\": [\n";
  for (size_t i = 0; i < rows.size(); ++i) {
    const TrainingRow& r = rows[i];
    out << "    {\"model\": \"" << r.model << "\", \"regime\": \""
        << r.regime << "\", \"threads\": " << r.threads
        << ", \"pipeline_depth\": " << r.pipeline_depth
        << ", \"train_triples\": " << r.train_triples
        << ", \"epoch_seconds\": " << JsonNumber(r.epoch_seconds)
        << ", \"triples_per_sec\": " << JsonNumber(r.triples_per_sec)
        << ", \"examples_per_sec\": " << JsonNumber(r.examples_per_sec)
        << ", \"allocs_per_triple\": ";
    if (r.allocs_per_triple < 0.0) {
      out << "null";
    } else {
      out << JsonNumber(r.allocs_per_triple);
    }
    out << ", \"speedup_vs_1t\": " << JsonNumber(r.speedup_vs_1t)
        << ", \"stage_occupancy\": {\"sample\": " << JsonNumber(r.occ_sample)
        << ", \"score\": " << JsonNumber(r.occ_score)
        << ", \"merge\": " << JsonNumber(r.occ_merge)
        << ", \"apply\": " << JsonNumber(r.occ_apply) << "}}"
        << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "  ]\n";
  out << "}\n";
  return out.str();
}

std::string BuildEvalJson(const PerfConfig& config,
                          const EvalBatchReport& report,
                          const PrecisionReport& precision,
                          const ScaleReport& scaling) {
  std::ostringstream out;
  out << "{\n";
  out << "  \"schema_version\": 1,\n";
  AppendMeta(out, config);
  out << "  \"eval_batching\": {\n";
  out << "    \"model\": \"ComplEx\",\n";
  out << "    \"entities\": " << report.entities << ",\n";
  out << "    \"dim_per_vector\": " << report.dim << ",\n";
  out << "    \"queries\": " << report.queries << ",\n";
  out << "    \"rows\": [\n";
  for (size_t i = 0; i < report.rows.size(); ++i) {
    const EvalBatchRow& r = report.rows[i];
    out << "      {\"batch\": " << r.batch
        << ", \"ns_per_triple\": " << JsonNumber(r.ns_per_triple)
        << ", \"gb_per_s\": " << JsonNumber(r.gb_per_s)
        << ", \"allocs_per_triple\": ";
    if (r.allocs_per_triple < 0.0) {
      out << "null";
    } else {
      out << JsonNumber(r.allocs_per_triple);
    }
    out << ", \"speedup_vs_b1\": " << JsonNumber(r.speedup_vs_b1) << "}"
        << (i + 1 < report.rows.size() ? "," : "") << "\n";
  }
  out << "    ],\n";
  out << "    \"equality\": {\n";
  out << "      \"mrr_per_query\": " << JsonNumber(report.mrr_per_query)
      << ",\n";
  out << "      \"mrr_batched\": " << JsonNumber(report.mrr_batched) << ",\n";
  out << "      \"bit_identical\": "
      << (report.bit_identical ? "true" : "false") << "\n";
  out << "    }\n";
  out << "  },\n";
  out << "  \"precision\": {\n";
  out << "    \"model\": \"ComplEx\",\n";
  out << "    \"entities\": " << precision.entities << ",\n";
  out << "    \"dim_per_vector\": " << precision.dim << ",\n";
  out << "    \"queries\": " << precision.queries << ",\n";
  out << "    \"batch\": " << precision.batch << ",\n";
  out << "    \"tiers\": [\n";
  for (size_t i = 0; i < precision.tiers.size(); ++i) {
    const PrecisionTierRow& r = precision.tiers[i];
    out << "      {\"tier\": \"" << ScorePrecisionName(r.precision)
        << "\", \"ns_per_triple\": " << JsonNumber(r.ns_per_triple)
        << ", \"gb_per_s\": " << JsonNumber(r.gb_per_s)
        << ", \"allocs_per_triple\": ";
    if (r.allocs_per_triple < 0.0) {
      out << "null";
    } else {
      out << JsonNumber(r.allocs_per_triple);
    }
    out << ", \"speedup_vs_double\": " << JsonNumber(r.speedup_vs_double)
        << "}" << (i + 1 < precision.tiers.size() ? "," : "") << "\n";
  }
  out << "    ],\n";
  out << "    \"drift\": {\n";
  out << "      \"entities\": " << precision.drift_entities << ",\n";
  out << "      \"ranked_queries\": " << precision.drift_triples << ",\n";
  out << "      \"train_epochs\": " << precision.drift_epochs << ",\n";
  out << "      \"tiers\": [\n";
  for (size_t i = 0; i < precision.drift.size(); ++i) {
    const PrecisionDriftRow& r = precision.drift[i];
    out << "        {\"tier\": \"" << ScorePrecisionName(r.precision)
        << "\", \"mrr\": " << JsonNumber(r.mrr)
        << ", \"hits1\": " << JsonNumber(r.hits1)
        << ", \"hits3\": " << JsonNumber(r.hits3)
        << ", \"hits10\": " << JsonNumber(r.hits10)
        << ", \"delta_mrr\": " << JsonNumber(r.delta_mrr)
        << ", \"delta_hits1\": " << JsonNumber(r.delta_hits1)
        << ", \"delta_hits3\": " << JsonNumber(r.delta_hits3)
        << ", \"delta_hits10\": " << JsonNumber(r.delta_hits10) << "}"
        << (i + 1 < precision.drift.size() ? "," : "") << "\n";
  }
  out << "      ]\n";
  out << "    }\n";
  out << "  },\n";
  out << "  \"eval_scaling\": {\n";
  out << "    \"model\": \"DistMult\",\n";
  out << "    \"dim\": " << scaling.dim << ",\n";
  out << "    \"topk\": " << scaling.k << ",\n";
  out << "    \"shards\": " << scaling.shards << ",\n";
  out << "    \"tiers\": [\n";
  for (size_t i = 0; i < scaling.tiers.size(); ++i) {
    const ScaleTierRow& t = scaling.tiers[i];
    out << "      {\"entities\": " << t.entities
        << ", \"queries\": " << t.queries << ",\n";
    out << "       \"rank\": {\"exhaustive_ns_per_query\": "
        << JsonNumber(t.rank.exhaustive_ns_per_query)
        << ", \"pruned_ns_per_query\": "
        << JsonNumber(t.rank.pruned_ns_per_query)
        << ", \"speedup_pruned_vs_exhaustive\": "
        << JsonNumber(t.rank.speedup_pruned_vs_exhaustive)
        << ", \"tiles_skipped_frac\": "
        << JsonNumber(t.rank.tiles_skipped_frac)
        << ", \"exhaustive_gb_per_s\": "
        << JsonNumber(t.rank.exhaustive_gb_per_s)
        << ", \"pruned_effective_gb_per_s\": "
        << JsonNumber(t.rank.pruned_effective_gb_per_s)
        << ", \"pruned_allocs_per_query\": ";
    if (t.rank.pruned_allocs_per_query < 0.0) {
      out << "null";
    } else {
      out << JsonNumber(t.rank.pruned_allocs_per_query);
    }
    out << ", \"bit_identical\": "
        << (t.rank.bit_identical ? "true" : "false") << "},\n";
    out << "       \"topk\": {\"exhaustive_ns_per_query\": "
        << JsonNumber(t.topk.exhaustive_ns_per_query)
        << ", \"pruned_ns_per_query\": "
        << JsonNumber(t.topk.pruned_ns_per_query)
        << ", \"sharded_pruned_ns_per_query\": "
        << JsonNumber(t.topk.sharded_pruned_ns_per_query)
        << ", \"speedup_pruned_vs_exhaustive\": "
        << JsonNumber(t.topk.speedup_pruned_vs_exhaustive)
        << ", \"tiles_skipped_frac\": "
        << JsonNumber(t.topk.tiles_skipped_frac)
        << ", \"pruned_allocs_per_query\": ";
    if (t.topk.pruned_allocs_per_query < 0.0) {
      out << "null";
    } else {
      out << JsonNumber(t.topk.pruned_allocs_per_query);
    }
    out << ", \"bit_identical\": "
        << (t.topk.bit_identical ? "true" : "false") << "}}"
        << (i + 1 < scaling.tiers.size() ? "," : "") << "\n";
  }
  out << "    ]\n";
  out << "  }\n";
  out << "}\n";
  return out.str();
}

std::string BuildServingJson(const PerfConfig& config,
                             const ServingReport& report,
                             const ServeScaleReport& scaling,
                             const AdoptionReport& adoption) {
  std::ostringstream out;
  out << "{\n";
  out << "  \"schema_version\": 1,\n";
  AppendMeta(out, config);
  out << "  \"serving\": {\n";
  out << "    \"model\": \"DistMult\",\n";
  out << "    \"entities\": " << report.entities << ",\n";
  out << "    \"dim_budget\": " << report.dim << ",\n";
  out << "    \"topk\": " << report.topk << ",\n";
  out << "    \"direct\": {\n";
  out << "      \"queries\": " << report.direct_queries << ",\n";
  out << "      \"ns_per_query\": " << JsonNumber(report.direct_ns_per_query)
      << ",\n";
  out << "      \"allocs_per_query\": ";
  if (report.direct_allocs_per_query < 0.0) {
    out << "null";
  } else {
    out << JsonNumber(report.direct_allocs_per_query);
  }
  out << "\n    },\n";
  out << "    \"clients\": [\n";
  for (size_t i = 0; i < report.client_rows.size(); ++i) {
    const ServeClientRow& r = report.client_rows[i];
    out << "      {\"clients\": " << r.clients
        << ", \"queries\": " << r.queries
        << ", \"p50_ms\": " << JsonNumber(r.p50_ms)
        << ", \"p99_ms\": " << JsonNumber(r.p99_ms)
        << ", \"qps\": " << JsonNumber(r.qps) << "}"
        << (i + 1 < report.client_rows.size() ? "," : "") << "\n";
  }
  out << "    ],\n";
  out << "    \"overload\": {\n";
  out << "      \"clients\": " << report.overload_clients << ",\n";
  out << "      \"max_queue\": " << report.overload_max_queue << ",\n";
  out << "      \"deadline_ms\": " << report.overload_deadline_ms << ",\n";
  out << "      \"queries\": " << report.overload_queries << ",\n";
  out << "      \"ok\": " << report.overload_ok << ",\n";
  out << "      \"shed\": " << report.overload_shed << ",\n";
  out << "      \"shed_rate\": " << JsonNumber(report.shed_rate) << ",\n";
  out << "      \"admitted_p99_ms\": "
      << JsonNumber(report.admitted_p99_ms) << "\n";
  out << "    },\n";
  out << "    \"scaling\": {\n";
  out << "      \"model\": \"DistMult\",\n";
  out << "      \"dim\": " << scaling.dim << ",\n";
  out << "      \"topk\": " << scaling.topk << ",\n";
  out << "      \"shards\": " << scaling.shards << ",\n";
  out << "      \"prune\": " << (scaling.prune ? "true" : "false") << ",\n";
  out << "      \"tiers\": [\n";
  for (size_t i = 0; i < scaling.rows.size(); ++i) {
    const ServeScaleRow& r = scaling.rows[i];
    out << "        {\"entities\": " << r.entities
        << ", \"concurrent\": " << r.concurrent
        << ", \"queries\": " << r.queries
        << ", \"p50_ms\": " << JsonNumber(r.p50_ms)
        << ", \"p99_ms\": " << JsonNumber(r.p99_ms)
        << ", \"qps\": " << JsonNumber(r.qps)
        << ", \"tiles_skipped_frac\": "
        << JsonNumber(r.tiles_skipped_frac)
        << ", \"effective_gb_per_s\": "
        << JsonNumber(r.effective_gb_per_s) << ", \"allocs_per_query\": ";
    if (r.allocs_per_query < 0.0) {
      out << "null";
    } else {
      out << JsonNumber(r.allocs_per_query);
    }
    out << ", \"bit_identical\": " << (r.bit_identical ? "true" : "false")
        << "}" << (i + 1 < scaling.rows.size() ? "," : "") << "\n";
  }
  out << "      ]\n";
  out << "    },\n";
  out << "    \"adoption\": {\n";
  out << "      \"model\": \"DistMult\",\n";
  out << "      \"lanes\": " << adoption.lanes << ",\n";
  out << "      \"pool_threads\": " << adoption.pool_threads << ",\n";
  out << "      \"reps\": " << adoption.reps << ",\n";
  out << "      \"tiers\": [\n";
  for (size_t i = 0; i < adoption.rows.size(); ++i) {
    const AdoptionRow& r = adoption.rows[i];
    out << "        {\"entities\": " << r.entities << ", \"dim\": " << r.dim
        << ", \"file_mb\": " << JsonNumber(r.file_mb)
        << ", \"crc_ms_1t\": " << JsonNumber(r.crc_ms_1t)
        << ", \"crc_ms_lanes\": " << JsonNumber(r.crc_ms_lanes)
        << ", \"crc_gb_per_s_1t\": " << JsonNumber(r.crc_gb_per_s_1t)
        << ", \"crc_gb_per_s_lanes\": " << JsonNumber(r.crc_gb_per_s_lanes)
        << ", \"bounds_ms_1t\": " << JsonNumber(r.bounds_ms_1t)
        << ", \"bounds_ms_lanes\": " << JsonNumber(r.bounds_ms_lanes)
        << ", \"bounds_gb_per_s_1t\": " << JsonNumber(r.bounds_gb_per_s_1t)
        << ", \"bounds_gb_per_s_lanes\": "
        << JsonNumber(r.bounds_gb_per_s_lanes) << ", \"bit_identical\": "
        << (r.bit_identical ? "true" : "false") << "}"
        << (i + 1 < adoption.rows.size() ? "," : "") << "\n";
  }
  out << "      ]\n";
  out << "    }\n";
  out << "  }\n";
  out << "}\n";
  return out.str();
}

int Run(int argc, char** argv) {
  PerfConfig config;
  FlagParser parser(
      "SIMD kernel + ranking perf report; writes BENCH_kernels.json");
  parser.AddInt("entities", &config.entities,
                "entity-table rows for full-vocab ranking");
  parser.AddInt("dim_budget", &config.dim_budget,
                "total floats per entity (ComplEx uses 2 vectors)");
  parser.AddInt("queries", &config.queries, "ScoreAll calls to time");
  parser.AddInt("kernel_n", &config.kernel_n,
                "vector length for kernel microbenches");
  parser.AddInt("kernel_iters", &config.kernel_iters,
                "iterations per kernel microbench");
  parser.AddInt("eval_entities", &config.eval_entities,
                "WN18-like KG size for end-to-end eval");
  parser.AddInt("eval_triples", &config.eval_triples,
                "test triples for end-to-end eval");
  parser.AddInt("train_entities", &config.train_entities,
                "WN18-like KG size for the training bench");
  parser.AddInt("train_epochs", &config.train_epochs,
                "timed training epochs (one warm-up epoch on top)");
  parser.AddInt("train_negatives", &config.train_negatives,
                "negatives per positive in the training bench");
  parser.AddInt("drift_epochs", &config.drift_epochs,
                "training epochs before the precision-drift measurement");
  parser.AddInt("serve_entities", &config.serve_entities,
                "vocabulary size for the serving bench");
  parser.AddInt("serve_queries", &config.serve_queries,
                "direct (no-socket) serving queries to time");
  parser.AddInt("serve_client_queries", &config.serve_client_queries,
                "queries per loopback client per phase");
  parser.AddInt("scale_queries", &config.scale_queries,
                "ranked queries per --scale tier (eval_scaling section)");
  parser.AddInt("scale_serve_queries", &config.scale_serve_queries,
                "serving queries per --scale tier (serving scaling section)");
  parser.AddString("out", &config.out, "output JSON path");
  parser.AddString("train_out", &config.train_out,
                   "training-section output JSON path");
  parser.AddString("eval_out", &config.eval_out,
                   "eval-batching output JSON path");
  parser.AddString("serve_out", &config.serve_out,
                   "serving-section output JSON path");
  parser.AddBool("quick", &config.quick, "tiny CI smoke preset");
  const Status status = parser.Parse(argc, argv);
  if (status.code() == StatusCode::kNotFound) return 0;
  KGE_CHECK_OK(status);
  config.Finalize();

  KGE_LOG(Info) << "perf_report: isa=" << simd::IsaName()
               << " entities=" << config.entities
               << " dim_budget=" << config.dim_budget;

  KGE_LOG(Info) << "benchmarking kernels (n=" << config.kernel_n << ")...";
  const std::vector<KernelRow> kernels = BenchKernels(config);
  for (const KernelRow& k : kernels) {
    KGE_LOG(Info) << "  " << k.name << ": " << k.gflops << " GFLOP/s, "
                 << k.speedup_vs_ref << "x vs ref";
  }

  KGE_LOG(Info) << "benchmarking full-vocab ranking...";
  const RankingResult ranking = BenchRanking(config);
  KGE_LOG(Info) << "  " << ranking.ns_per_triple << " ns/triple ("
               << ranking.speedup_vs_scalar_ref << "x vs scalar ref, "
               << (ranking.allocs_per_triple < 0.0
                       ? std::string("allocs not measured")
                       : std::to_string(ranking.allocs_per_triple) +
                             " allocs/triple")
               << ")";

  KGE_LOG(Info) << "benchmarking end-to-end filtered evaluation...";
  const EvalThroughput eval = BenchEndToEnd(config);
  KGE_LOG(Info) << "  " << eval.triples_per_sec << " triples/sec, MRR="
               << eval.filtered_mrr;

  KGE_LOG(Info) << "benchmarking batched full-vocab ranking...";
  const EvalBatchReport eval_batching = BenchEvalBatching(config);
  for (const EvalBatchRow& row : eval_batching.rows) {
    KGE_LOG(Info) << "  B=" << row.batch << ": " << row.ns_per_triple
                  << " ns/triple, " << row.gb_per_s << " GB/s ("
                  << row.speedup_vs_b1 << "x vs B=1, "
                  << (row.allocs_per_triple < 0.0
                          ? std::string("allocs not measured")
                          : std::to_string(row.allocs_per_triple) +
                                " allocs/triple")
                  << ")";
  }
  KGE_LOG(Info) << "  metric equality (batched vs per-query): "
                << (eval_batching.bit_identical ? "bit-identical"
                                                : "MISMATCH");

  KGE_LOG(Info) << "benchmarking precision tiers...";
  const PrecisionReport precision = BenchPrecisionTiers(config);
  for (const PrecisionTierRow& row : precision.tiers) {
    KGE_LOG(Info) << "  " << ScorePrecisionName(row.precision) << ": "
                  << row.ns_per_triple << " ns/triple, " << row.gb_per_s
                  << " GB/s (" << row.speedup_vs_double << "x vs double, "
                  << (row.allocs_per_triple < 0.0
                          ? std::string("allocs not measured")
                          : std::to_string(row.allocs_per_triple) +
                                " allocs/triple")
                  << ")";
  }
  for (const PrecisionDriftRow& row : precision.drift) {
    KGE_LOG(Info) << "  drift " << ScorePrecisionName(row.precision)
                  << ": MRR=" << row.mrr << " (delta "
                  << row.delta_mrr << "), Hits@10=" << row.hits10
                  << " (delta " << row.delta_hits10 << ")";
  }

  KGE_LOG(Info) << "benchmarking scale tiers (sharded + pruned ranking)...";
  const ScaleReport scaling = BenchScaleTiers(config);
  for (const ScaleTierRow& tier : scaling.tiers) {
    KGE_LOG(Info) << "  E=" << tier.entities << " rank: "
                  << tier.rank.exhaustive_ns_per_query << " -> "
                  << tier.rank.pruned_ns_per_query << " ns/query ("
                  << tier.rank.speedup_pruned_vs_exhaustive
                  << "x, tiles skipped "
                  << tier.rank.tiles_skipped_frac * 100.0 << "%, "
                  << (tier.rank.bit_identical ? "bit-identical"
                                              : "MISMATCH")
                  << ")";
    KGE_LOG(Info) << "  E=" << tier.entities << " topk: "
                  << tier.topk.exhaustive_ns_per_query << " -> "
                  << tier.topk.pruned_ns_per_query << " ns/query ("
                  << tier.topk.speedup_pruned_vs_exhaustive
                  << "x, sharded "
                  << tier.topk.sharded_pruned_ns_per_query << " ns, "
                  << (tier.topk.bit_identical ? "bit-identical"
                                              : "MISMATCH")
                  << ")";
  }

  KGE_LOG(Info) << "benchmarking training throughput...";
  const std::vector<TrainingRow> training = BenchTraining(config);
  for (const TrainingRow& row : training) {
    KGE_LOG(Info) << "  " << row.model << " " << row.regime << " "
                  << row.threads << "t: " << row.triples_per_sec
                  << " triples/s ("
                  << (row.allocs_per_triple < 0.0
                          ? std::string("allocs not measured")
                          : std::to_string(row.allocs_per_triple) +
                                " allocs/triple")
                  << ", " << row.speedup_vs_1t << "x vs 1t)";
  }

  KGE_LOG(Info) << "benchmarking serving (kge_serve hot path)...";
  const ServingReport serving = BenchServing(config);
  KGE_LOG(Info) << "  direct: " << serving.direct_ns_per_query
                << " ns/query ("
                << (serving.direct_allocs_per_query < 0.0
                        ? std::string("allocs not measured")
                        : std::to_string(serving.direct_allocs_per_query) +
                              " allocs/query")
                << ")";
  for (const ServeClientRow& row : serving.client_rows) {
    KGE_LOG(Info) << "  " << row.clients << " client(s): p50="
                  << row.p50_ms << " ms, p99=" << row.p99_ms << " ms, "
                  << row.qps << " qps";
  }
  KGE_LOG(Info) << "  overload (" << serving.overload_clients
                << " clients, queue=" << serving.overload_max_queue
                << "): shed_rate=" << serving.shed_rate
                << ", admitted p99=" << serving.admitted_p99_ms << " ms";

  KGE_LOG(Info) << "benchmarking serving at scale (shards + prune)...";
  const ServeScaleReport serve_scaling = BenchServingScale(config);
  for (const ServeScaleRow& row : serve_scaling.rows) {
    KGE_LOG(Info) << "  E=" << row.entities << " x" << row.concurrent
                  << ": p50=" << row.p50_ms << " ms, p99=" << row.p99_ms
                  << " ms, " << row.qps << " qps, tiles skipped "
                  << row.tiles_skipped_frac * 100.0 << "%, "
                  << (row.bit_identical ? "bit-identical" : "MISMATCH");
  }

  KGE_LOG(Info) << "benchmarking snapshot adoption (CRC + tile bounds)...";
  const AdoptionReport adoption = BenchAdoption(config);
  for (const AdoptionRow& row : adoption.rows) {
    KGE_LOG(Info) << "  " << row.entities << "x" << row.dim << ": crc "
                  << row.crc_ms_1t << " -> " << row.crc_ms_lanes
                  << " ms, bounds " << row.bounds_ms_1t << " -> "
                  << row.bounds_ms_lanes << " ms on " << adoption.lanes
                  << " lanes, "
                  << (row.bit_identical ? "bit-identical" : "MISMATCH");
  }

  const std::string json = BuildJson(config, kernels, ranking, eval);
  std::ofstream file(config.out);
  if (!file) {
    KGE_LOG(Error) << "cannot write " << config.out;
    return 1;
  }
  file << json;
  KGE_LOG(Info) << "wrote " << config.out;

  const std::string training_json = BuildTrainingJson(config, training);
  std::ofstream training_file(config.train_out);
  if (!training_file) {
    KGE_LOG(Error) << "cannot write " << config.train_out;
    return 1;
  }
  training_file << training_json;
  KGE_LOG(Info) << "wrote " << config.train_out;

  const std::string eval_json =
      BuildEvalJson(config, eval_batching, precision, scaling);
  std::ofstream eval_file(config.eval_out);
  if (!eval_file) {
    KGE_LOG(Error) << "cannot write " << config.eval_out;
    return 1;
  }
  eval_file << eval_json;
  KGE_LOG(Info) << "wrote " << config.eval_out;

  const std::string serving_json =
      BuildServingJson(config, serving, serve_scaling, adoption);
  std::ofstream serving_file(config.serve_out);
  if (!serving_file) {
    KGE_LOG(Error) << "cannot write " << config.serve_out;
    return 1;
  }
  serving_file << serving_json;
  KGE_LOG(Info) << "wrote " << config.serve_out;
  return 0;
}

}  // namespace
}  // namespace kge

int main(int argc, char** argv) { return kge::Run(argc, argv); }
