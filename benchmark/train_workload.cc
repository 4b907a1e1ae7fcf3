// The train workload: in-process, 4 threads, through the public
// Trainer / Evaluator / OneVsAllTrainer API. No serving code runs in the
// measured phases, so serving changes must leave it flat.
//   (a) negative-sampling ComplEx on a WN18-sized graph, kge_train's
//       defaults; one warm-up epoch, then timed epochs;
//   (b) filtered evaluation of that model on a test subsample;
//   (c) 1-vs-all ComplEx on a 3k-entity graph; warm-up, timed epochs.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <utility>

#include "datagen/wordnet_like_generator.h"
#include "eval/evaluator.h"
#include "kg/filter_index.h"
#include "kg/negative_sampler.h"
#include "models/model_factory.h"
#include "models/trilinear_models.h"
#include "train/one_vs_all.h"
#include "train/trainer.h"
#include "util/random.h"
#include "util/timer.h"
#include "workloads.h"

namespace kgebench {
namespace {

using kge::Status;

constexpr int32_t kWn18Entities = 40943;
constexpr int32_t kKvsAllEntities = 3000;
constexpr int32_t kDimBudget = 200;
constexpr int kThreads = 4;
// Epoch and evaluation sizes per second of --seconds, from the epoch
// times measured when the benchmark was defined (README.md): (a) takes
// ~55% of the run, (b) ~10%, (c) ~30%.
constexpr double kNegSampEpochsPerSecond = 0.55 / 0.75;
constexpr double kEvalTriplesPerSecond = 0.10 * 2000.0;
constexpr double kKvsAllEpochsPerSecond = 0.30 / 1.07;
// Set-ups per untraced run; setup_s is their median.
constexpr int kSetups = 5;
// Test queries timed one at a time for the scan figures.
constexpr size_t kScanQueries = 200;
// Validation never improves (it returns a constant), so this patience
// never ends training early.
constexpr int kNoEarlyStop = 1 << 20;

enum Stream : uint64_t { kKvsAllGraph = 1, kDotProbe };

int AtLeast3(double x) { return std::max(3, int(std::lround(x))); }

// Per-epoch stage times: the trainers report cumulative stage_stats(),
// and a validation callback that runs after every epoch snapshots them
// once the warm-up epoch is over.
struct StageTimes {
  kge::TrainStageStats after_warmup;
  kge::TrainStageStats end;
};

void AddStagesPerEpoch(const char* prefix, const StageTimes& t, int epochs,
                       bool with_sample, Outcome* out) {
  const auto per_epoch = [&](double end, double start) {
    return (end - start) / double(epochs);
  };
  const std::string p = prefix;
  if (with_sample) {
    out->Add(p + ".sample_s",
             per_epoch(t.end.sample_seconds, t.after_warmup.sample_seconds), "s");
  }
  out->Add(p + ".score_s",
           per_epoch(t.end.score_seconds, t.after_warmup.score_seconds), "s");
  out->Add(p + ".merge_s",
           per_epoch(t.end.merge_seconds, t.after_warmup.merge_seconds), "s");
  out->Add(p + ".apply_s",
           per_epoch(t.end.apply_seconds, t.after_warmup.apply_seconds), "s");
  out->Add(p + ".wall_s",
           per_epoch(t.end.wall_seconds, t.after_warmup.wall_seconds), "s");
}

// The (a) inputs: what kge_train builds before its first epoch.
struct NegSampSetup {
  kge::Dataset data;
  kge::FilterIndex filter;
  std::unique_ptr<kge::KgeModel> model;
  std::unique_ptr<kge::Trainer> trainer;
  double datagen_s = 0.0;
};

kge::Result<std::unique_ptr<NegSampSetup>> SetUpNegSamp(uint64_t seed,
                                                        int epochs) {
  auto setup = std::make_unique<NegSampSetup>();
  kge::Stopwatch watch;
  kge::WordNetLikeOptions gen;
  gen.num_entities = kWn18Entities;
  gen.seed = seed;
  setup->data = kge::GenerateWordNetLike(gen);
  setup->datagen_s = watch.ElapsedSeconds();
  setup->filter.Build(setup->data.train, setup->data.valid, setup->data.test);
  BENCH_ASSIGN_OR_RETURN(
      setup->model,
      kge::MakeModelByName("complex", setup->data.num_entities(),
                           setup->data.num_relations(), kDimBudget, seed));
  kge::TrainerOptions train;
  train.max_epochs = 1 + epochs;
  train.batch_size = 1024;
  train.num_negatives = 1;
  train.learning_rate = 1e-3;
  train.l2_lambda = 1e-5;
  train.num_threads = kThreads;
  train.seed = seed;
  // Validation runs after every epoch only to read the stage counters;
  // it never stops training or restores parameters.
  train.eval_every_epochs = 1;
  train.patience_epochs = kNoEarlyStop;
  train.restore_best = false;
  setup->trainer = std::make_unique<kge::Trainer>(setup->model.get(), train);
  return setup;
}

// Per-epoch loss digest, and a mismatch for any non-finite loss.
void CheckLosses(const char* phase, const std::vector<double>& losses,
                 Outcome* out) {
  std::string digest;
  for (const double loss : losses) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), " %.6g", loss);
    digest += buf;
    if (!std::isfinite(loss)) out->Mismatch(std::string(phase) + ": non-finite loss");
  }
  std::printf("loss %s:%s\n", phase, digest.c_str());
}

// The epoch times behind a phase's median, for reading its spread.
void PrintEpochs(const char* phase, const std::vector<double>& seconds) {
  std::printf("epoch_ms %s:", phase);
  for (const double s : seconds) std::printf(" %.1f", s * 1e3);
  std::printf("\n");
}

}  // namespace

kge::Result<Outcome> RunTrainWorkload(const RunOptions& options) {
  Outcome out;
  const uint64_t seed = options.seed;
  const double s = options.seconds;
  const int negsamp_epochs = AtLeast3(kNegSampEpochsPerSecond * s);
  const int kvsall_epochs = AtLeast3(kKvsAllEpochsPerSecond * s);
  const size_t eval_triples = size_t(std::max(200.0, kEvalTriplesPerSecond * s));

  // ---- Set-up, kSetups times (once when tracing); the last is kept. ----
  std::vector<double> setup_s;
  std::vector<double> datagen_s;
  std::unique_ptr<NegSampSetup> a;
  for (int i = options.trace ? 1 : kSetups; i > 0; --i) {
    a.reset();
    kge::Stopwatch watch;
    BENCH_ASSIGN_OR_RETURN(a, SetUpNegSamp(seed, negsamp_epochs));
    setup_s.push_back(watch.ElapsedSeconds());
    datagen_s.push_back(a->datagen_s);
  }
  out.Add("setup_s", Median(setup_s), "s");
  out.Add("datagen.gen_s", Median(datagen_s), "s");

  // ---- (a) negative sampling. ----
  StageTimes a_stages;
  std::vector<int64_t> epoch_end_ns = {NowNs()};
  BENCH_ASSIGN_OR_RETURN(
      const kge::TrainResult a_result,
      a->trainer->Train(a->data.train, [&](int epoch) {
        epoch_end_ns.push_back(NowNs());
        if (epoch == 1) a_stages.after_warmup = a->trainer->stage_stats();
        return 0.0;
      }));
  a_stages.end = a->trainer->stage_stats();
  CheckLosses("negsamp", a_result.loss_history, &out);
  const std::vector<double> a_epochs(a_result.epoch_seconds.begin() + 1,
                                     a_result.epoch_seconds.end());
  for (size_t e = 1; e + 1 < epoch_end_ns.size(); ++e) {
    out.spans.push_back({"negsamp.epoch", epoch_end_ns[e], epoch_end_ns[e + 1], -1, e});
  }

  // ---- (b) filtered evaluation, in one Evaluate call: each call's
  // worker threads leave scratch behind in their own malloc arenas, so
  // several calls make the peak resident set vary between runs. ----
  kge::Evaluator evaluator(&a->filter, a->data.num_relations());
  kge::EvalOptions eval;
  eval.num_threads = kThreads;
  eval.max_triples = eval_triples;
  const int64_t eval_start = NowNs();
  const kge::EvalResult evaluated = evaluator.Evaluate(*a->model, a->data.test, eval);
  const int64_t eval_end = NowNs();
  out.spans.push_back({"eval", eval_start, eval_end, -1, 0});
  const double eval_seconds = double(eval_end - eval_start) / 1e9;
  const double ranked_triples = double(evaluated.overall.count()) / 2.0;
  const double mrr = evaluated.overall.Mrr();
  std::printf("test filtered MRR %.6f over %.0f triples\n", mrr, ranked_triples);
  if (!(mrr > 0.0 && mrr <= 1.0)) out.Mismatch("test MRR out of (0, 1]");

  // ---- (c) 1-vs-all. ----
  kge::WordNetLikeOptions gen;
  gen.num_entities = kKvsAllEntities;
  gen.seed = kge::DeriveStreamSeed(seed, kKvsAllGraph, 0);
  const kge::Dataset small = kge::GenerateWordNetLike(gen);
  BENCH_ASSIGN_OR_RETURN(
      std::unique_ptr<kge::KgeModel> c_model,
      kge::MakeModelByName("complex", small.num_entities(), small.num_relations(),
                           kDimBudget, seed));
  auto* trilinear = dynamic_cast<kge::MultiEmbeddingModel*>(c_model.get());
  if (trilinear == nullptr) return Status::Internal("ComplEx is not trilinear");
  kge::OneVsAllOptions kvsall;
  kvsall.max_epochs = 1 + kvsall_epochs;
  kvsall.num_threads = kThreads;
  kvsall.seed = seed;
  kvsall.eval_every_epochs = 1;
  kvsall.patience_epochs = kNoEarlyStop;
  kvsall.restore_best = false;
  kge::OneVsAllTrainer c_trainer(trilinear, kvsall);
  StageTimes c_stages;
  BENCH_ASSIGN_OR_RETURN(
      const kge::TrainResult c_result,
      c_trainer.Train(small.train, [&](int epoch) {
        if (epoch == 1) c_stages.after_warmup = c_trainer.stage_stats();
        return 0.0;
      }));
  c_stages.end = c_trainer.stage_stats();
  CheckLosses("kvsall", c_result.loss_history, &out);
  const std::vector<double> c_epochs(c_result.epoch_seconds.begin() + 1,
                                     c_result.epoch_seconds.end());

  // ---- End-to-end metrics, each epoch phase timed by its median epoch. ----
  PrintEpochs("negsamp", a_epochs);
  PrintEpochs("kvsall", c_epochs);
  const double a_epoch_s = Median(a_epochs);
  const double c_epoch_s = Median(c_epochs);
  const double a_triples = double(a->data.train.size()) * double(a_epochs.size());
  const double c_triples = double(small.train.size()) * double(c_epochs.size());
  const double a_seconds = a_epoch_s * double(a_epochs.size());
  const double c_seconds = c_epoch_s * double(c_epochs.size());
  out.Add("peak_rss_mb", PeakRssMb("self"), "MB");
  out.Add("throughput_per_s",
          (a_triples + ranked_triples + c_triples) /
              (a_seconds + eval_seconds + c_seconds),
          "1/s");
  out.Add("negsamp_epoch_ms", a_epoch_s * 1e3, "ms");
  out.Add("negsamp_triples_per_s", a_triples / a_seconds, "1/s");
  out.Add("eval_triples_per_s", ranked_triples / eval_seconds, "1/s");
  out.Add("kvsall_triples_per_s", c_triples / c_seconds, "1/s");
  out.Add("test_mrr", mrr, "frac");
  out.attempted = uint64_t(a_result.epoch_seconds.size() + 1 +
                           c_result.epoch_seconds.size());
  out.failed = out.correct ? 0 : 1;

  if (!options.trace) return out;

  // ---- Traced: per-layer figures. ----
  AddStagesPerEpoch("trainer", a_stages, negsamp_epochs, true, &out);
  AddStagesPerEpoch("one_vs_all", c_stages, kvsall_epochs, false, &out);
  {
    kge::NegativeSampler sampler(a->data.num_entities(), a->data.num_relations(),
                                 a->data.train, kge::NegativeSamplerOptions{});
    kge::Rng rng(seed);
    int64_t sum = 0;
    const int64_t t0 = NowNs();
    for (const kge::Triple& t : a->data.train) sum += sampler.Sample(t, &rng).head;
    const int64_t t1 = NowNs();
    if (sum < 0) out.Mismatch("negative sampler returned a negative id");
    out.spans.push_back({"sampler.epoch", t0, t1, -1, 0});
    out.Add("sampler.ns_per_negative",
            double(t1 - t0) / double(a->data.train.size()), "ns");
  }
  out.Add("eval.ns_per_candidate",
          eval_seconds * 1e9 /
              (double(evaluated.overall.count()) * double(a->data.num_entities())),
          "ns");

  // The trained model through the serving load path: saved, verified,
  // loaded as a snapshot, and scanned query by query. Its scans must
  // match the in-memory model bit for bit.
  namespace fs = std::filesystem;
  const fs::path work = fs::path(options.out_dir) / "work-train";
  fs::remove_all(work);
  kge::CheckpointManager manager((work / "ckpt").string(), /*keep_last=*/1);
  KGE_RETURN_IF_ERROR(manager.Init());
  BENCH_ASSIGN_OR_RETURN(const double save_ms,
                         SaveCheckpoint(&manager, a->model.get(), seed, 0));
  out.Add("checkpoint.save_ms", save_ms, "ms");
  const kge::ModelFactory factory =
      FactoryFor("complex", a->data.num_entities(), a->data.num_relations(),
                 kDimBudget, seed);
  const std::string path = manager.PathForEpoch(0);
  BENCH_ASSIGN_OR_RETURN(const SnapshotTimes times,
                         TimeSnapshotLoad(path, factory, /*prune=*/false));
  out.Add("snapshot.verify_ms", times.verify_ms, "ms");
  out.Add("snapshot.load_ms", times.load_ms, "ms");
  BENCH_ASSIGN_OR_RETURN(
      std::shared_ptr<kge::ModelSnapshot> snapshot,
      kge::LoadServingSnapshot(path, factory, {kge::ScorePrecision::kDouble}));
  std::vector<double> scan_us;
  for (size_t i = 0; i < std::min(kScanQueries, a->data.test.size()); ++i) {
    const kge::Triple& t = a->data.test[i];
    const Query q = i % 2 == 0
                        ? Query{kge::QuerySide::kTail, t.head, t.relation}
                        : Query{kge::QuerySide::kHead, t.tail, t.relation};
    const int64_t t0 = NowNs();
    const std::vector<kge::ScoredEntity> served = Predict(*snapshot->model, q, 1, false);
    const int64_t t1 = NowNs();
    out.spans.push_back({"scan.query", t0, t1, -1, i});
    scan_us.push_back(double(t1 - t0) / 1e3);
    if (!SameResults(served, Predict(*a->model, q, 1, false))) {
      out.Mismatch("snapshot scan differs from the trained model");
    }
  }
  snapshot.reset();
  fs::remove_all(work);
  const double scan_p50 = Percentile(scan_us, 0.50);
  const kge::ParameterBlock* entities = std::as_const(*a->model).Blocks()[0];
  const double scan_gb_per_s =
      double(entities->size()) * sizeof(float) / (scan_p50 * 1e3);
  out.Add("scan.query_us_p50", scan_p50, "us");
  out.Add("scan.effective_gb_per_s", scan_gb_per_s, "GB/s");
  // The 1-vs-all scoring shape: a 128-query batch against the table.
  const kge::ParameterBlock* small_entities = std::as_const(*c_model).Blocks()[0];
  out.Add("simd.dot_batch_multi_gflops",
          DotBatchMultiGflops(small_entities->Flat(),
                              size_t(small_entities->row_dim()),
                              size_t(kvsall.batch_queries),
                              kge::DeriveStreamSeed(seed, kDotProbe, 0)),
          "GFLOP/s");
  return out;
}

}  // namespace kgebench
