// kge_eval: evaluates a trained checkpoint (written by kge_train) on a
// dataset with the filtered link-prediction protocol. The model
// configuration (name, dim budget, seed) must match the training run so
// the checkpoint's block shapes line up — mismatches are detected and
// reported.
//
//   kge_eval --model=complex --dim-budget=400 --data-dir=/data/wn18 ...
//     ... --checkpoint=/tmp/complex.ckpt --report
#include <cstdio>

#include "kge.h"

namespace {

using namespace kge;

int Run(int argc, char** argv) {
  std::string model_name = "complex";
  std::string data_dir;
  std::string generate = "wordnet";
  std::string checkpoint;
  std::string split = "test";
  int64_t entities = 2000;
  int64_t dim_budget = 200;
  int64_t seed = 42;
  int64_t threads = 1;
  int64_t eval_batch = 0;
  bool prune = false;
  std::string eval_precision = "double";
  std::string scale;
  bool report = false;
  bool raw = false;
  std::string dump_ranks;

  FlagParser parser("kge_eval: evaluate a saved model checkpoint");
  parser.AddString("model", &model_name, "model name used at training time");
  parser.AddString("data-dir", &data_dir,
                   "dataset directory; empty = regenerate synthetic");
  parser.AddString("generate", &generate, "wordnet | freebase");
  parser.AddString("checkpoint", &checkpoint, "checkpoint path (required)");
  parser.AddString("split", &split, "which split to rank: test | valid");
  parser.AddInt("entities", &entities, "entities for generated datasets");
  parser.AddString("scale", &scale,
                   "generated-dataset preset: small (3k) | medium (100k) | "
                   "xl (1M); overrides --entities");
  parser.AddInt("dim-budget", &dim_budget, "per-entity parameter budget");
  parser.AddInt("seed", &seed, "seed used at training time");
  parser.AddInt("threads", &threads, "evaluation threads");
  parser.AddInt("eval-batch", &eval_batch,
                "same-relation queries ranked per walk of the entity "
                "table; 0 = 32 (metrics are identical at every setting)");
  parser.AddBool("prune", &prune,
                 "skip candidate tiles whose Cauchy-Schwarz score bound "
                 "cannot reach the true score (exact: metrics are "
                 "identical, only the work changes)");
  parser.AddString("eval-precision", &eval_precision,
                   "candidate-scoring tier: double (exact) | float32 | "
                   "int8 (quantized scoring replica; bounded metric "
                   "drift, measured in BENCH_eval.json)");
  parser.AddBool("report", &report, "per-relation breakdown");
  parser.AddBool("raw", &raw, "also print raw (unfiltered) metrics");
  parser.AddString("dump-ranks", &dump_ranks,
                   "write per-triple filtered ranks to this TSV file "
                   "(head, relation, tail, tail_rank, head_rank) for "
                   "error analysis");
  const Status status = parser.Parse(argc, argv);
  if (status.code() == StatusCode::kNotFound) return 0;
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return 2;
  }
  if (checkpoint.empty()) {
    std::fprintf(stderr, "--checkpoint is required\n");
    return 2;
  }
  if (!scale.empty()) {
    int32_t preset = 0;
    if (!ParseWordNetScale(scale, &preset)) {
      std::fprintf(stderr, "unknown --scale=%s (small|medium|xl)\n",
                   scale.c_str());
      return 2;
    }
    entities = preset;
  }
  if (eval_batch < 0 || eval_batch > INT32_MAX) {
    std::fprintf(stderr, "--eval-batch must be between 0 and %d\n",
                 INT32_MAX);
    return 2;
  }
  if (threads < 1) {
    std::fprintf(stderr, "--threads must be >= 1\n");
    return 2;
  }
  if (data_dir.empty()) {
    if (generate != "wordnet" && generate != "freebase") {
      std::fprintf(stderr, "unknown --generate=%s (wordnet|freebase)\n",
                   generate.c_str());
      return 2;
    }
    const int32_t min_entities =
        generate == "wordnet" ? kWordNetMinEntities : kFreebaseMinEntities;
    if (entities < min_entities || entities > INT32_MAX) {
      std::fprintf(stderr,
                   "--entities must be between %d and %d for "
                   "--generate=%s\n",
                   min_entities, INT32_MAX, generate.c_str());
      return 2;
    }
  }

  Dataset data;
  if (!data_dir.empty()) {
    Result<Dataset> loaded = LoadDatasetFromDirectory(
        data_dir, TripleFileFormat::kHeadRelationTail);
    KGE_CHECK_OK(loaded.status());
    data = std::move(*loaded);
  } else if (generate == "wordnet") {
    WordNetLikeOptions options;
    options.num_entities = int32_t(entities);
    options.seed = uint64_t(seed);
    data = GenerateWordNetLike(options);
  } else {
    FreebaseLikeOptions options;
    options.num_entities = int32_t(entities);
    options.seed = uint64_t(seed);
    data = GenerateFreebaseLike(options);
  }

  Result<std::unique_ptr<KgeModel>> model =
      MakeModelByName(model_name, data.num_entities(), data.num_relations(),
                      int32_t(dim_budget), uint64_t(seed));
  KGE_CHECK_OK(model.status());
  const Status load_status = LoadModelCheckpoint(model->get(), checkpoint);
  if (!load_status.ok()) {
    std::fprintf(stderr, "cannot load checkpoint: %s\n",
                 load_status.ToString().c_str());
    return 1;
  }

  const std::vector<Triple>& eval_triples =
      split == "valid" ? data.valid : data.test;
  FilterIndex filter;
  filter.Build(data.train, data.valid, data.test);
  Evaluator evaluator(&filter, data.num_relations());
  EvalOptions options;
  options.num_threads = int(threads);
  options.batch_queries = int(eval_batch);
  options.prune = prune;
  if (!ParseScorePrecision(eval_precision, &options.score_precision)) {
    std::fprintf(stderr,
                 "--eval-precision must be double, float32, or int8 "
                 "(got \"%s\")\n",
                 eval_precision.c_str());
    return 2;
  }
  if (!(*model)->SupportsScorePrecision(options.score_precision)) {
    std::fprintf(stderr,
                 "model %s does not support --eval-precision=%s; "
                 "use double\n",
                 (*model)->name().c_str(), eval_precision.c_str());
    return 2;
  }
  const int resolved_batch =
      eval_batch == 0 ? kDefaultEvalBatchQueries : int(eval_batch);
  Stopwatch eval_watch;
  const EvalResult result =
      evaluator.Evaluate(**model, eval_triples, options);
  const double eval_seconds = eval_watch.ElapsedSeconds();
  std::printf("%s (filtered): %s\n", split.c_str(),
              result.overall.ToString().c_str());
  if (eval_seconds > 0.0 && !eval_triples.empty()) {
    std::printf(
        "eval throughput: %.0f triples/s (%zu triples, %d threads, "
        "eval batch %d, precision %s%s)\n",
        double(eval_triples.size()) / eval_seconds, eval_triples.size(),
        int(threads), resolved_batch,
        ScorePrecisionName(options.score_precision),
        options.prune ? ", pruned" : "");
  }
  if (options.prune && result.scan_stats.tiles_total > 0) {
    std::printf("pruning: %llu / %llu tiles skipped (%.1f%%)\n",
                (unsigned long long)result.scan_stats.tiles_skipped,
                (unsigned long long)result.scan_stats.tiles_total,
                100.0 * double(result.scan_stats.tiles_skipped) /
                    double(result.scan_stats.tiles_total));
  }
  if (raw) {
    EvalOptions raw_options = options;
    raw_options.filtered = false;
    std::printf("%s (raw):      %s\n", split.c_str(),
                evaluator.EvaluateOverall(**model, eval_triples, raw_options)
                    .ToString()
                    .c_str());
  }
  if (report) {
    const auto stats = AnalyzeRelations(data.train, data.num_entities(),
                                        data.num_relations());
    std::printf("\n%s",
                RenderEvaluationReport(result, stats, data.relations).c_str());
  }
  if (!dump_ranks.empty()) {
    // The ranks behind the printed filtered metrics: every triple of the
    // split, in order, at the chosen precision.
    std::string tsv = "head\trelation\ttail\ttail_rank\thead_rank\n";
    for (size_t i = 0; i < eval_triples.size(); ++i) {
      const Triple& t = eval_triples[i];
      tsv += StrFormat("%s\t%s\t%s\t%.1f\t%.1f\n",
                       data.entities.NameOf(t.head).c_str(),
                       data.relations.NameOf(t.relation).c_str(),
                       data.entities.NameOf(t.tail).c_str(),
                       result.tail_ranks[i], result.head_ranks[i]);
    }
    KGE_CHECK_OK(WriteStringToFile(dump_ranks, tsv));
    std::printf("per-triple ranks written to %s\n", dump_ranks.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return Run(argc, argv); }
