// kge_train: command-line training driver. Loads a WN18-format dataset
// directory (train.txt/valid.txt/test.txt, head<TAB>relation<TAB>tail) or
// generates a synthetic one, trains any registered model with early
// stopping on validation filtered MRR, reports test metrics (with an
// optional per-relation breakdown), and optionally writes a checkpoint.
//
//   kge_train --model=complex --data-dir=/data/wn18 ...
//     ... --dim-budget=400 --checkpoint=/tmp/complex.ckpt
//   kge_train --model=cph --generate=wordnet --entities=2000 --report
//   kge_train --model=distmult --generate=wordnet --grid-search
#include <cstdio>

#include "kge.h"

namespace {

using namespace kge;

int Run(int argc, char** argv) {
  std::string model_name = "complex";
  std::string data_dir;
  std::string generate = "wordnet";
  std::string checkpoint;
  int64_t entities = 2000;
  int64_t dim_budget = 200;
  int64_t max_epochs = 200;
  int64_t batch_size = 1024;
  int64_t negatives = 1;
  int64_t eval_every = 20;
  int64_t patience = 60;
  int64_t seed = 42;
  int64_t threads = 1;
  double learning_rate = 1e-3;
  double l2_lambda = 1e-5;
  std::string optimizer = "adam";
  bool report = false;
  bool grid_search = false;
  bool eval_train = false;

  FlagParser parser("kge_train: train a knowledge graph embedding model");
  parser.AddString("model", &model_name,
                   "model name (see models/model_factory.h)");
  parser.AddString("data-dir", &data_dir,
                   "dataset directory with train/valid/test.txt "
                   "(head<TAB>relation<TAB>tail); empty = generate");
  parser.AddString("generate", &generate,
                   "synthetic dataset family: wordnet | freebase");
  parser.AddString("checkpoint", &checkpoint,
                   "write the trained model checkpoint here");
  std::string checkpoint_dir;
  int64_t checkpoint_every = 1;
  int64_t keep_last = 3;
  bool resume = false;
  parser.AddString("checkpoint-dir", &checkpoint_dir,
                   "directory for durable training checkpoints (with "
                   "optimizer/RNG state for exact resume); empty = off");
  parser.AddInt("checkpoint-every", &checkpoint_every,
                "training-checkpoint cadence in epochs");
  parser.AddInt("keep-last", &keep_last,
                "training checkpoints retained (best + latest always kept)");
  parser.AddBool("resume", &resume,
                 "resume bit-identically from <checkpoint-dir>/LATEST");
  std::string export_tsv;
  parser.AddString("export-tsv", &export_tsv,
                   "write entity embeddings to <prefix>_vectors.tsv and "
                   "<prefix>_metadata.tsv (projector format)");
  parser.AddInt("entities", &entities, "entities for generated datasets");
  parser.AddInt("dim-budget", &dim_budget,
                "total embedding parameters per entity");
  parser.AddInt("max-epochs", &max_epochs, "maximum epochs");
  parser.AddInt("batch-size", &batch_size, "mini-batch size");
  parser.AddInt("negatives", &negatives, "negatives per positive");
  parser.AddInt("eval-every", &eval_every, "validation cadence (epochs)");
  parser.AddInt("patience", &patience, "early stopping patience (epochs)");
  parser.AddInt("seed", &seed, "random seed");
  parser.AddInt("threads", &threads, "evaluation threads");
  int64_t eval_batch = 0;
  parser.AddInt("eval-batch", &eval_batch,
                "same-relation queries ranked per walk of the entity "
                "table during validation and test evaluation; 0 = 32 "
                "(metrics are identical at every setting)");
  std::string eval_precision = "double";
  parser.AddString("eval-precision", &eval_precision,
                   "candidate-scoring tier for validation and test "
                   "ranking: double (exact) | float32 | int8 (quantized "
                   "scoring replica; bounded metric drift)");
  int64_t train_threads = 0;
  parser.AddInt("train-threads", &train_threads,
                "sample/gradient/merge/apply threads; 0 = auto-detect "
                "hardware concurrency (results are identical for every "
                "value)");
  parser.AddDouble("learning-rate", &learning_rate, "optimizer step size");
  parser.AddDouble("l2-lambda", &l2_lambda, "L2 regularization strength");
  parser.AddString("optimizer", &optimizer, "sgd | adagrad | adam");
  parser.AddBool("report", &report,
                 "print per-relation / per-category breakdown");
  parser.AddBool("grid-search", &grid_search,
                 "run the paper's hyperparameter grid (slow)");
  parser.AddBool("eval-train", &eval_train,
                 "also evaluate on (a sample of) the training set");
  const Status status = parser.Parse(argc, argv);
  if (status.code() == StatusCode::kNotFound) return 0;
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return 2;
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

  // ---- Dataset -------------------------------------------------------------
  Dataset data;
  if (!data_dir.empty()) {
    Result<Dataset> loaded = LoadDatasetFromDirectory(
        data_dir, TripleFileFormat::kHeadRelationTail);
    if (!loaded.ok()) {
      std::fprintf(stderr, "%s\n", loaded.status().ToString().c_str());
      return 1;
    }
    data = std::move(*loaded);
  } else if (generate == "wordnet") {
    WordNetLikeOptions options;
    options.num_entities = int32_t(entities);
    options.seed = uint64_t(seed);
    data = GenerateWordNetLike(options);
  } else if (generate == "freebase") {
    FreebaseLikeOptions options;
    options.num_entities = int32_t(entities);
    options.seed = uint64_t(seed);
    data = GenerateFreebaseLike(options);
  } else {
    std::fprintf(stderr, "unknown --generate=%s\n", generate.c_str());
    return 2;
  }
  KGE_CHECK_OK(data.Validate());
  std::printf("dataset: %s\n", data.StatsString().c_str());

  // ---- Model ---------------------------------------------------------------
  Result<std::unique_ptr<KgeModel>> model =
      MakeModelByName(model_name, data.num_entities(), data.num_relations(),
                      int32_t(dim_budget), uint64_t(seed));
  if (!model.ok()) {
    std::fprintf(stderr, "%s\n", model.status().ToString().c_str());
    return 2;
  }
  std::printf("model: %s (%lld parameters)\n", (*model)->name().c_str(),
              (long long)(*model)->NumParameters());

  ScorePrecision score_precision = ScorePrecision::kDouble;
  if (!ParseScorePrecision(eval_precision, &score_precision)) {
    std::fprintf(stderr,
                 "--eval-precision must be double, float32, or int8 "
                 "(got \"%s\")\n",
                 eval_precision.c_str());
    return 2;
  }
  if (!(*model)->SupportsScorePrecision(score_precision)) {
    std::fprintf(stderr,
                 "model %s does not support --eval-precision=%s; "
                 "use double\n",
                 (*model)->name().c_str(), eval_precision.c_str());
    return 2;
  }

  FilterIndex filter;
  filter.Build(data.train, data.valid, data.test);
  Evaluator evaluator(&filter, data.num_relations());
  EvalOptions valid_eval;
  valid_eval.max_triples = 500;
  valid_eval.num_threads = int(threads);
  valid_eval.batch_queries = int(eval_batch);
  valid_eval.score_precision = score_precision;
  const int resolved_batch =
      eval_batch == 0 ? kDefaultEvalBatchQueries : int(eval_batch);
  std::printf("eval batch: %d queries per ranking walk (precision %s)\n",
              resolved_batch, ScorePrecisionName(score_precision));
  auto validate = [&](KgeModel* m) {
    return evaluator.EvaluateOverall(*m, data.valid, valid_eval).Mrr();
  };

  TrainerOptions options;
  options.max_epochs = int(max_epochs);
  options.batch_size = int(batch_size);
  options.num_negatives = int(negatives);
  options.learning_rate = learning_rate;
  options.l2_lambda = l2_lambda;
  options.optimizer = optimizer;
  options.eval_every_epochs = int(eval_every);
  options.patience_epochs = int(patience);
  options.seed = uint64_t(seed);
  options.log_every_epochs = 20;
  options.num_threads = int(train_threads);
  const size_t resolved_train_threads = ResolveNumThreads(int(train_threads));
  std::printf("train threads: %zu%s\n", resolved_train_threads,
              train_threads == 0 ? " (auto-detected)" : "");
  options.checkpointing.dir = checkpoint_dir;
  options.checkpointing.every_epochs = int(checkpoint_every);
  options.checkpointing.keep_last = int(keep_last);
  options.checkpointing.resume = resume;
  if (resume && checkpoint_dir.empty()) {
    std::fprintf(stderr, "--resume requires --checkpoint-dir\n");
    return 2;
  }

  Stopwatch watch;
  if (grid_search) {
    GridSearchSpace space;
    space.batch_sizes = {int(batch_size)};  // keep the CLI grid 2-D
    GridSearch search(space, options);
    Result<GridSearchResult> best = search.Run(
        [&] {
          Result<std::unique_ptr<KgeModel>> fresh = MakeModelByName(
              model_name, data.num_entities(), data.num_relations(),
              int32_t(dim_budget), uint64_t(seed));
          KGE_CHECK_OK(fresh.status());
          return std::move(*fresh);
        },
        data.train, validate);
    KGE_CHECK_OK(best.status());
    std::printf("grid search best: %s (valid MRR %.3f)\n",
                best->best.ToString().c_str(), best->best_metric);
    options.learning_rate = best->best.learning_rate;
    options.l2_lambda = best->best.l2_lambda;
    options.batch_size = best->best.batch_size;
  }

  Trainer trainer(model->get(), options);
  Result<TrainResult> trained = trainer.Train(
      data.train,
      data.valid.empty()
          ? Trainer::ValidationFn()
          : [&](int) { return validate(model->get()); });
  if (!trained.ok()) {
    std::fprintf(stderr, "%s\n", trained.status().ToString().c_str());
    return 1;
  }
  std::printf("trained %d epochs in %.1fs (best valid MRR %.3f @ epoch %d)\n",
              trained->epochs_run, watch.ElapsedSeconds(),
              trained->best_validation_metric, trained->best_epoch);
  double train_seconds = 0.0;
  for (double s : trained->epoch_seconds) train_seconds += s;
  if (train_seconds > 0.0 && trained->epochs_run > 0) {
    const double epochs = double(trained->epochs_run);
    const double triples_per_sec =
        double(data.train.size()) * epochs / train_seconds;
    std::printf(
        "throughput: %.0f triples/s, %.0f examples/s "
        "(%d train threads, %.3fs/epoch)\n",
        triples_per_sec, triples_per_sec * double(1 + negatives),
        int(resolved_train_threads), train_seconds / epochs);
  }

  // ---- Evaluation ------------------------------------------------------
  EvalOptions test_eval;
  test_eval.num_threads = int(threads);
  test_eval.batch_queries = int(eval_batch);
  test_eval.score_precision = score_precision;
  Stopwatch eval_watch;
  const EvalResult result =
      evaluator.Evaluate(**model, data.test, test_eval);
  const double eval_seconds = eval_watch.ElapsedSeconds();
  std::printf("test: %s\n", result.overall.ToString().c_str());
  if (eval_seconds > 0.0 && !data.test.empty()) {
    std::printf("eval throughput: %.0f triples/s (%d threads, eval batch %d)\n",
                double(data.test.size()) / eval_seconds, int(threads),
                resolved_batch);
  }
  if (eval_train) {
    EvalOptions train_eval = test_eval;
    train_eval.max_triples = 2000;
    std::printf("train: %s\n",
                evaluator.EvaluateOverall(**model, data.train, train_eval)
                    .ToString()
                    .c_str());
  }
  if (report) {
    const auto stats = AnalyzeRelations(data.train, data.num_entities(),
                                        data.num_relations());
    std::printf("\n%s",
                RenderEvaluationReport(result, stats, data.relations).c_str());
  }

  if (!checkpoint.empty()) {
    KGE_CHECK_OK(SaveModelCheckpoint(**model, checkpoint));
    std::printf("checkpoint written to %s\n", checkpoint.c_str());
  }
  if (!export_tsv.empty()) {
    // Every registered model keeps entity embeddings in block 0.
    ParameterBlock* entity_block = (*model)->Blocks()[0];
    EmbeddingStore view("export", data.num_entities(), 1,
                        int32_t(entity_block->row_dim()));
    std::copy(entity_block->Flat().begin(), entity_block->Flat().end(),
              view.block()->Flat().begin());
    KGE_CHECK_OK(ExportEmbeddingsTsv(view, &data.entities,
                                     export_tsv + "_vectors.tsv",
                                     export_tsv + "_metadata.tsv"));
    std::printf("embeddings exported to %s_{vectors,metadata}.tsv\n",
                export_tsv.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return Run(argc, argv); }
