// kge_serve: fault-tolerant link-prediction server over a trained
// checkpoint. Answers top-k head/tail queries on a loopback TCP port
// using the binary protocol from serve_protocol.h (see tools/kge_query
// for a client).
//
// The model configuration (name, vocabulary, dim budget) must match the
// training run, exactly as for kge_eval — shape mismatches are rejected
// at load time. The vocabulary sizes come from --data-dir, or from
// --entities/--scale for --generate=wordnet (whose generator fixes them
// without generating anything), or from generating --generate=freebase.
//
//   kge_serve --model=complex --dim-budget=200 ...
//     ... --checkpoint-dir=/tmp/run --watch-latest --port=7071
//
// Robustness properties (exercised by tests/serve_*_test.cc and
// scripts/serve_smoke.sh):
//   * admission control: queue beyond --max-queue answers SHED
//   * deadlines: queries stuck past --deadline-ms answer DEADLINE
//   * degradation: sustained pressure downshifts scoring toward
//     --degrade-precision; responses report the tier used
//   * hot swap: --watch-latest polls LATEST, CRC-verifies new
//     checkpoints before an atomic swap, quarantines corrupt ones, and
//     keeps serving the last good snapshot meanwhile
//   * adoption on every lane: with --shards > 1 the start-up load and
//     every hot swap checksum the file and build the tile bounds on the
//     scan lanes' pool
#include <csignal>
#include <cstdio>

#include <chrono>
#include <thread>
#include <utility>

#include "kge.h"

namespace {

using namespace kge;

volatile std::sig_atomic_t g_stop_requested = 0;

void HandleStopSignal(int /*signum*/) { g_stop_requested = 1; }

int Run(int argc, char** argv) {
  std::string model_name = "complex";
  std::string data_dir;
  std::string generate = "wordnet";
  std::string checkpoint;
  std::string checkpoint_dir;
  std::string degrade_precision = "double";
  int64_t entities = 2000;
  int64_t dim_budget = 200;
  int64_t seed = 42;
  int64_t port = 0;
  int64_t topk = 64;
  int64_t deadline_ms = 50;
  int64_t max_queue = 256;
  int64_t max_batch = 32;
  int64_t workers = 1;
  int64_t poll_ms = 200;
  int64_t shards = 1;
  bool prune = false;
  std::string scale;
  bool watch_latest = false;

  FlagParser parser("kge_serve: serve top-k link prediction over TCP");
  parser.AddString("model", &model_name, "model name used at training time");
  parser.AddString("data-dir", &data_dir,
                   "dataset directory; empty = the --generate vocabulary "
                   "(only the vocabulary sizes are used)");
  parser.AddString("generate", &generate, "wordnet | freebase");
  parser.AddString("checkpoint", &checkpoint,
                   "serve this checkpoint file (no LATEST indirection)");
  parser.AddString("checkpoint-dir", &checkpoint_dir,
                   "resolve the newest checkpoint via this directory's "
                   "LATEST pointer (with fallback to the newest CRC-valid "
                   "ckpt_*.kge2)");
  parser.AddInt("entities", &entities, "entities for generated datasets");
  parser.AddInt("dim-budget", &dim_budget, "per-entity parameter budget");
  parser.AddInt("seed", &seed, "seed used at training time");
  parser.AddInt("port", &port, "TCP port (loopback); 0 = ephemeral");
  parser.AddInt("topk", &topk, "server-side cap on per-request k");
  parser.AddInt("deadline-ms", &deadline_ms,
                "default per-query deadline when the request carries none");
  parser.AddInt("max-queue", &max_queue,
                "admission-queue slots; requests beyond this are SHED");
  parser.AddInt("max-batch", &max_batch,
                "max queries coalesced into one kernel dispatch");
  parser.AddInt("workers", &workers, "scoring worker threads");
  parser.AddInt("shards", &shards,
                "scan lanes of the top-k walk; lane s walks entity tiles "
                "s, s+N, s+2N, ... for the whole batch, lanes run in "
                "parallel and merge (results identical at every setting)");
  parser.AddBool("prune", &prune,
                 "skip candidate tiles whose Cauchy-Schwarz score bound "
                 "cannot beat the query's lane top-k minimum (exact, "
                 "never approximate)");
  parser.AddString("scale", &scale,
                   "generated-vocabulary preset: small (3k) | medium "
                   "(100k) | xl (1M); overrides --entities");
  parser.AddString("degrade-precision", &degrade_precision,
                   "lowest scoring tier load may downshift to: double "
                   "(never degrade) | float32 | int8");
  parser.AddBool("watch-latest", &watch_latest,
                 "poll <checkpoint-dir>/LATEST and hot-swap new "
                 "checkpoints (corrupt ones are quarantined)");
  parser.AddInt("poll-ms", &poll_ms, "LATEST poll interval");
  const Status status = parser.Parse(argc, argv);
  if (status.code() == StatusCode::kNotFound) return 0;
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return 2;
  }
  if (checkpoint.empty() == checkpoint_dir.empty()) {
    std::fprintf(stderr,
                 "exactly one of --checkpoint / --checkpoint-dir is "
                 "required\n");
    return 2;
  }
  if (watch_latest && checkpoint_dir.empty()) {
    std::fprintf(stderr, "--watch-latest requires --checkpoint-dir\n");
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
  for (const auto& [flag, value] :
       {std::pair{"--shards", shards}, std::pair{"--workers", workers},
        std::pair{"--max-queue", max_queue},
        std::pair{"--max-batch", max_batch}}) {
    if (value < 1) {
      std::fprintf(stderr, "%s must be >= 1\n", flag);
      return 2;
    }
  }

  BatcherOptions batcher_options;
  batcher_options.max_queue = int(max_queue);
  batcher_options.max_batch = int(max_batch);
  batcher_options.num_workers = int(workers);
  batcher_options.max_topk = uint32_t(topk > 0 ? topk : 1);
  batcher_options.default_deadline_ms = uint32_t(deadline_ms);
  batcher_options.num_shards = int(shards);
  batcher_options.prune = prune;
  if (!ParseScorePrecision(degrade_precision,
                           &batcher_options.degrade_floor)) {
    std::fprintf(stderr,
                 "--degrade-precision must be double, float32, or int8 "
                 "(got \"%s\")\n",
                 degrade_precision.c_str());
    return 2;
  }

  // Vocabulary sizes as at training time, so the factory builds the
  // block shapes the checkpoint must match. The wordnet generator fixes
  // them by contract (n synsets, kNumWordNetRelations relation ids,
  // whatever the seed), so that path builds no dataset.
  int32_t num_entities = int32_t(entities);
  int32_t num_relations = kNumWordNetRelations;
  if (!data_dir.empty() || generate == "freebase") {
    Dataset data;
    if (!data_dir.empty()) {
      Result<Dataset> loaded = LoadDatasetFromDirectory(
          data_dir, TripleFileFormat::kHeadRelationTail);
      KGE_CHECK_OK(loaded.status());
      data = std::move(*loaded);
    } else {
      FreebaseLikeOptions options;
      options.num_entities = int32_t(entities);
      options.seed = uint64_t(seed);
      data = GenerateFreebaseLike(options);
    }
    num_entities = data.num_entities();
    num_relations = data.num_relations();
  }

  // Every parameter comes from the checkpoint, so the model is built
  // uninitialized: its blocks stay untouched zero pages until the
  // loader borrows the mapped payloads.
  ModelFactory factory = [model_name, num_entities, num_relations,
                          dim_budget] {
    return MakeModelByName(model_name, num_entities, num_relations,
                           int32_t(dim_budget), std::nullopt);
  };

  CheckpointWatcher::Options watcher_options;
  watcher_options.dir = checkpoint_dir;
  watcher_options.poll_ms = int(poll_ms);
  watcher_options.prepare_tiers = {ScorePrecision::kDouble};
  if (int(batcher_options.degrade_floor) >=
      int(ScorePrecision::kFloat32)) {
    watcher_options.prepare_tiers.push_back(ScorePrecision::kFloat32);
  }
  if (int(batcher_options.degrade_floor) >= int(ScorePrecision::kInt8)) {
    watcher_options.prepare_tiers.push_back(ScorePrecision::kInt8);
  }
  // Pruned scans read per-tile score bounds that must be rebuilt before
  // a snapshot sees concurrent workers, so the loader prepares them.
  watcher_options.prepare_bounds = prune;

  // The batcher starts first so that every snapshot adoption — this
  // first load and each hot swap — checksums the file and builds the
  // bounds on the scan lanes' pool (--shards > 1) instead of on one
  // core. Its workers idle until the server admits a query.
  SnapshotRegistry registry;
  MicroBatcher batcher(&registry, batcher_options);
  batcher.Start();
  watcher_options.pool = batcher.lane_pool();
  CheckpointWatcher watcher(&registry, factory, watcher_options);
  const Status loaded = checkpoint.empty() ? watcher.LoadInitial()
                                           : watcher.AdoptPath(checkpoint);
  if (!loaded.ok()) {
    std::fprintf(stderr, "cannot load a serving checkpoint: %s\n",
                 loaded.ToString().c_str());
    return 1;
  }

  KgeServer server(&batcher, ServerOptions{int(port), 64});
  const Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "cannot start server: %s\n",
                 started.ToString().c_str());
    return 1;
  }
  if (watch_latest) watcher.Start();

  std::signal(SIGINT, HandleStopSignal);
  std::signal(SIGTERM, HandleStopSignal);
  std::printf("kge_serve: model=%s snapshot_version=%llu port=%d\n",
              model_name.c_str(),
              static_cast<unsigned long long>(registry.current_version()),
              server.port());
  std::fflush(stdout);

  while (g_stop_requested == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }

  std::printf("kge_serve: draining\n");
  if (watch_latest) watcher.Stop();
  server.Stop();  // drains the batcher too
  const BatcherStatsView bstats = batcher.stats();
  const CheckpointWatcher::StatsView wstats = watcher.stats();
  const KgeServer::StatsView sstats = server.stats();
  std::printf(
      "kge_serve: served=%llu shed=%llu expired=%llu invalid=%llu "
      "batches=%llu swaps=%llu quarantines=%llu tiles_skipped=%llu/%llu "
      "accepted=%llu rejected=%llu protocol_errors=%llu\n",
      static_cast<unsigned long long>(bstats.completed),
      static_cast<unsigned long long>(bstats.shed),
      static_cast<unsigned long long>(bstats.expired),
      static_cast<unsigned long long>(bstats.invalid),
      static_cast<unsigned long long>(bstats.batches),
      static_cast<unsigned long long>(wstats.swaps),
      static_cast<unsigned long long>(wstats.quarantines),
      static_cast<unsigned long long>(bstats.tiles_skipped),
      static_cast<unsigned long long>(bstats.tiles_total),
      static_cast<unsigned long long>(sstats.accepted),
      static_cast<unsigned long long>(sstats.rejected),
      static_cast<unsigned long long>(sstats.protocol_errors));
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return Run(argc, argv); }
