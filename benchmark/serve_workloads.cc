// serve-small, serve-xl-hot and serve-swap: a real kge_serve child over
// loopback, driven by the open/closed-loop client, every 50th reply
// recomputed exhaustively. A traced run then replays the same requests
// in-process, layer by layer.
#include <time.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <span>
#include <thread>
#include <utility>

#include "datagen/wordnet_like_generator.h"
#include "models/model_factory.h"
#include "serve/micro_batcher.h"
#include "train/trainer.h"
#include "util/check.h"
#include "util/random.h"
#include "util/timer.h"
#include "workloads.h"

namespace kgebench {
namespace {

using kge::Status;

struct ServeWorkload {
  const char* name;
  const char* model;
  int32_t dim_budget;
  // kge_serve --scale preset.
  const char* scale;
  // Epochs of negative-sampling training behind the checkpoint; 0 serves
  // an untrained table with a trained-like norm skew instead.
  int train_epochs;
  // --shards=4 --prune.
  bool sharded_pruned;
  // --watch-latest, with a writer publishing new checkpoints meanwhile.
  bool hot_swap;
  // Every request is (relation 0, tail): all in-flight requests share
  // one batcher group.
  bool one_group;
  // Open-loop arrival rate, a quarter to a third of the closed-loop saturation
  // of the commit that defined the benchmark (see README.md), then frozen.
  double rate_per_s;
  // Latency limit on the open-loop p90, from the due time.
  double slo_p90_ms;
};

constexpr ServeWorkload kWorkloads[] = {
    {"serve-small", "complex", 200, "small", 10, false, false, false, 2500.0,
     10.0},
    {"serve-xl-hot", "distmult", 64, "xl", 0, true, false, true, 110.0, 50.0},
    {"serve-swap", "distmult", 256, "medium", 0, true, true, false, 200.0,
     50.0},
};

// Phase lengths as shares of --seconds. The open and closed shares are
// split over kCycles alternating segments.
constexpr double kWarmShare = 0.1;
constexpr double kOpenShare = 0.6;
constexpr double kClosedShare = 0.3;
constexpr int kCycles = 10;
// serve-swap publishes one checkpoint per this share of --seconds.
constexpr double kPublishShare = 0.2;
// Twice the ~1 s a publish takes to be saved, verified, loaded and first
// served (swap_visible_ms).
constexpr int64_t kSwapSettleNs = 2'000'000'000;
// The load generator's connections; one outstanding request each.
constexpr int kConnections = 4;
constexpr int kShards = 4;
// Far beyond every latency limit: a deadline reply would be a failure,
// and the workloads are sized so none occurs.
constexpr int kDeadlineMs = 2000;
// Recompute every 50th OK reply.
constexpr size_t kCheckEvery = 50;
// kge_serve's --topk default, where it departs from BatcherOptions'.
constexpr uint32_t kServeTopKCap = 64;

// Seed streams (DeriveStreamSeed's first key).
enum Stream : uint64_t {
  kWarmQueries = 1,
  kOpenQueries,
  kClosedQueries,
  kWarmSchedule,
  kOpenSchedule,
  kRowScale,
  kDotProbe,
};

const ServeWorkload* FindWorkload(const std::string& name) {
  for (const ServeWorkload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

Query MakeQuery(const ServeWorkload& w, int32_t num_entities,
                int32_t num_relations, uint64_t seed, uint64_t stream,
                uint64_t index) {
  kge::Rng rng(kge::DeriveStreamSeed(seed, stream, index));
  Query q;
  q.entity = kge::EntityId(rng.NextBounded(uint64_t(num_entities)));
  if (!w.one_group) {
    const uint64_t group = rng.NextBounded(2 * uint64_t(num_relations));
    q.relation = kge::RelationId(group / 2);
    q.side = group % 2 == 0 ? kge::QuerySide::kTail : kge::QuerySide::kHead;
  }
  return q;
}

// Publish 0 gives the entity table the norm skew of a trained,
// frequency-sorted vocabulary (perf_report's MakeSkewedDistMult
// profile): large norms at low ids and a long small tail, the structure
// tile pruning feeds on. Each later publish jitters every row by up to
// ±1%, standing in for one more epoch of training.
void ScaleEntityRows(kge::KgeModel* model, uint64_t seed, int publish) {
  kge::ParameterBlock* entities = model->Blocks()[0];
  const int64_t rows = entities->num_rows();
  const size_t dim = size_t(entities->row_dim());
  std::span<float> flat = entities->Flat();
  kge::Rng rng(kge::DeriveStreamSeed(seed, kRowScale, uint64_t(publish)));
  for (int64_t e = 0; e < rows; ++e) {
    const float scale =
        publish == 0
            ? 0.05f + 0.95f * float(std::exp(-8.0 * double(e) / double(rows)))
            : rng.NextUniform(0.99f, 1.01f);
    for (float& x : flat.subspan(size_t(e) * dim, dim)) x *= scale;
  }
}

struct Drain {
  unsigned long long served = 0, shed = 0, expired = 0, invalid = 0,
                     batches = 0, swaps = 0, quarantines = 0,
                     tiles_skipped = 0, tiles_total = 0;
};

kge::Result<Drain> ParseDrain(const std::string& output) {
  Drain d;
  const size_t at = output.find("kge_serve: served=");
  if (at == std::string::npos ||
      std::sscanf(output.c_str() + at,
                  "kge_serve: served=%llu shed=%llu expired=%llu "
                  "invalid=%llu batches=%llu swaps=%llu quarantines=%llu "
                  "tiles_skipped=%llu/%llu",
                  &d.served, &d.shed, &d.expired, &d.invalid, &d.batches,
                  &d.swaps, &d.quarantines, &d.tiles_skipped,
                  &d.tiles_total) != 9) {
    return Status::Internal("no drain summary from kge_serve:\n" + output);
  }
  return d;
}

double Frac(double part, double whole) { return whole > 0 ? part / whole : 0.0; }

RequestSummary Summarize(std::span<const Reply> replies) {
  std::vector<RequestTiming> timing;
  timing.reserve(replies.size());
  for (const Reply& r : replies) timing.push_back(r.timing);
  return SummarizeRequests(timing);
}

void SleepUntil(int64_t ns) {
  const timespec ts{time_t(ns / 1'000'000'000), long(ns % 1'000'000'000)};
  while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) != 0) {
  }
}

// One replayed request's completion, written by a batcher worker.
struct ReplaySlot {
  std::atomic<int>* remaining = nullptr;
  int64_t done_ns = 0;
  kge::ServeStatusCode status = kge::ServeStatusCode::kError;
};

void OnReplayDone(void* ctx, const kge::ServeReply& reply) {
  ReplaySlot* slot = static_cast<ReplaySlot*>(ctx);
  slot->done_ns = NowNs();
  slot->status = reply.status;
  slot->remaining->fetch_sub(1, std::memory_order_release);
}

// The traced half of a serve run: with kge_serve stopped, time each
// layer in-process on the same checkpoint and request sequence.
Status TraceLayers(const ServeWorkload& w, const RunOptions& options,
                   const kge::ModelFactory& factory,
                   const std::string& checkpoint, const QueryFn& open_query,
                   const std::vector<int64_t>& open_due,
                   const std::vector<Reply>& socket_replies,
                   const Drain& drain, Outcome* out) {
  const int shards = w.sharded_pruned ? kShards : 1;
  BENCH_ASSIGN_OR_RETURN(const SnapshotTimes times,
                       TimeSnapshotLoad(checkpoint, factory, w.sharded_pruned));
  out->Add("snapshot.verify_ms", times.verify_ms, "ms");
  out->Add("snapshot.load_ms", times.load_ms, "ms");
  BENCH_ASSIGN_OR_RETURN(
      std::shared_ptr<kge::ModelSnapshot> snapshot,
      kge::LoadServingSnapshot(checkpoint, factory,
                               {kge::ScorePrecision::kDouble},
                               w.sharded_pruned));
  const kge::KgeModel& model = *snapshot->model;

  // Socket round trips of the traced open-loop phase: each request's
  // span, from its due time, holds the generator's wait and the RTT.
  std::vector<double> rtt_us;
  for (const Reply& r : socket_replies) {
    const int32_t root = int32_t(out->spans.size());
    out->spans.push_back({"request", r.timing.due_ns, r.timing.done_ns, -1, r.index});
    out->spans.push_back({"client.wait", r.timing.due_ns, r.timing.sent_ns, root, r.index});
    out->spans.push_back({"socket.rtt", r.timing.sent_ns, r.timing.done_ns, root, r.index});
    rtt_us.push_back(double(r.timing.done_ns - r.timing.sent_ns) / 1e3);
  }

  // MicroBatcher on the same schedule, configured as kge_serve is with
  // the flags the benchmark passes.
  kge::SnapshotRegistry registry;
  registry.Publish(snapshot);
  kge::BatcherOptions batcher_options;
  batcher_options.max_topk = kServeTopKCap;
  batcher_options.default_deadline_ms = kDeadlineMs;
  batcher_options.num_shards = shards;
  batcher_options.prune = w.sharded_pruned;
  std::vector<double> reply_us;
  kge::BatcherStatsView bstats;
  {
    kge::MicroBatcher batcher(&registry, batcher_options);
    batcher.Start();
    std::atomic<int> remaining{int(open_due.size())};
    std::vector<ReplaySlot> slots(open_due.size());
    std::vector<int64_t> submit_ns(open_due.size());
    const int64_t start = NowNs();
    for (size_t i = 0; i < open_due.size(); ++i) {
      SleepUntil(start + open_due[i]);
      const Query q = open_query(i);
      kge::ServeRequest request;
      request.side = q.side;
      request.entity = q.entity;
      request.relation = q.relation;
      request.k = kTopK;
      request.request_id = i;
      slots[i].remaining = &remaining;
      submit_ns[i] = NowNs();
      batcher.Submit(request, &OnReplayDone, &slots[i]);
    }
    while (remaining.load(std::memory_order_acquire) > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    bstats = batcher.stats();
    batcher.Stop();
    // Shed and expired replays are counted, as the socket phase counts
    // them, and kept out of the reply latencies.
    size_t failed = 0;
    for (size_t i = 0; i < slots.size(); ++i) {
      if (slots[i].status != kge::ServeStatusCode::kOk) {
        ++failed;
        continue;
      }
      out->spans.push_back({"batcher.reply", submit_ns[i], slots[i].done_ns, -1, i});
      reply_us.push_back(double(slots[i].done_ns - submit_ns[i]) / 1e3);
    }
    out->Add("batcher.replay_failed", double(failed), "count");
    if (reply_us.empty()) return Status::Internal("every in-process replay failed");
  }

  // The scan alone, one query at a time, for as many of the same
  // queries as a tenth of the run allows.
  std::vector<double> scan_us;
  const int64_t scan_end = NowNs() + int64_t(0.1 * options.seconds * 1e9);
  for (size_t i = 0; i < open_due.size(); ++i) {
    if (i >= 20 && NowNs() > scan_end) break;
    const int64_t t0 = NowNs();
    const std::vector<kge::ScoredEntity> top =
        Predict(model, open_query(i), shards, w.sharded_pruned);
    const int64_t t1 = NowNs();
    if (top.size() != kTopK) return Status::Internal("short top-k");
    out->spans.push_back({"scan.query", t0, t1, -1, i});
    scan_us.push_back(double(t1 - t0) / 1e3);
  }

  // Request and response codec, one of each per iteration.
  constexpr int kCodecReps = 20000;
  {
    kge::ServeRequest request;
    request.k = kTopK;
    kge::ServeRequest decoded;
    std::array<kge::ScoredEntity, kTopK> results{};
    kge::ServeResponseHeader header;
    header.count = kTopK;
    kge::ServeResponseHeader decoded_header;
    std::vector<kge::ScoredEntity> decoded_results;
    decoded_results.reserve(kTopK);
    std::array<uint8_t, kge::kRequestFrameBytes> req_buf{};
    std::array<uint8_t, kge::MaxResponseFrameBytes(kTopK)> resp_buf{};
    const int64_t t0 = NowNs();
    for (int i = 0; i < kCodecReps; ++i) {
      request.request_id = uint64_t(i);
      kge::EncodeServeRequest(request, req_buf);
      KGE_RETURN_IF_ERROR(kge::DecodeServeRequestFrame(req_buf, &decoded));
      header.request_id = decoded.request_id;
      const size_t len = kge::EncodeServeResponse(header, results, resp_buf);
      decoded_results.clear();
      KGE_RETURN_IF_ERROR(kge::DecodeServeResponseFrame(
          std::span<const uint8_t>(resp_buf.data(), len), &decoded_header,
          &decoded_results));
    }
    const int64_t t1 = NowNs();
    out->spans.push_back({"protocol.codec", t0, t1, -1, 0});
    out->Add("protocol.codec_ns", double(t1 - t0) / kCodecReps, "ns");
  }

  const kge::ParameterBlock* entities = std::as_const(model).Blocks()[0];
  const double table_bytes = double(entities->size()) * sizeof(float);
  const double skipped = Frac(double(bstats.tiles_skipped), double(bstats.tiles_total));
  const double scan_p50 = Percentile(scan_us, 0.50);
  const double reply_p50 = Percentile(reply_us, 0.50);
  const double scan_gb_per_s = table_bytes * (1.0 - skipped) / (scan_p50 * 1e3);
  out->Add("scan.query_us_p50", scan_p50, "us");
  out->Add("scan.effective_gb_per_s", scan_gb_per_s, "GB/s");
  out->Add("scan.tiles_skipped_frac",
           Frac(double(drain.tiles_skipped), double(drain.tiles_total)), "frac");
  out->Add("batcher.reply_us_p50", reply_p50, "us");
  out->Add("batcher.reply_us_p99", Percentile(reply_us, 0.99), "us");
  out->Add("batcher.self_us_p50", reply_p50 - scan_p50, "us");
  out->Add("server.self_us_p50", Percentile(rtt_us, 0.50) - reply_p50, "us");
  out->Add("batcher.batch_size_mean", Frac(double(drain.served), double(drain.batches)), "count");
  const double answered = double(drain.served + drain.shed + drain.expired);
  out->Add("batcher.shed_frac", Frac(double(drain.shed), answered), "frac");
  out->Add("batcher.expired_frac", Frac(double(drain.expired), answered), "frac");
  out->Add("snapshot.swaps", double(drain.swaps), "count");
  const size_t rows = std::min<size_t>(size_t(entities->num_rows()), 65536);
  out->Add("simd.dot_batch_multi_gflops",
           DotBatchMultiGflops(entities->Flat().first(rows * size_t(entities->row_dim())),
                               size_t(entities->row_dim()),
                               size_t(batcher_options.max_batch),
                               kge::DeriveStreamSeed(options.seed, kDotProbe, 0)),
           "GFLOP/s");
  return Status::Ok();
}

}  // namespace

kge::Result<Outcome> RunServeWorkload(const RunOptions& options) {
  const ServeWorkload* found = FindWorkload(options.workload);
  if (found == nullptr) {
    return Status::InvalidArgument("unknown workload " + options.workload);
  }
  const ServeWorkload& w = *found;
  const uint64_t seed = options.seed;
  Outcome out;
  namespace fs = std::filesystem;
  const fs::path work = fs::path(options.out_dir) / ("work-" + std::string(w.name));
  fs::remove_all(work);
  fs::create_directories(work);
  const std::string ckpt_dir = (work / "ckpt").string();
  const std::string log_path = (work / "kge_serve.log").string();

  // ---- Inputs: the vocabulary kge_serve will regenerate, and the
  // checkpoint it serves. ----
  int32_t scale_entities = 0;
  KGE_CHECK(kge::ParseWordNetScale(w.scale, &scale_entities));
  kge::WordNetLikeOptions gen;
  gen.num_entities = scale_entities;
  gen.seed = seed;
  kge::Stopwatch watch;
  kge::Dataset data = kge::GenerateWordNetLike(gen);
  out.Add("datagen.gen_s", watch.ElapsedSeconds(), "s");
  const int32_t num_entities = data.num_entities();
  const int32_t num_relations = data.num_relations();
  const kge::ModelFactory factory =
      FactoryFor(w.model, num_entities, num_relations, w.dim_budget, seed);
  BENCH_ASSIGN_OR_RETURN(std::unique_ptr<kge::KgeModel> model, factory());
  if (w.train_epochs > 0) {
    kge::TrainerOptions train;
    train.max_epochs = w.train_epochs;
    train.batch_size = 1024;
    train.l2_lambda = 1e-5;
    train.num_threads = 4;
    train.seed = seed;
    kge::Trainer trainer(model.get(), train);
    KGE_RETURN_IF_ERROR(trainer.Train(data.train, nullptr).status());
  } else {
    ScaleEntityRows(model.get(), seed, 0);
  }
  data = kge::Dataset();
  kge::CheckpointManager manager(ckpt_dir, /*keep_last=*/1000);
  KGE_RETURN_IF_ERROR(manager.Init());
  std::vector<double> save_ms;
  BENCH_ASSIGN_OR_RETURN(const double first_save_ms,
                       SaveCheckpoint(&manager, model.get(), seed, 0));
  save_ms.push_back(first_save_ms);
  if (!w.hot_swap) model.reset();

  // ---- Set-up: kge_serve from exec to listening, median of three
  // starts (one when tracing, which reports no set-up time). ----
  std::vector<std::string> argv = {
      options.serve_bin,
      std::string("--model=") + w.model,
      "--dim-budget=" + std::to_string(w.dim_budget),
      std::string("--scale=") + w.scale,
      "--seed=" + std::to_string(seed),
      "--checkpoint-dir=" + ckpt_dir,
      "--port=0",
      "--deadline-ms=" + std::to_string(kDeadlineMs)};
  if (w.sharded_pruned) {
    argv.push_back("--shards=" + std::to_string(kShards));
    argv.push_back("--prune");
  }
  if (w.hot_swap) {
    argv.push_back("--watch-latest");
    argv.push_back("--poll-ms=20");
  }
  std::vector<double> setup_s;
  ServeProcess server;
  for (int start = options.trace ? 1 : 3; start > 1; --start) {
    ServeProcess probe;
    KGE_RETURN_IF_ERROR(probe.Start(argv, log_path));
    setup_s.push_back(probe.setup_seconds());
    KGE_RETURN_IF_ERROR(probe.Stop().status());
  }
  KGE_RETURN_IF_ERROR(server.Start(argv, log_path));
  setup_s.push_back(server.setup_seconds());
  out.Add("setup_s", Median(setup_s), "s");

  // ---- Load: a warm-up, then kCycles cycles of an open-loop segment
  // followed by a closed-loop segment, so that both phases sample the
  // whole run rather than one stretch of it. ----
  auto query_fn = [&](uint64_t stream) -> QueryFn {
    return [&w, num_entities, num_relations, seed, stream](uint64_t i) {
      return MakeQuery(w, num_entities, num_relations, seed, stream, i);
    };
  };
  const QueryFn open_query = query_fn(kOpenQueries);
  const QueryFn closed_query = query_fn(kClosedQueries);
  const double s = options.seconds;
  const int64_t open_ns = int64_t(kOpenShare * s * 1e9) / kCycles;
  const int64_t closed_ns = int64_t(kClosedShare * s * 1e9) / kCycles;

  LoadClient client;
  KGE_RETURN_IF_ERROR(client.Connect(server.port(), kConnections));
  std::vector<Reply> warm;
  KGE_RETURN_IF_ERROR(client.RunOpen(
      query_fn(kWarmQueries), 0,
      PoissonSchedule(kge::DeriveStreamSeed(seed, kWarmSchedule, 0),
                      w.rate_per_s, int64_t(kWarmShare * s * 1e9)),
      &warm));

  // serve-swap: the first reply carrying each new snapshot version.
  std::map<uint64_t, int64_t> first_seen_ns;
  client.on_reply = [&](const Reply& r) {
    if (r.status == kge::ServeStatusCode::kOk) {
      first_seen_ns.emplace(r.snapshot_version, r.timing.done_ns);
    }
  };
  // Publish p is due at (p − 1/2) publish intervals into the load and
  // must leave kSwapSettleNs of load after it to become visible.
  const int64_t publish_ns = int64_t(kPublishShare * s * 1e9);
  const int64_t load_ns = (open_ns + closed_ns) * kCycles;
  int publishes = 0;
  while (w.hot_swap &&
         publish_ns * publishes + publish_ns / 2 + kSwapSettleNs <= load_ns) {
    ++publishes;
  }
  std::vector<int64_t> saved_ns(size_t(publishes) + 1, 0);
  Status writer_status = Status::Ok();
  const int64_t load_start = NowNs();
  std::thread writer([&] {
    for (int p = 1; p <= publishes && writer_status.ok(); ++p) {
      SleepUntil(load_start + publish_ns * (p - 1) + publish_ns / 2);
      ScaleEntityRows(model.get(), seed, p);
      kge::Result<double> ms = SaveCheckpoint(&manager, model.get(), seed, p);
      saved_ns[size_t(p)] = NowNs();
      if (ms.ok()) {
        save_ms.push_back(*ms);
      } else {
        writer_status = ms.status();
      }
    }
  });
  // The open-loop segments' due times back to back, as the replay runs
  // them.
  std::vector<int64_t> open_due;
  std::vector<Reply> open_replies;
  std::vector<Reply> closed_replies;
  // The closed-loop OK rate of each cycle.
  std::vector<double> cycle_rate;
  const Status load_status = [&]() -> Status {
    for (int k = 0; k < kCycles; ++k) {
      const std::vector<int64_t> due = PoissonSchedule(
          kge::DeriveStreamSeed(seed, kOpenSchedule, uint64_t(k)), w.rate_per_s,
          open_ns);
      const size_t first = open_replies.size();
      KGE_RETURN_IF_ERROR(
          client.RunOpen(open_query, open_due.size(), due, &open_replies));
      for (const int64_t t : due) open_due.push_back(k * open_ns + t);
      BENCH_ASSIGN_OR_RETURN(
          const size_t ok,
          client.RunClosed(closed_query, closed_replies.size(), closed_ns,
                           &closed_replies));
      cycle_rate.push_back(double(ok) / (double(closed_ns) / 1e9));
      std::printf("cycle %d open_p50_ms=%.4f closed_per_s=%.1f\n", k,
                  Summarize(std::span(open_replies).subspan(first)).p50_ms,
                  cycle_rate.back());
    }
    return Status::Ok();
  }();
  writer.join();
  KGE_RETURN_IF_ERROR(load_status);
  KGE_RETURN_IF_ERROR(writer_status);
  const double peak_rss_mb = PeakRssMb(std::to_string(server.pid()));
  BENCH_ASSIGN_OR_RETURN(const std::string drain_text, server.Stop());
  BENCH_ASSIGN_OR_RETURN(const Drain drain, ParseDrain(drain_text));
  model.reset();

  // ---- End-to-end metrics. ----
  const RequestSummary open = Summarize(open_replies);
  out.Add("peak_rss_mb", peak_rss_mb, "MB");
  out.Add("throughput_per_s", Median(cycle_rate), "1/s");
  out.Add("open_latency_p50_ms", open.p50_ms, "ms");
  out.Add("open_latency_p90_ms", open.p90_ms, "ms");
  out.Add("open_latency_p99_ms", open.p99_ms, "ms");
  out.Add("open_loop_samples", double(open.ok), "count");
  out.Add("gen_late_ms_p99", open.late_p99_ms, "ms");
  out.attempted = warm.size() + open_replies.size() + closed_replies.size();
  for (const std::vector<Reply>* phase : {&warm, &open_replies, &closed_replies}) {
    for (const Reply& r : *phase) out.failed += r.status != kge::ServeStatusCode::kOk;
  }
  out.Add("ops_sent", double(out.attempted), "count");
  out.Add("ops_ok", double(out.attempted - out.failed), "count");
  out.Add("ops_failed", double(out.failed), "count");
  out.Add("slo_met",
          out.failed == 0 && PercentileSupported(open.ok, 0.90) &&
                  open.p90_ms <= w.slo_p90_ms
              ? 1.0
              : 0.0,
          "bool");
  if (w.hot_swap) {
    std::vector<double> visible_ms;
    for (int p = 1; p <= publishes; ++p) {
      const auto seen = first_seen_ns.lower_bound(uint64_t(p) + 1);
      if (seen == first_seen_ns.end()) {
        out.Mismatch("snapshot " + std::to_string(p + 1) + " never served");
        continue;
      }
      visible_ms.push_back(double(seen->second - saved_ns[size_t(p)]) / 1e6);
    }
    if (!visible_ms.empty()) out.Add("swap_visible_ms", Median(visible_ms), "ms");
    if (drain.swaps != unsigned(publishes) + 1) {
      out.Mismatch("kge_serve swapped " + std::to_string(drain.swaps) +
                   " snapshots for " + std::to_string(publishes) + " publishes");
    }
  }
  out.Add("checkpoint.save_ms", Median(save_ms), "ms");

  // ---- Exactness: every 50th OK reply against an exhaustive scan of
  // the checkpoint that produced it (snapshot version v serves the
  // checkpoint of epoch v - 1). ----
  struct Sampled {
    const Reply* reply;
    const QueryFn* query;
  };
  std::map<uint64_t, std::vector<Sampled>> by_version;
  size_t ok_seen = 0;
  for (const auto& [phase, query] :
       {std::pair{&open_replies, &open_query},
        std::pair{&closed_replies, &closed_query}}) {
    for (const Reply& r : *phase) {
      if (r.status != kge::ServeStatusCode::kOk) continue;
      if (ok_seen++ % kCheckEvery == 0) {
        by_version[r.snapshot_version].push_back({&r, query});
      }
    }
  }
  size_t checked = 0;
  for (const auto& [version, sample] : by_version) {
    if (version < 1 || version > uint64_t(publishes) + 1) {
      out.Mismatch("reply from unknown snapshot version " + std::to_string(version));
      continue;
    }
    BENCH_ASSIGN_OR_RETURN(
        std::shared_ptr<kge::ModelSnapshot> snapshot,
        kge::LoadServingSnapshot(manager.PathForEpoch(int(version) - 1), factory,
                                 {kge::ScorePrecision::kDouble}));
    for (const Sampled& sampled : sample) {
      const Reply& r = *sampled.reply;
      const std::vector<kge::ScoredEntity> expect =
          Predict(*snapshot->model, (*sampled.query)(r.index), 1, false);
      if (!SameResults(std::span(r.results.data(), r.count), expect)) {
        out.Mismatch("request " + std::to_string(r.index) + " on snapshot " +
                     std::to_string(version) + " differs from the exhaustive top-k");
      }
      ++checked;
    }
  }
  out.Add("exactness_checked", double(checked), "count");

  if (options.trace) {
    KGE_RETURN_IF_ERROR(TraceLayers(w, options, factory, manager.PathForEpoch(0),
                                    open_query, open_due, open_replies, drain,
                                    &out));
  }
  fs::remove_all(work);
  return out;
}

}  // namespace kgebench
