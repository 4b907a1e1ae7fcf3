// Property sweep for the multi-query top-k walk and the pruned rank
// scans: for every trilinear model, scoring precision, lane count,
// batch size and prune setting, the walk's merged lane heaps must equal
// an exhaustive scan EXACTLY — same entities, same float bits, same
// tie-breaks. Pruning is a work optimization (skipped tiles), never an
// answer approximation, and striding tiles across lanes — or letting
// concurrent lanes claim each other's tiles — is a partition of the
// candidates whose merge is total-order deterministic. The sweep
// runs on norm-skewed models (where tiles actually get skipped), on a
// table whose norms grow with id (each lane's heap fills from its
// weakest tiles first, with no primed floor to help), and on edge
// cases: per-query k and exclusions, duplicate anchors in one batch,
// all-tied scores, fewer survivors than k, and more lanes than tiles.
//
// Also runs under ASan/UBSan and TSan in CI (tests are built per
// sanitizer), which checks the PrepareForPrunedScoring -> concurrent
// scan handoff and the lanes' concurrent tile claims.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/topk_heap.h"
#include "datagen/wordnet_like_generator.h"
#include "eval/evaluator.h"
#include "eval/topk.h"
#include "kg/filter_index.h"
#include "math/simd.h"
#include "models/quaternion_model.h"
#include "models/trilinear_models.h"
#include "util/random.h"

namespace kge {
namespace {

constexpr int32_t kEntities = 2000;
constexpr int32_t kRelations = 6;
constexpr int kTopK = 10;
const int kLaneCounts[] = {1, 2, 7};
const size_t kBatchSizes[] = {1, 3, 32};
const ScorePrecision kPrecisions[] = {
    ScorePrecision::kDouble, ScorePrecision::kFloat32,
    ScorePrecision::kInt8};

using Heap = TopKHeap<float, EntityId>;
using Entries = std::vector<Heap::Entry>;

// Scales row e by 0.05 + 0.95·exp(-8·e/n). Decaying norms, like a
// frequency-sorted trained vocabulary, are the profile tile pruning
// exists for; `grow` mirrors them so norms rise with id instead.
void SkewEntityNorms(MultiEmbeddingModel* model, bool grow = false) {
  const int32_t n = model->num_entities();
  for (int32_t e = 0; e < n; ++e) {
    const double u = double(grow ? n - 1 - e : e) / double(n);
    const float scale = 0.05f + 0.95f * float(std::exp(-8.0 * u));
    for (float& x : model->entity_store().Of(e)) x *= scale;
  }
}

struct NamedModel {
  std::string name;
  std::unique_ptr<MultiEmbeddingModel> model;
};

std::vector<NamedModel> MakeSkewedModels(uint64_t seed, bool grow) {
  std::vector<NamedModel> models;
  models.push_back({"DistMult", MakeDistMult(kEntities, kRelations, 16, seed)});
  models.push_back({"ComplEx", MakeComplEx(kEntities, kRelations, 8, seed)});
  models.push_back({"CP", MakeCp(kEntities, kRelations, 8, seed)});
  models.push_back({"CPh", MakeCph(kEntities, kRelations, 8, seed)});
  models.push_back(
      {"Quaternion", MakeQuaternionModel(kEntities, kRelations, 4, seed)});
  for (NamedModel& m : models) SkewEntityNorms(m.model.get(), grow);
  return models;
}

// One query of a walk batch.
struct Query {
  EntityId anchor = 0;
  int k = kTopK;
  std::vector<EntityId> excluded;  // sorted ascending
};

// The oracle: every candidate scored by the full-table batched kernel at
// `precision`, then one heap pass.
Entries Exhaustive(const KgeModel& model, QuerySide side,
                   RelationId relation, const Query& query,
                   ScorePrecision precision) {
  std::vector<float> scores(size_t(model.num_entities()));
  const std::span<const EntityId> anchor(&query.anchor, 1);
  if (side == QuerySide::kTail) {
    model.ScoreAllTailsBatch(anchor, relation, scores, precision);
  } else {
    model.ScoreAllHeadsBatch(anchor, relation, scores, precision);
  }
  Heap heap(query.k);
  heap.PushScoresExcluding(scores, query.excluded);
  const auto sorted = heap.TakeSorted();
  return Entries(sorted.begin(), sorted.end());
}

// How Walk runs the lanes.
enum class LaneRun {
  // One after another, each into its own heaps.
  kMerged,
  // One after another into the same heaps, as PredictTails does.
  kShared,
  // With claim counters, last lane first: it claims every tile of every
  // lane, so each lane sequence is taken over from its start.
  kClaimedReversed,
  // With claim counters, one thread per lane, as MicroBatcher runs
  // them: the tiles split among the lanes however the threads race.
  kClaimedThreads,
};
constexpr LaneRun kLaneRuns[] = {LaneRun::kMerged, LaneRun::kShared,
                                 LaneRun::kClaimedReversed,
                                 LaneRun::kClaimedThreads};

std::string LaneRunName(LaneRun run) {
  switch (run) {
    case LaneRun::kMerged: return "merged";
    case LaneRun::kShared: return "shared";
    case LaneRun::kClaimedReversed: return "claimed-reversed";
    case LaneRun::kClaimedThreads: return "claimed-threads";
  }
  return "?";
}

// The walk as MicroBatcher runs it: fold the batch once, walk every lane
// into its own heaps (armed with each query's k), then merge each
// query's lane heaps in lane order. `run` picks the lane schedule.
std::vector<Entries> Walk(const KgeModel& model, QuerySide side,
                          RelationId relation,
                          const std::vector<Query>& queries,
                          ScorePrecision precision, int lanes, bool prune,
                          RankScanStats* stats,
                          LaneRun run = LaneRun::kMerged) {
  const size_t batch_size = queries.size();
  std::vector<EntityId> anchors;
  std::vector<std::span<const EntityId>> excluded;
  for (const Query& q : queries) {
    anchors.push_back(q.anchor);
    excluded.push_back(q.excluded);
  }
  std::vector<float> folds(batch_size * model.FoldWidth());
  model.FoldQueries(side, relation, anchors, folds);
  TopKWalkBatch batch;
  batch.side = side;
  batch.relation = relation;
  batch.anchors = anchors;
  batch.folds = folds;
  batch.excluded = excluded;
  batch.precision = precision;
  batch.prune = prune;
  const size_t num_lanes = size_t(lanes);
  std::vector<TopKLaneClaim> claims(num_lanes);
  if (run == LaneRun::kClaimedReversed || run == LaneRun::kClaimedThreads) {
    batch.lane_claims = claims;
  }
  const bool shared_heap = run == LaneRun::kShared;
  std::vector<Heap> lane_heaps(num_lanes * batch_size);
  for (size_t h = 0; h < lane_heaps.size(); ++h) {
    lane_heaps[h].ResetCapacity(queries[h % batch_size].k);
  }
  std::vector<TopKWalkScratch> scratch(num_lanes);
  std::vector<RankScanStats> lane_stats(num_lanes);
  const auto walk_lane = [&](int lane) {
    const size_t first = shared_heap ? 0 : size_t(lane) * batch_size;
    model.TopKWalk(batch, lane, lanes,
                   std::span<Heap>(lane_heaps.data() + first, batch_size),
                   &scratch[size_t(lane)], &lane_stats[size_t(lane)]);
  };
  if (run == LaneRun::kClaimedThreads) {
    std::vector<std::thread> threads;
    for (int lane = 0; lane < lanes; ++lane) {
      threads.emplace_back(walk_lane, lane);
    }
    for (std::thread& t : threads) t.join();
  } else if (run == LaneRun::kClaimedReversed) {
    for (int lane = lanes - 1; lane >= 0; --lane) walk_lane(lane);
  } else {
    for (int lane = 0; lane < lanes; ++lane) walk_lane(lane);
  }
  for (const RankScanStats& lane : lane_stats) {
    stats->tiles_total += lane.tiles_total;
    stats->tiles_skipped += lane.tiles_skipped;
  }
  std::vector<Entries> merged;
  for (size_t q = 0; q < batch_size; ++q) {
    Heap heap(queries[q].k);
    for (int lane = 0; lane < (shared_heap ? 1 : lanes); ++lane) {
      heap.MergeFrom(lane_heaps[size_t(lane) * batch_size + q]);
    }
    const auto sorted = heap.TakeSorted();
    merged.emplace_back(sorted.begin(), sorted.end());
  }
  return merged;
}

void ExpectSameTopK(const Entries& expect, const Entries& got,
                    const std::string& label) {
  ASSERT_EQ(expect.size(), got.size()) << label;
  for (size_t i = 0; i < expect.size(); ++i) {
    EXPECT_EQ(expect[i].entity, got[i].entity) << label << " position " << i;
    // Bit equality on purpose: pruning, striding and batching must not
    // change a single bit of any kept score.
    EXPECT_EQ(std::bit_cast<uint32_t>(expect[i].score),
              std::bit_cast<uint32_t>(got[i].score))
        << label << " position " << i;
  }
}

// A batch of `size` queries with per-query k (including 0, 1 and more
// than the vocabulary), per-query exclusions (some of them the query's
// own best candidates) and duplicate anchors.
std::vector<Query> MakeBatch(size_t size, Rng* rng) {
  const int ks[] = {kTopK, 1, 0, 25, kEntities + 3};
  std::vector<Query> queries(size);
  for (size_t q = 0; q < size; ++q) {
    Query& query = queries[q];
    // Every third query repeats an earlier anchor.
    query.anchor = q >= 3 && q % 3 == 0
                       ? queries[q - 3].anchor
                       : EntityId(rng->NextBounded(kEntities));
    query.k = size == 1 ? kTopK : ks[q % 5];
    if (q % 2 == 1) {
      for (int i = 0; i < 40; ++i) {
        query.excluded.push_back(EntityId(rng->NextBounded(kEntities)));
      }
      // Low ids hold the largest norms of the decaying tables.
      for (EntityId e = 0; e < 8; ++e) query.excluded.push_back(e);
      std::sort(query.excluded.begin(), query.excluded.end());
      query.excluded.erase(
          std::unique(query.excluded.begin(), query.excluded.end()),
          query.excluded.end());
    }
  }
  return queries;
}

// Every lane count × batch size × prune setting against the oracle, both
// sides, every tier the model supports.
void SweepMatchesExhaustive(std::vector<NamedModel> models, uint64_t seed) {
  Rng rng(seed);
  for (NamedModel& nm : models) {
    const MultiEmbeddingModel& model = *nm.model;
    for (const ScorePrecision precision : kPrecisions) {
      if (!model.SupportsScorePrecision(precision)) continue;
      model.PrepareForPrunedScoring(precision);
      for (const size_t batch_size : kBatchSizes) {
        const QuerySide side =
            batch_size == 3 ? QuerySide::kHead : QuerySide::kTail;
        const RelationId relation = RelationId(rng.NextBounded(kRelations));
        const std::vector<Query> queries = MakeBatch(batch_size, &rng);
        std::vector<Entries> expect;
        for (const Query& q : queries) {
          expect.push_back(Exhaustive(model, side, relation, q, precision));
        }
        for (const int lanes : kLaneCounts) {
          // Prune off/on × every lane schedule.
          for (int mode = 0; mode < 2 * int(std::size(kLaneRuns)); ++mode) {
            const bool prune = mode % 2 == 1;
            const LaneRun run = kLaneRuns[mode / 2];
            RankScanStats stats;
            const std::vector<Entries> got = Walk(
                model, side, relation, queries, precision, lanes, prune,
                &stats, run);
            // Every tile is walked exactly once, whichever lane claims it.
            const size_t tiles =
                simd::PrunedTileCount(kEntities, model.FoldWidth());
            EXPECT_EQ(stats.tiles_total, tiles * batch_size);
            for (size_t q = 0; q < batch_size; ++q) {
              ExpectSameTopK(
                  expect[q], got[q],
                  nm.name + " precision=" +
                      std::string(ScorePrecisionName(precision)) +
                      " batch=" + std::to_string(batch_size) +
                      " lanes=" + std::to_string(lanes) +
                      " prune=" + std::to_string(prune) + " run=" +
                      LaneRunName(run) + " query=" + std::to_string(q));
            }
          }
        }
      }
    }
  }
}

TEST(PrunedTopKProperty, AllModelsPrecisionsAndShardCountsMatchExhaustive) {
  SweepMatchesExhaustive(MakeSkewedModels(7, /*grow=*/false), 1234);
}

TEST(PrunedTopKProperty, NormsGrowingWithIdStayExact) {
  // Every lane's first tiles hold the weakest rows, so its heap minimum
  // starts low and each later tile's bound beats it: pruning has nothing
  // to stand on, and the result must still be exact.
  SweepMatchesExhaustive(MakeSkewedModels(9, /*grow=*/true), 4321);
}

TEST(PrunedTopKProperty, PruningActuallySkipsTilesOnSkewedModels) {
  // Guards against the pruning predicate silently never firing (the
  // exactness sweeps would still pass). Skewed DistMult at kDouble must
  // skip a nonzero fraction of (query, tile) pairs at every lane count —
  // each lane prunes against its own heap minimum, with no shared floor.
  // Ten times the sweep's vocabulary gives every lane several tiles.
  auto model = MakeDistMult(10 * kEntities, kRelations, 16, 7);
  SkewEntityNorms(model.get());
  model->PrepareForPrunedScoring(ScorePrecision::kDouble);
  Rng rng(99);
  std::vector<Query> queries(12);
  for (Query& q : queries) {
    q.anchor = EntityId(rng.NextBounded(uint64_t(10 * kEntities)));
  }
  for (const int lanes : kLaneCounts) {
    RankScanStats stats;
    Walk(*model, QuerySide::kTail, 1, queries, ScorePrecision::kDouble, lanes,
         /*prune=*/true, &stats);
    EXPECT_GT(stats.tiles_skipped, 0u) << "lanes=" << lanes;
    EXPECT_LT(stats.tiles_skipped, stats.tiles_total);
  }
}

TEST(PrunedTopKProperty, AllTiedScoresKeepSmallestIds) {
  // Zeroed embeddings: every candidate scores exactly 0 at every tier,
  // every tile bound is 0, and the tie-break must hand back the smallest
  // non-excluded ids for every lane/batch/prune combination. Equality
  // must never skip a tile: with one heap shared across lanes and the
  // whole first tile excluded, lane 0 fills the heap from a later tile
  // and lane 1's tile 1 holds the smaller-id winners.
  auto model = MakeDistMult(kEntities, kRelations, 16, 7);
  model->entity_store().block()->Zero();
  for (const ScorePrecision precision : kPrecisions) {
    model->PrepareForPrunedScoring(precision);
    for (const size_t batch_size : kBatchSizes) {
      std::vector<Query> queries(batch_size);
      for (size_t q = 0; q < batch_size; ++q) {
        queries[q].anchor = EntityId(q % 4);
        if (q % 3 == 2) {
          for (EntityId e = 0; e < 500; ++e) queries[q].excluded.push_back(e);
        } else if (q % 2 == 1) {
          queries[q].excluded = {0, 2, 5};
        }
      }
      for (const int lanes : kLaneCounts) {
        for (int mode = 0; mode < 2 * int(std::size(kLaneRuns)); ++mode) {
          const bool prune = mode % 2 == 1;
          const LaneRun run = kLaneRuns[mode / 2];
          RankScanStats stats;
          const std::vector<Entries> got =
              Walk(*model, QuerySide::kTail, 1, queries, precision, lanes,
                   prune, &stats, run);
          for (size_t q = 0; q < batch_size; ++q) {
            ASSERT_EQ(got[q].size(), size_t(kTopK));
            EntityId expect_id = 0;
            for (const Heap::Entry& entry : got[q]) {
              while (std::binary_search(queries[q].excluded.begin(),
                                        queries[q].excluded.end(),
                                        expect_id)) {
                ++expect_id;
              }
              EXPECT_EQ(entry.entity, expect_id++)
                  << "lanes=" << lanes << " prune=" << prune
                  << " run=" << LaneRunName(run);
              EXPECT_EQ(entry.score, 0.0f);
            }
          }
        }
      }
    }
  }
}

TEST(PrunedTopKProperty, FewerSurvivorsThanKStaysExact) {
  // Exclusions leave only 3 candidates but k = 10: no lane heap ever
  // fills, so nothing may be skipped, and every combination must return
  // exactly those 3 survivors in score order.
  auto model = MakeDistMult(kEntities, kRelations, 16, 7);
  SkewEntityNorms(model.get());
  model->PrepareForPrunedScoring(ScorePrecision::kDouble);
  Query query;
  query.anchor = 5;
  for (EntityId e = 0; e < kEntities; ++e) {
    if (e != 17 && e != 901 && e != 1777) query.excluded.push_back(e);
  }
  const Entries expect = Exhaustive(*model, QuerySide::kTail, 2, query,
                                    ScorePrecision::kDouble);
  ASSERT_EQ(expect.size(), 3u);
  for (const int lanes : kLaneCounts) {
    for (const bool prune : {false, true}) {
      RankScanStats stats;
      const std::vector<Entries> got =
          Walk(*model, QuerySide::kTail, 2, {query}, ScorePrecision::kDouble,
               lanes, prune, &stats);
      EXPECT_EQ(stats.tiles_skipped, 0u);
      ExpectSameTopK(expect, got[0],
                     "survivors lanes=" + std::to_string(lanes) +
                         " prune=" + std::to_string(prune));
    }
  }
}

TEST(PrunedTopKProperty, MoreLanesThanTilesStaysExact) {
  // 50 entities fit one tile: lane 0 walks it, lanes 1..6 walk nothing,
  // and the merge must still be exact.
  auto model = MakeComplEx(50, kRelations, 8, 3);
  SkewEntityNorms(model.get());
  model->PrepareForPrunedScoring(ScorePrecision::kDouble);
  ASSERT_EQ(simd::PrunedTileCount(50, model->FoldWidth()), 1u);
  std::vector<Query> queries(3);
  for (size_t q = 0; q < queries.size(); ++q) {
    queries[q].anchor = EntityId(q * 7);
    queries[q].k = int(4 * q + 1);
  }
  for (const bool prune : {false, true}) {
    RankScanStats stats;
    const std::vector<Entries> got =
        Walk(*model, QuerySide::kHead, 3, queries, ScorePrecision::kDouble,
             7, prune, &stats);
    EXPECT_EQ(stats.tiles_total, queries.size());
    for (size_t q = 0; q < queries.size(); ++q) {
      ExpectSameTopK(Exhaustive(*model, QuerySide::kHead, 3, queries[q],
                                ScorePrecision::kDouble),
                     got[q], "prune=" + std::to_string(prune));
    }
  }
}

TEST(PrunedTopKProperty, PredictTailsInvariantAcrossOptions) {
  // End-to-end through the public API, including the filtered mode.
  auto model = MakeComplEx(kEntities, kRelations, 8, 11);
  SkewEntityNorms(model.get());
  std::vector<Triple> known;
  Rng rng(5);
  for (int i = 0; i < 500; ++i) {
    known.push_back({EntityId(rng.NextBounded(kEntities)),
                     EntityId(rng.NextBounded(kEntities)),
                     RelationId(rng.NextBounded(kRelations))});
  }
  FilterIndex filter;
  filter.Build(known, {}, {});
  TopKOptions reference;
  reference.k = kTopK;
  reference.exclude_known = &filter;
  const auto expect = PredictTails(*model, known[0].head, known[0].relation,
                                   reference);
  for (const int lanes : kLaneCounts) {
    for (const bool prune : {false, true}) {
      TopKOptions options = reference;
      options.num_shards = lanes;
      options.prune = prune;
      const auto got = PredictTails(*model, known[0].head,
                                    known[0].relation, options);
      ASSERT_EQ(expect.size(), got.size());
      for (size_t i = 0; i < expect.size(); ++i) {
        EXPECT_EQ(expect[i].entity, got[i].entity);
        EXPECT_EQ(expect[i].score, got[i].score);
      }
    }
  }
}

TEST(PrunedTopKProperty, EvaluatorMetricsInvariantToShardsAndPruning) {
  // The rank scans behind Evaluate share the same bound logic; filtered
  // MRR / Hits / MeanRank must be exactly invariant to both knobs.
  WordNetLikeOptions gen;
  gen.num_entities = 400;
  gen.seed = 21;
  const Dataset data = GenerateWordNetLike(gen);
  auto model = MakeDistMult(data.num_entities(), data.num_relations(), 16, 3);
  SkewEntityNorms(model.get());
  FilterIndex filter;
  filter.Build(data.train, data.valid, data.test);
  Evaluator evaluator(&filter, data.num_relations());
  EvalOptions base;
  base.max_triples = 80;
  const EvalResult expect = evaluator.Evaluate(*model, data.test, base);
  for (const int shards : kLaneCounts) {
    for (const bool prune : {false, true}) {
      EvalOptions options = base;
      options.num_shards = shards;
      options.prune = prune;
      const EvalResult got = evaluator.Evaluate(*model, data.test, options);
      EXPECT_EQ(expect.overall.Mrr(), got.overall.Mrr())
          << "shards=" << shards << " prune=" << prune;
      EXPECT_EQ(expect.overall.MeanRank(), got.overall.MeanRank());
      EXPECT_EQ(expect.overall.HitsAt(10), got.overall.HitsAt(10));
      EXPECT_EQ(expect.overall.count(), got.overall.count());
    }
  }
}

}  // namespace
}  // namespace kge
