// Property sweep for the multi-query tile walk and its two sinks: for
// every trilinear model, scoring precision, lane count, batch size,
// prune setting and lane schedule, the walk's merged top-k lanes and its
// summed rank counts must equal a simd::ref oracle EXACTLY — same
// entities, same float bits, same tie-breaks, same (better, equal)
// counts. Pruning is a work optimization (skipped tiles), never an
// answer approximation, and striding tiles across lanes — or letting
// concurrent lanes claim each other's tiles — is a partition of the
// candidates whose merge is total-order deterministic. The sweep
// runs on norm-skewed models (where tiles actually get skipped), on a
// table whose norms grow with id (each lane's heap fills from its
// weakest tiles first, with no primed floor to help), and on edge
// cases: per-query k and exclusions, truths inside and outside their
// own exclusions, duplicate anchors in one batch, all-tied scores,
// fewer survivors than k, and more lanes than tiles. Evaluate, which
// ranks through the rank sink, is checked against Evaluator::Rank on
// the oracle's rows.
//
// Also runs under ASan/UBSan and TSan in CI (tests are built per
// sanitizer), which checks the PrepareForPrunedScoring -> concurrent
// walk handoff and the lanes' concurrent tile claims.
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
  EntityId truth = 0;              // the rank sink's true entity
  std::vector<EntityId> excluded;  // sorted ascending
};

// The oracle's score of every candidate of (anchor, relation) on `side`
// at `precision`: the model's fold, then the simd::ref kernel that
// defines the tier, over the whole entity table (the int8 tier over a
// table quantized here, by the same shared quantizer the replica uses).
std::vector<float> OracleScores(const MultiEmbeddingModel& model,
                                QuerySide side, RelationId relation,
                                EntityId anchor, ScorePrecision precision) {
  const size_t width = model.FoldWidth();
  const size_t rows = size_t(model.num_entities());
  std::vector<float> fold(width);
  model.FoldQueries(side, relation, std::span<const EntityId>(&anchor, 1),
                    fold);
  const float* table = model.entity_store().block().Flat().data();
  std::vector<float> scores(rows);
  switch (precision) {
    case ScorePrecision::kDouble:
      simd::ref::DotBatchMulti(fold.data(), 1, table, rows, width,
                               scores.data());
      break;
    case ScorePrecision::kFloat32:
      simd::ref::DotBatchMultiF32(fold.data(), 1, table, rows, width,
                                  scores.data());
      break;
    case ScorePrecision::kInt8: {
      std::vector<std::int8_t> codes(rows * width);
      std::vector<float> scales(rows);
      simd::QuantizeRowsI8(table, rows, width, codes.data(), scales.data());
      simd::ref::DotBatchMultiI8(fold.data(), 1, codes.data(), scales.data(),
                                 rows, width, scores.data());
      break;
    }
  }
  return scores;
}

// The oracle top-k: one heap pass over the oracle's scores.
Entries Exhaustive(const MultiEmbeddingModel& model, QuerySide side,
                   RelationId relation, const Query& query,
                   ScorePrecision precision) {
  const std::vector<float> scores =
      OracleScores(model, side, relation, query.anchor, precision);
  Heap heap(query.k);
  heap.PushScoresExcluding(scores, query.excluded);
  const auto sorted = heap.TakeSorted();
  return Entries(sorted.begin(), sorted.end());
}

// The oracle rank counts: every candidate but the truth and the
// excluded ids, against the truth's oracle score.
RankCounts ExhaustiveCounts(const MultiEmbeddingModel& model, QuerySide side,
                            RelationId relation, const Query& query,
                            ScorePrecision precision) {
  const std::vector<float> scores =
      OracleScores(model, side, relation, query.anchor, precision);
  const float threshold = scores[size_t(query.truth)];
  RankCounts counts;
  for (size_t e = 0; e < scores.size(); ++e) {
    if (EntityId(e) == query.truth ||
        std::binary_search(query.excluded.begin(), query.excluded.end(),
                           EntityId(e))) {
      continue;
    }
    if (scores[e] > threshold) {
      ++counts.better;
    } else if (scores[e] == threshold) {
      ++counts.equal;
    }
  }
  return counts;
}

// How the lanes of a walk run.
enum class LaneRun {
  // One after another, each into its own sinks.
  kMerged,
  // One after another into the same sinks, as PredictTails does.
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

// What a walk returns once its lanes are merged: the top-k entries per
// query (top-k sink) or the summed counts per query (rank sink).
struct WalkResult {
  std::vector<Entries> topk;
  std::vector<RankCounts> counts;
};

// The walk as MicroBatcher (top-k) and Evaluate (rank) run it: fold the
// batch once, walk every lane into its own sinks (heaps armed with each
// query's k), then merge each query's lane heaps in lane order, or sum
// its lane counts. `run` picks the lane schedule.
WalkResult Walk(const KgeModel& model, QuerySide side, RelationId relation,
                const std::vector<Query>& queries, ScorePrecision precision,
                int lanes, bool prune, bool rank, RankScanStats* stats,
                LaneRun run = LaneRun::kMerged) {
  const size_t batch_size = queries.size();
  std::vector<EntityId> anchors;
  std::vector<EntityId> truths;
  std::vector<std::span<const EntityId>> excluded;
  for (const Query& q : queries) {
    anchors.push_back(q.anchor);
    truths.push_back(q.truth);
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
  if (rank) batch.truths = truths;
  batch.precision = precision;
  batch.prune = prune;
  const size_t num_lanes = size_t(lanes);
  std::vector<TopKLaneClaim> claims(num_lanes);
  if (run == LaneRun::kClaimedReversed || run == LaneRun::kClaimedThreads) {
    batch.lane_claims = claims;
  }
  const bool shared = run == LaneRun::kShared;
  std::vector<Heap> lane_heaps(rank ? 0 : num_lanes * batch_size);
  for (size_t h = 0; h < lane_heaps.size(); ++h) {
    lane_heaps[h].ResetCapacity(queries[h % batch_size].k);
  }
  std::vector<RankCounts> lane_counts(rank ? num_lanes * batch_size : 0);
  std::vector<TopKWalkScratch> scratch(num_lanes);
  std::vector<RankScanStats> lane_stats(num_lanes);
  const auto walk_lane = [&](int lane) {
    const size_t first = shared ? 0 : size_t(lane) * batch_size;
    model.TopKWalk(
        batch, lane, lanes,
        rank ? std::span<Heap>()
             : std::span<Heap>(lane_heaps.data() + first, batch_size),
        rank ? std::span<RankCounts>(lane_counts.data() + first, batch_size)
             : std::span<RankCounts>(),
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
  WalkResult result;
  const int merged_lanes = shared ? 1 : lanes;
  for (size_t q = 0; q < batch_size; ++q) {
    if (rank) {
      RankCounts sum;
      for (int lane = 0; lane < merged_lanes; ++lane) {
        sum.better += lane_counts[size_t(lane) * batch_size + q].better;
        sum.equal += lane_counts[size_t(lane) * batch_size + q].equal;
      }
      result.counts.push_back(sum);
      continue;
    }
    Heap heap(queries[q].k);
    for (int lane = 0; lane < merged_lanes; ++lane) {
      heap.MergeFrom(lane_heaps[size_t(lane) * batch_size + q]);
    }
    const auto sorted = heap.TakeSorted();
    result.topk.emplace_back(sorted.begin(), sorted.end());
  }
  return result;
}

void ExpectSameCounts(const RankCounts& expect, const RankCounts& got,
                      const std::string& label) {
  EXPECT_EQ(expect.better, got.better) << label;
  EXPECT_EQ(expect.equal, got.equal) << label;
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
// own best candidates), truths inside and outside their own exclusions,
// and duplicate anchors with different truths.
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
    query.truth = EntityId(rng->NextBounded(kEntities));
    if (q % 2 == 1) {
      for (int i = 0; i < 40; ++i) {
        query.excluded.push_back(EntityId(rng->NextBounded(kEntities)));
      }
      // Low ids hold the largest norms of the decaying tables.
      for (EntityId e = 0; e < 8; ++e) query.excluded.push_back(e);
      // Every other excluding query excludes its own truth.
      if (q % 4 == 1) query.excluded.push_back(query.truth);
      std::sort(query.excluded.begin(), query.excluded.end());
      query.excluded.erase(
          std::unique(query.excluded.begin(), query.excluded.end()),
          query.excluded.end());
    }
  }
  return queries;
}

// Every lane count × batch size × prune setting × lane schedule against
// the oracle, both sides, both sinks, every tier the model supports.
void SweepMatchesExhaustive(std::vector<NamedModel> models, uint64_t seed) {
  Rng rng(seed);
  for (NamedModel& nm : models) {
    const MultiEmbeddingModel& model = *nm.model;
    const size_t tiles = simd::PrunedTileCount(kEntities, model.FoldWidth());
    for (const ScorePrecision precision : kPrecisions) {
      if (!model.SupportsScorePrecision(precision)) continue;
      model.PrepareForPrunedScoring(precision);
      for (const size_t batch_size : kBatchSizes) {
        const QuerySide side =
            batch_size == 3 ? QuerySide::kHead : QuerySide::kTail;
        const RelationId relation = RelationId(rng.NextBounded(kRelations));
        const std::vector<Query> queries = MakeBatch(batch_size, &rng);
        std::vector<Entries> expect;
        std::vector<RankCounts> expect_counts;
        for (const Query& q : queries) {
          expect.push_back(Exhaustive(model, side, relation, q, precision));
          expect_counts.push_back(
              ExhaustiveCounts(model, side, relation, q, precision));
        }
        for (const int lanes : kLaneCounts) {
          // Prune off/on × every lane schedule.
          for (int mode = 0; mode < 2 * int(std::size(kLaneRuns)); ++mode) {
            const bool prune = mode % 2 == 1;
            const LaneRun run = kLaneRuns[mode / 2];
            const std::string label =
                nm.name + " precision=" +
                std::string(ScorePrecisionName(precision)) +
                " batch=" + std::to_string(batch_size) +
                " lanes=" + std::to_string(lanes) +
                " prune=" + std::to_string(prune) + " run=" +
                LaneRunName(run);
            RankScanStats stats;
            const std::vector<Entries> got =
                Walk(model, side, relation, queries, precision, lanes, prune,
                     /*rank=*/false, &stats, run)
                    .topk;
            // Every tile is walked exactly once, whichever lane claims it.
            EXPECT_EQ(stats.tiles_total, tiles * batch_size);
            RankScanStats rank_stats;
            const std::vector<RankCounts> got_counts =
                Walk(model, side, relation, queries, precision, lanes, prune,
                     /*rank=*/true, &rank_stats, run)
                    .counts;
            EXPECT_EQ(rank_stats.tiles_total, tiles * batch_size);
            for (size_t q = 0; q < batch_size; ++q) {
              ExpectSameTopK(expect[q], got[q],
                             label + " query=" + std::to_string(q));
              ExpectSameCounts(expect_counts[q], got_counts[q],
                               label + " rank query=" + std::to_string(q));
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
  // skip a nonzero fraction of (query, tile) pairs at every lane count,
  // in both sinks — each top-k lane prunes against its own heap minimum,
  // with no shared floor, and each rank query against its truth's score
  // (here its best candidate, as for a converged model). Ten times the
  // sweep's vocabulary gives every lane several tiles.
  auto model = MakeDistMult(10 * kEntities, kRelations, 16, 7);
  SkewEntityNorms(model.get());
  model->PrepareForPrunedScoring(ScorePrecision::kDouble);
  Rng rng(99);
  std::vector<Query> queries(12);
  for (Query& q : queries) {
    q.anchor = EntityId(rng.NextBounded(uint64_t(10 * kEntities)));
    Query best = q;
    best.k = 1;
    q.truth = Exhaustive(*model, QuerySide::kTail, 1, best,
                         ScorePrecision::kDouble)[0]
                  .entity;
  }
  for (const int lanes : kLaneCounts) {
    for (const bool rank : {false, true}) {
      RankScanStats stats;
      Walk(*model, QuerySide::kTail, 1, queries, ScorePrecision::kDouble,
           lanes, /*prune=*/true, rank, &stats);
      EXPECT_GT(stats.tiles_skipped, 0u) << "lanes=" << lanes
                                         << " rank=" << rank;
      EXPECT_LT(stats.tiles_skipped, stats.tiles_total);
    }
  }
}

TEST(PrunedTopKProperty, AllTiedScoresKeepSmallestIds) {
  // Zeroed embeddings: every candidate scores exactly 0 at every tier,
  // every tile bound is 0, and the tie-break must hand back the smallest
  // non-excluded ids for every lane/batch/prune combination. Equality
  // must never skip a tile: with one heap shared across lanes and the
  // whole first tile excluded, lane 0 fills the heap from a later tile
  // and lane 1's tile 1 holds the smaller-id winners. The rank sink
  // counts every other candidate as equal to the truth (which is inside
  // its own exclusions for some queries) and, the bound being equal to
  // the truth's score, skips no tile.
  auto model = MakeDistMult(kEntities, kRelations, 16, 7);
  model->entity_store().block()->Zero();
  for (const ScorePrecision precision : kPrecisions) {
    model->PrepareForPrunedScoring(precision);
    for (const size_t batch_size : kBatchSizes) {
      std::vector<Query> queries(batch_size);
      for (size_t q = 0; q < batch_size; ++q) {
        queries[q].anchor = EntityId(q % 4);
        queries[q].truth = EntityId(3 * q);
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
                   prune, /*rank=*/false, &stats, run)
                  .topk;
          RankScanStats rank_stats;
          const std::vector<RankCounts> counts =
              Walk(*model, QuerySide::kTail, 1, queries, precision, lanes,
                   prune, /*rank=*/true, &rank_stats, run)
                  .counts;
          EXPECT_EQ(rank_stats.tiles_skipped, 0u);
          for (size_t q = 0; q < batch_size; ++q) {
            const std::vector<EntityId>& excluded = queries[q].excluded;
            const bool truth_excluded = std::binary_search(
                excluded.begin(), excluded.end(), queries[q].truth);
            const uint64_t others = uint64_t(kEntities) - excluded.size() -
                                    (truth_excluded ? 0 : 1);
            ExpectSameCounts(RankCounts{0, others}, counts[q],
                             "tied lanes=" + std::to_string(lanes) +
                                 " prune=" + std::to_string(prune) +
                                 " run=" + LaneRunName(run));
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
               lanes, prune, /*rank=*/false, &stats)
              .topk;
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
             7, prune, /*rank=*/false, &stats)
            .topk;
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

// A WordNet-like KG and a skewed DistMult over it, for the Evaluate
// sweeps below.
struct EvalFixture {
  Dataset data;
  std::unique_ptr<MultiEmbeddingModel> model;
  FilterIndex filter;
};

EvalFixture MakeEvalFixture() {
  WordNetLikeOptions gen;
  gen.num_entities = 400;
  gen.seed = 21;
  EvalFixture f;
  f.data = GenerateWordNetLike(gen);
  f.model = MakeDistMult(f.data.num_entities(), f.data.num_relations(), 16, 3);
  SkewEntityNorms(f.model.get());
  f.filter.Build(f.data.train, f.data.valid, f.data.test);
  return f;
}

void ExpectSameMetrics(const RankingMetrics& expect, const RankingMetrics& got,
                       const std::string& label) {
  EXPECT_EQ(expect.count(), got.count()) << label;
  EXPECT_EQ(expect.Mrr(), got.Mrr()) << label;
  EXPECT_EQ(expect.MeanRank(), got.MeanRank()) << label;
  EXPECT_EQ(expect.HitsAt(1), got.HitsAt(1)) << label;
  EXPECT_EQ(expect.HitsAt(3), got.HitsAt(3)) << label;
  EXPECT_EQ(expect.HitsAt(10), got.HitsAt(10)) << label;
  EXPECT_EQ(expect.AdjustedMeanRankIndex(), got.AdjustedMeanRankIndex())
      << label;
}

TEST(PrunedTopKProperty, EvaluatorMatchesReferenceRanksEverywhere) {
  // Evaluate ranks through the walk's rank sink; every triple's rank must
  // be Evaluator::Rank on the oracle's score rows, on both sides, and the
  // metrics overall and per relation exactly the reference accumulation,
  // at every batch size, prune setting, thread count and tier.
  const EvalFixture f = MakeEvalFixture();
  const std::vector<Triple>& triples = f.data.test;
  Evaluator evaluator(&f.filter, f.data.num_relations());
  const int32_t num_entities = f.data.num_entities();
  for (const ScorePrecision precision : kPrecisions) {
    f.model->PrepareForScoring(precision);
    EvalResult expect;
    expect.per_relation.resize(size_t(f.data.num_relations()));
    for (const Triple& t : triples) {
      const double tail_rank = evaluator.Rank(
          QuerySide::kTail, t,
          OracleScores(*f.model, QuerySide::kTail, t.relation, t.head,
                       precision),
          /*filtered=*/true);
      const double head_rank = evaluator.Rank(
          QuerySide::kHead, t,
          OracleScores(*f.model, QuerySide::kHead, t.relation, t.tail,
                       precision),
          /*filtered=*/true);
      const size_t tail_cands =
          evaluator.CountCandidates(QuerySide::kTail, t, num_entities, true);
      const size_t head_cands =
          evaluator.CountCandidates(QuerySide::kHead, t, num_entities, true);
      expect.tail_ranks.push_back(tail_rank);
      expect.head_ranks.push_back(head_rank);
      expect.overall.AddRank(tail_rank, tail_cands);
      expect.overall.AddRank(head_rank, head_cands);
      PerRelationMetrics& rel = expect.per_relation[size_t(t.relation)];
      rel.tail_queries.AddRank(tail_rank, tail_cands);
      rel.head_queries.AddRank(head_rank, head_cands);
    }
    for (const int batch_queries : {1, 3, 0}) {
      for (const bool prune : {false, true}) {
        for (const int threads : {1, 4}) {
          EvalOptions options;
          options.batch_queries = batch_queries;
          options.prune = prune;
          options.num_threads = threads;
          options.score_precision = precision;
          const std::string label =
              std::string(ScorePrecisionName(precision)) +
              " batch=" + std::to_string(batch_queries) +
              " prune=" + std::to_string(prune) +
              " threads=" + std::to_string(threads);
          const EvalResult got = evaluator.Evaluate(*f.model, triples, options);
          EXPECT_EQ(expect.tail_ranks, got.tail_ranks) << label;
          EXPECT_EQ(expect.head_ranks, got.head_ranks) << label;
          ExpectSameMetrics(expect.overall, got.overall, label);
          ASSERT_EQ(expect.per_relation.size(), got.per_relation.size());
          for (size_t r = 0; r < expect.per_relation.size(); ++r) {
            ExpectSameMetrics(expect.per_relation[r].tail_queries,
                              got.per_relation[r].tail_queries,
                              label + " tail relation=" + std::to_string(r));
            ExpectSameMetrics(expect.per_relation[r].head_queries,
                              got.per_relation[r].head_queries,
                              label + " head relation=" + std::to_string(r));
          }
        }
      }
    }
  }
}

TEST(PrunedTopKProperty, EvalResultRanksReproduceMetricsAtEveryTier) {
  // The per-triple ranks an EvalResult carries (what kge_eval
  // --dump-ranks writes) are the ranks behind its metrics: accumulated
  // in evaluation order, they give back `overall` exactly — at every
  // tier, on a stride subsample of the training split, filtered and raw.
  const EvalFixture f = MakeEvalFixture();
  Evaluator evaluator(&f.filter, f.data.num_relations());
  const std::vector<Triple>& triples = f.data.train;
  for (const ScorePrecision precision : kPrecisions) {
    for (const bool filtered : {true, false}) {
      EvalOptions options;
      options.max_triples = 90;
      options.filtered = filtered;
      options.score_precision = precision;
      const EvalResult result = evaluator.Evaluate(*f.model, triples,
                                                   options);
      ASSERT_EQ(result.tail_ranks.size(), 90u);
      ASSERT_EQ(result.head_ranks.size(), 90u);
      const size_t stride = triples.size() / options.max_triples;
      ASSERT_GT(stride, 1u);
      RankingMetrics replay;
      for (size_t i = 0; i < result.tail_ranks.size(); ++i) {
        const Triple& t = triples[i * stride];
        replay.AddRank(result.tail_ranks[i],
                       evaluator.CountCandidates(QuerySide::kTail, t,
                                                 f.data.num_entities(),
                                                 filtered));
        replay.AddRank(result.head_ranks[i],
                       evaluator.CountCandidates(QuerySide::kHead, t,
                                                 f.data.num_entities(),
                                                 filtered));
      }
      ExpectSameMetrics(result.overall, replay,
                        std::string(ScorePrecisionName(precision)) +
                            (filtered ? " filtered" : " raw"));
    }
  }
}

}  // namespace
}  // namespace kge
