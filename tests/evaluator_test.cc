#include "eval/evaluator.h"

#include <gtest/gtest.h>

#include <cmath>
#include <functional>

#include "eval/metrics.h"

namespace kge {
namespace {

// Deterministic stub model whose score is computed by a user-provided
// function; lets ranking tests construct exact score landscapes.
class FakeModel : public KgeModel {
 public:
  using ScoreFn = std::function<double(const Triple&)>;

  FakeModel(int32_t num_entities, int32_t num_relations, ScoreFn score)
      : name_("Fake"),
        num_entities_(num_entities),
        num_relations_(num_relations),
        score_(std::move(score)) {}

  const std::string& name() const override { return name_; }
  int32_t num_entities() const override { return num_entities_; }
  int32_t num_relations() const override { return num_relations_; }

  double Score(const Triple& triple) const override { return score_(triple); }

  void ScoreAll(QuerySide side, EntityId anchor, RelationId relation,
                std::span<float> out) const override {
    for (EntityId e = 0; e < num_entities_; ++e) {
      out[size_t(e)] = float(score_(QueryTriple(side, anchor, relation, e)));
    }
  }

  std::vector<ParameterBlock*> Blocks() override { return {}; }
  void AccumulateGradients(const Triple&, float, GradientBuffer*) override {}
  int32_t EntityVectorDim() const override { return 1; }
  void InitParameters(uint64_t) override {}

 private:
  std::string name_;
  int32_t num_entities_;
  int32_t num_relations_;
  ScoreFn score_;
};

TEST(RankingMetricsTest, BasicAccumulation) {
  RankingMetrics metrics;
  metrics.AddRank(1);
  metrics.AddRank(2);
  metrics.AddRank(10);
  metrics.AddRank(100);
  EXPECT_EQ(metrics.count(), 4u);
  EXPECT_NEAR(metrics.Mrr(), (1.0 + 0.5 + 0.1 + 0.01) / 4.0, 1e-12);
  EXPECT_NEAR(metrics.MeanRank(), 113.0 / 4.0, 1e-12);
  EXPECT_DOUBLE_EQ(metrics.HitsAt(1), 0.25);
  EXPECT_DOUBLE_EQ(metrics.HitsAt(3), 0.5);
  EXPECT_DOUBLE_EQ(metrics.HitsAt(10), 0.75);
}

TEST(RankingMetricsTest, EmptyMetricsAreZero) {
  RankingMetrics metrics;
  EXPECT_EQ(metrics.Mrr(), 0.0);
  EXPECT_EQ(metrics.HitsAt(10), 0.0);
  EXPECT_EQ(metrics.MeanRank(), 0.0);
}

TEST(RankingMetricsTest, MergeCombinesCounts) {
  RankingMetrics a, b;
  a.AddRank(1);
  b.AddRank(3);
  a.Merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_NEAR(a.Mrr(), (1.0 + 1.0 / 3.0) / 2.0, 1e-12);
}

TEST(RankingMetricsTest, FractionalTieRankCountsTowardHits) {
  RankingMetrics metrics;
  metrics.AddRank(2.5);
  EXPECT_DOUBLE_EQ(metrics.HitsAt(3), 1.0);
  EXPECT_DOUBLE_EQ(metrics.HitsAt(1), 0.0);
}

TEST(RankingMetricsTest, AdjustedMeanRankIndexPerfectAndRandom) {
  // Perfect ranker over 100-candidate queries: AMRI = 1.
  RankingMetrics perfect;
  perfect.AddRank(1, 100);
  perfect.AddRank(1, 100);
  EXPECT_NEAR(perfect.AdjustedMeanRankIndex(), 1.0, 1e-12);
  // Random ranker: mean rank equals (n+1)/2 => AMRI = 0.
  RankingMetrics random;
  random.AddRank(50.5, 100);
  EXPECT_NEAR(random.AdjustedMeanRankIndex(), 0.0, 1e-12);
  // Worst ranker: AMRI < 0.
  RankingMetrics worst;
  worst.AddRank(100, 100);
  EXPECT_LT(worst.AdjustedMeanRankIndex(), -0.9);
}

TEST(RankingMetricsTest, AmriZeroWithoutCandidateCounts) {
  RankingMetrics metrics;
  metrics.AddRank(1);
  EXPECT_EQ(metrics.AdjustedMeanRankIndex(), 0.0);
  // Mixed known/unknown counts also disable it.
  metrics.AddRank(1, 10);
  EXPECT_EQ(metrics.AdjustedMeanRankIndex(), 0.0);
}

TEST(RankingMetricsTest, AmriSurvivesMerge) {
  RankingMetrics a, b;
  a.AddRank(1, 10);
  b.AddRank(5.5, 10);
  a.Merge(b);
  // MR = 3.25, E[MR] = 5.5 => AMRI = 1 - 2.25/4.5 = 0.5.
  EXPECT_NEAR(a.AdjustedMeanRankIndex(), 0.5, 1e-12);
}

TEST(RankingMetricsTest, ToStringContainsAllMetrics) {
  RankingMetrics metrics;
  metrics.AddRank(1);
  const std::string s = metrics.ToString();
  EXPECT_NE(s.find("MRR"), std::string::npos);
  EXPECT_NE(s.find("H@10"), std::string::npos);
  EXPECT_NE(s.find("n=1"), std::string::npos);
}

class EvaluatorTest : public testing::Test {
 protected:
  static constexpr int32_t kEntities = 10;
  void SetUp() override {
    train_ = {{0, 1, 0}, {1, 2, 0}, {2, 3, 0}};
    valid_ = {{3, 4, 0}};
    test_ = {{0, 2, 0}};
    filter_.Build(train_, valid_, test_);
  }

  std::vector<Triple> train_, valid_, test_;
  FilterIndex filter_;
};

TEST_F(EvaluatorTest, PerfectModelGetsRankOne) {
  // Score = 1 iff the triple is a known fact, else 0.
  FilterIndex* filter = &filter_;
  FakeModel model(kEntities, 1, [filter](const Triple& t) {
    return filter->Contains(t) ? 1.0 : 0.0;
  });
  Evaluator evaluator(&filter_, 1);
  EvalOptions options;
  options.filtered = true;
  const RankingMetrics metrics =
      evaluator.EvaluateOverall(model, test_, options);
  EXPECT_EQ(metrics.count(), 2u);  // head + tail queries
  EXPECT_DOUBLE_EQ(metrics.Mrr(), 1.0);
  EXPECT_DOUBLE_EQ(metrics.HitsAt(1), 1.0);
}

TEST_F(EvaluatorTest, ConstantModelGetsTieAveragedRank) {
  FakeModel model(kEntities, 1, [](const Triple&) { return 0.0; });
  Evaluator evaluator(&filter_, 1);
  EvalOptions options;
  options.filtered = false;
  const RankingMetrics metrics =
      evaluator.EvaluateOverall(model, test_, options);
  // All 10 candidates tie; with the true entity excluded from ties, the
  // tie-averaged rank is 1 + 9/2 = 5.5 for both queries.
  EXPECT_NEAR(metrics.MeanRank(), 5.5, 1e-9);
  EXPECT_DOUBLE_EQ(metrics.HitsAt(1), 0.0);
}

TEST_F(EvaluatorTest, FilteringRemovesKnownCompetitors) {
  // Model ranks entity 1 above everything for tail queries of (0, ?, 0);
  // the true test tail is 2. Unfiltered rank = 2; filtered rank = 1
  // because (0, 1, 0) is a known train triple and gets filtered.
  FakeModel model(kEntities, 1, [](const Triple& t) {
    if (t.head == 0 && t.tail == 1) return 10.0;
    if (t.head == 0 && t.tail == 2) return 5.0;
    return double(-int(t.tail)) - double(10 * t.head);
  });
  Evaluator evaluator(&filter_, 1);

  std::vector<float> scores(kEntities);
  model.ScoreAll(QuerySide::kTail, 0, 0, scores);
  EXPECT_DOUBLE_EQ(evaluator.Rank(QuerySide::kTail, {0, 2, 0}, scores,
                                  /*filtered=*/false),
                   2.0);
  EXPECT_DOUBLE_EQ(evaluator.Rank(QuerySide::kTail, {0, 2, 0}, scores,
                                  /*filtered=*/true),
                   1.0);
}

TEST_F(EvaluatorTest, RankHeadMirrorsRankTail) {
  FakeModel model(kEntities, 1, [](const Triple& t) {
    if (t.tail == 2 && t.head == 1) return 10.0;  // known (1,2,0)
    if (t.tail == 2 && t.head == 0) return 5.0;   // true test head
    return -1.0;
  });
  Evaluator evaluator(&filter_, 1);
  std::vector<float> scores(kEntities);
  model.ScoreAll(QuerySide::kHead, 2, 0, scores);
  EXPECT_DOUBLE_EQ(
      evaluator.Rank(QuerySide::kHead, {0, 2, 0}, scores, false), 2.0);
  EXPECT_DOUBLE_EQ(evaluator.Rank(QuerySide::kHead, {0, 2, 0}, scores, true),
                   1.0);
}

TEST_F(EvaluatorTest, CandidateCountsReflectFiltering) {
  Evaluator evaluator(&filter_, 1);
  // Test triple (0, 2, 0): known tails of (0, ?, 0) are {1, 2}
  // (train (0,1,0) and test (0,2,0)); with 10 entities the candidates
  // are 10 - 2 + 1 = 9 filtered, 10 raw.
  EXPECT_EQ(
      evaluator.CountCandidates(QuerySide::kTail, {0, 2, 0}, kEntities, true),
      9u);
  EXPECT_EQ(
      evaluator.CountCandidates(QuerySide::kTail, {0, 2, 0}, kEntities, false),
      10u);
  // Head direction: known heads of (?, 2, 0) are {1, 0}.
  EXPECT_EQ(
      evaluator.CountCandidates(QuerySide::kHead, {0, 2, 0}, kEntities, true),
      9u);
}

TEST_F(EvaluatorTest, PerfectModelHasAmriOne) {
  FilterIndex* filter = &filter_;
  FakeModel model(kEntities, 1, [filter](const Triple& t) {
    return filter->Contains(t) ? 1.0 : 0.0;
  });
  Evaluator evaluator(&filter_, 1);
  const RankingMetrics metrics =
      evaluator.EvaluateOverall(model, test_, EvalOptions{});
  EXPECT_NEAR(metrics.AdjustedMeanRankIndex(), 1.0, 1e-9);
}

TEST_F(EvaluatorTest, ConstantModelHasAmriNearZero) {
  FakeModel model(kEntities, 1, [](const Triple&) { return 0.0; });
  Evaluator evaluator(&filter_, 1);
  const RankingMetrics metrics =
      evaluator.EvaluateOverall(model, test_, EvalOptions{});
  EXPECT_NEAR(metrics.AdjustedMeanRankIndex(), 0.0, 1e-9);
}

TEST_F(EvaluatorTest, PerRelationBreakdown) {
  std::vector<Triple> train = {{0, 1, 0}, {1, 2, 1}};
  std::vector<Triple> test = {{0, 1, 0}, {1, 2, 1}};
  FilterIndex filter;
  filter.Build(train, {}, test);
  FakeModel model(kEntities, 2, [&filter](const Triple& t) {
    return filter.Contains(t) ? 1.0 : 0.0;
  });
  Evaluator evaluator(&filter, 2);
  const EvalResult result = evaluator.Evaluate(model, test, EvalOptions{});
  ASSERT_EQ(result.per_relation.size(), 2u);
  EXPECT_EQ(result.per_relation[0].tail_queries.count(), 1u);
  EXPECT_EQ(result.per_relation[1].tail_queries.count(), 1u);
  EXPECT_EQ(result.overall.count(), 4u);
}

TEST_F(EvaluatorTest, MaxTriplesSubsamples) {
  std::vector<Triple> many;
  for (EntityId e = 0; e + 1 < kEntities; ++e) many.push_back({e, e + 1, 0});
  FakeModel model(kEntities, 1, [](const Triple&) { return 0.0; });
  Evaluator evaluator(&filter_, 1);
  EvalOptions options;
  options.max_triples = 3;
  const RankingMetrics metrics =
      evaluator.EvaluateOverall(model, many, options);
  EXPECT_EQ(metrics.count(), 6u);  // 3 triples x 2 directions
}

TEST_F(EvaluatorTest, MultithreadedMatchesSingleThreaded) {
  FakeModel model(kEntities, 1, [](const Triple& t) {
    return double((t.head * 7 + t.tail * 13 + t.relation) % 23);
  });
  Evaluator evaluator(&filter_, 1);
  std::vector<Triple> test;
  for (EntityId e = 0; e + 1 < kEntities; ++e) test.push_back({e, e + 1, 0});

  EvalOptions serial;
  serial.num_threads = 1;
  EvalOptions parallel;
  parallel.num_threads = 4;
  const RankingMetrics a = evaluator.EvaluateOverall(model, test, serial);
  const RankingMetrics b = evaluator.EvaluateOverall(model, test, parallel);
  EXPECT_DOUBLE_EQ(a.Mrr(), b.Mrr());
  EXPECT_DOUBLE_EQ(a.MeanRank(), b.MeanRank());
  EXPECT_EQ(a.count(), b.count());
}

TEST_F(EvaluatorTest, BruteForceRankAgreement) {
  // Cross-check RankTail against a naive recomputation.
  FakeModel model(kEntities, 1, [](const Triple& t) {
    return std::sin(double(t.head * 31 + t.tail * 17 + t.relation * 5));
  });
  Evaluator evaluator(&filter_, 1);
  for (const Triple& triple : train_) {
    std::vector<float> scores(kEntities);
    model.ScoreAll(QuerySide::kTail, triple.head, triple.relation, scores);
    const double rank = evaluator.Rank(QuerySide::kTail, triple, scores, true);

    double brute = 1.0;
    const float true_score = scores[size_t(triple.tail)];
    for (EntityId t = 0; t < kEntities; ++t) {
      if (t == triple.tail) continue;
      if (filter_.Contains({triple.head, t, triple.relation})) continue;
      if (scores[size_t(t)] > true_score) brute += 1.0;
      if (scores[size_t(t)] == true_score) brute += 0.5;
    }
    EXPECT_DOUBLE_EQ(rank, brute);
  }
}

}  // namespace
}  // namespace kge
