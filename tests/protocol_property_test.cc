// Property tests on the evaluation protocol: invariants that must hold
// for ANY score function (random models included), exercised over seeded
// random score landscapes.
#include <gtest/gtest.h>

#include <cmath>

#include "eval/evaluator.h"
#include "util/random.h"

namespace kge {
namespace {

// Random score model over a fixed entity count.
class RandomScoreModel : public KgeModel {
 public:
  RandomScoreModel(int32_t num_entities, uint64_t seed)
      : name_("Random"), num_entities_(num_entities), seed_(seed) {}

  const std::string& name() const override { return name_; }
  int32_t num_entities() const override { return num_entities_; }
  int32_t num_relations() const override { return 4; }

  double Score(const Triple& t) const override {
    // Deterministic pseudo-random score per triple.
    uint64_t x = seed_ ^ (uint64_t(uint32_t(t.head)) << 40) ^
                 (uint64_t(uint32_t(t.tail)) << 16) ^ uint32_t(t.relation);
    return double(SplitMix64Next(&x) >> 11) * 0x1.0p-53;
  }
  void ScoreAll(QuerySide side, EntityId anchor, RelationId relation,
                std::span<float> out) const override {
    for (EntityId e = 0; e < num_entities_; ++e) {
      out[size_t(e)] = float(Score(QueryTriple(side, anchor, relation, e)));
    }
  }
  std::vector<ParameterBlock*> Blocks() override { return {}; }
  void AccumulateGradients(const Triple&, float, GradientBuffer*) override {}
  int32_t EntityVectorDim() const override { return 1; }
  void InitParameters(uint64_t) override {}

 private:
  std::string name_;
  int32_t num_entities_;
  uint64_t seed_;
};

class ProtocolPropertyTest : public testing::TestWithParam<uint64_t> {
 protected:
  static constexpr int32_t kEntities = 40;

  void SetUp() override {
    Rng rng(GetParam());
    for (int i = 0; i < 120; ++i) {
      triples_.push_back({EntityId(rng.NextBounded(kEntities)),
                          EntityId(rng.NextBounded(kEntities)),
                          RelationId(rng.NextBounded(4))});
    }
    // Split: first 80 "train", next 20 "valid", last 20 "test".
    train_.assign(triples_.begin(), triples_.begin() + 80);
    valid_.assign(triples_.begin() + 80, triples_.begin() + 100);
    test_.assign(triples_.begin() + 100, triples_.end());
    filter_.Build(train_, valid_, test_);
  }

  std::vector<Triple> triples_, train_, valid_, test_;
  FilterIndex filter_;
};

TEST_P(ProtocolPropertyTest, FilteredRankNeverWorseThanRaw) {
  RandomScoreModel model(kEntities, GetParam() * 31 + 7);
  Evaluator evaluator(&filter_, 4);
  std::vector<float> scores(kEntities);
  for (const Triple& triple : test_) {
    model.ScoreAll(QuerySide::kTail, triple.head, triple.relation, scores);
    EXPECT_LE(evaluator.Rank(QuerySide::kTail, triple, scores, true),
              evaluator.Rank(QuerySide::kTail, triple, scores, false));
    model.ScoreAll(QuerySide::kHead, triple.tail, triple.relation, scores);
    EXPECT_LE(evaluator.Rank(QuerySide::kHead, triple, scores, true),
              evaluator.Rank(QuerySide::kHead, triple, scores, false));
  }
}

TEST_P(ProtocolPropertyTest, RanksAreWithinBounds) {
  RandomScoreModel model(kEntities, GetParam() * 17 + 3);
  Evaluator evaluator(&filter_, 4);
  std::vector<float> scores(kEntities);
  for (const Triple& triple : test_) {
    model.ScoreAll(QuerySide::kTail, triple.head, triple.relation, scores);
    const double rank = evaluator.Rank(QuerySide::kTail, triple, scores, true);
    EXPECT_GE(rank, 1.0);
    EXPECT_LE(rank, double(kEntities));
  }
}

TEST_P(ProtocolPropertyTest, MetricsSatisfyOrderingInvariants) {
  RandomScoreModel model(kEntities, GetParam() * 13 + 1);
  Evaluator evaluator(&filter_, 4);
  const RankingMetrics metrics =
      evaluator.EvaluateOverall(model, test_, EvalOptions{});
  EXPECT_GE(metrics.Mrr(), 0.0);
  EXPECT_LE(metrics.Mrr(), 1.0);
  // Hits monotone in k; MRR dominates H@1.
  EXPECT_LE(metrics.HitsAt(1), metrics.HitsAt(3));
  EXPECT_LE(metrics.HitsAt(3), metrics.HitsAt(10));
  EXPECT_GE(metrics.Mrr() + 1e-12, metrics.HitsAt(1));
  // 2 queries per triple.
  EXPECT_EQ(metrics.count(), 2 * test_.size());
  EXPECT_GE(metrics.MeanRank(), 1.0);
}

TEST_P(ProtocolPropertyTest, EvaluationIsDeterministic) {
  RandomScoreModel model(kEntities, GetParam());
  Evaluator evaluator(&filter_, 4);
  const RankingMetrics a =
      evaluator.EvaluateOverall(model, test_, EvalOptions{});
  const RankingMetrics b =
      evaluator.EvaluateOverall(model, test_, EvalOptions{});
  EXPECT_EQ(a.Mrr(), b.Mrr());
  EXPECT_EQ(a.MeanRank(), b.MeanRank());
}

TEST_P(ProtocolPropertyTest, MonotoneScoreTransformPreservesRanks) {
  // Ranks depend only on score ordering: applying a strictly increasing
  // transform (2s + 1) must not change any rank.
  RandomScoreModel model(kEntities, GetParam() * 71 + 11);
  Evaluator evaluator(&filter_, 4);
  std::vector<float> scores(kEntities);
  std::vector<float> transformed(kEntities);
  for (const Triple& triple : test_) {
    model.ScoreAll(QuerySide::kTail, triple.head, triple.relation, scores);
    for (int32_t e = 0; e < kEntities; ++e) {
      transformed[size_t(e)] = 2.0f * scores[size_t(e)] + 1.0f;
    }
    EXPECT_EQ(evaluator.Rank(QuerySide::kTail, triple, scores, true),
              evaluator.Rank(QuerySide::kTail, triple, transformed, true));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ProtocolPropertyTest,
                         testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace kge
