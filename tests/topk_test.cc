#include "eval/topk.h"

#include <gtest/gtest.h>

#include "models/trilinear_models.h"

namespace kge {
namespace {

constexpr int32_t kEntities = 20;
constexpr int32_t kRelations = 2;

// Model whose tail score for (h, ?, r) is simply -(tail id), making
// rankings predictable: entity 0 best, 1 next, etc.
class DescendingModel : public KgeModel {
 public:
  DescendingModel() : name_("Desc") {}
  const std::string& name() const override { return name_; }
  int32_t num_entities() const override { return kEntities; }
  int32_t num_relations() const override { return kRelations; }
  double Score(const Triple& t) const override { return -double(t.tail); }
  // Tails score through Score; every head h scores −h, so heads rank by
  // id too.
  void ScoreAll(QuerySide side, EntityId anchor, RelationId relation,
                std::span<float> out) const override {
    for (EntityId e = 0; e < kEntities; ++e) {
      out[size_t(e)] =
          side == QuerySide::kTail
              ? float(Score(QueryTriple(side, anchor, relation, e)))
              : float(-e);
    }
  }
  std::vector<ParameterBlock*> Blocks() override { return {}; }
  void AccumulateGradients(const Triple&, float, GradientBuffer*) override {}
  int32_t EntityVectorDim() const override { return 1; }
  void InitParameters(uint64_t) override {}

 private:
  std::string name_;
};

// Model with grouped ties: tails 0..3 share the best score, 4..7 the
// next, and so on — exercises id tie-breaking inside each tied group.
class GroupedTieModel : public DescendingModel {
 public:
  double Score(const Triple& t) const override {
    return -double(t.tail / 4);
  }
};

TEST(TopKTest, ReturnsBestFirstWithoutFilter) {
  DescendingModel model;
  TopKOptions options;
  options.k = 3;
  const auto top = PredictTails(model, 0, 0, options);
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(top[0].entity, 0);
  EXPECT_EQ(top[1].entity, 1);
  EXPECT_EQ(top[2].entity, 2);
  EXPECT_GT(top[0].score, top[1].score);
}

TEST(TopKTest, ExcludesKnownTriples) {
  DescendingModel model;
  FilterIndex filter;
  const std::vector<Triple> known = {{0, 0, 0}, {0, 2, 0}};
  filter.Build(known, {}, {});
  TopKOptions options;
  options.k = 3;
  options.exclude_known = &filter;
  const auto top = PredictTails(model, 0, 0, options);
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(top[0].entity, 1);
  EXPECT_EQ(top[1].entity, 3);
  EXPECT_EQ(top[2].entity, 4);
}

TEST(TopKTest, FilterOnlyAppliesToMatchingQuery) {
  DescendingModel model;
  FilterIndex filter;
  const std::vector<Triple> known = {{1, 0, 0}};  // different head
  filter.Build(known, {}, {});
  TopKOptions options;
  options.k = 1;
  options.exclude_known = &filter;
  const auto top = PredictTails(model, 0, 0, options);
  ASSERT_EQ(top.size(), 1u);
  EXPECT_EQ(top[0].entity, 0);
}

TEST(TopKTest, KLargerThanVocabularyIsClamped) {
  DescendingModel model;
  TopKOptions options;
  options.k = 1000;
  const auto top = PredictTails(model, 0, 0, options);
  EXPECT_EQ(top.size(), size_t(kEntities));
}

TEST(TopKTest, KZeroGivesEmpty) {
  DescendingModel model;
  TopKOptions options;
  options.k = 0;
  EXPECT_TRUE(PredictTails(model, 0, 0, options).empty());
}

TEST(TopKTest, NegativeKGivesEmpty) {
  DescendingModel model;
  TopKOptions options;
  options.k = -5;
  EXPECT_TRUE(PredictTails(model, 0, 0, options).empty());
}

TEST(TopKTest, KOneReturnsSingleBest) {
  DescendingModel model;
  TopKOptions options;
  options.k = 1;
  const auto top = PredictTails(model, 0, 0, options);
  ASSERT_EQ(top.size(), 1u);
  EXPECT_EQ(top[0].entity, 0);
  EXPECT_FLOAT_EQ(top[0].score, 0.0f);
}

TEST(TopKTest, ExclusionRemovingEveryCandidateGivesEmpty) {
  DescendingModel model;
  FilterIndex filter;
  std::vector<Triple> known;
  for (EntityId t = 0; t < kEntities; ++t) known.push_back({0, t, 0});
  filter.Build(known, {}, {});
  TopKOptions options;
  options.k = 5;
  options.exclude_known = &filter;
  EXPECT_TRUE(PredictTails(model, 0, 0, options).empty());
}

TEST(TopKTest, KLargerThanSurvivingCandidatesIsClamped) {
  DescendingModel model;
  FilterIndex filter;
  // Exclude all but tails 7 and 13 for query (0, ?, 0).
  std::vector<Triple> known;
  for (EntityId t = 0; t < kEntities; ++t) {
    if (t != 7 && t != 13) known.push_back({0, t, 0});
  }
  filter.Build(known, {}, {});
  TopKOptions options;
  options.k = 1000;
  options.exclude_known = &filter;
  const auto top = PredictTails(model, 0, 0, options);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].entity, 7);
  EXPECT_EQ(top[1].entity, 13);
}

TEST(TopKTest, TieBreakSurvivesExclusion) {
  // All scores equal; excluding entity 1 must shift the id-ordered
  // result, not disturb it.
  auto model = MakeDistMult(kEntities, kRelations, 4, 1);
  model->entity_store().block()->Zero();
  FilterIndex filter;
  filter.Build({{0, 1, 0}}, {}, {});
  TopKOptions options;
  options.k = 4;
  options.exclude_known = &filter;
  const auto top = PredictTails(*model, 0, 0, options);
  ASSERT_EQ(top.size(), 4u);
  EXPECT_EQ(top[0].entity, 0);
  EXPECT_EQ(top[1].entity, 2);
  EXPECT_EQ(top[2].entity, 3);
  EXPECT_EQ(top[3].entity, 4);
}

TEST(TopKTest, GroupedTiesBreakByIdWithinEachGroup) {
  GroupedTieModel model;
  TopKOptions options;
  options.k = 6;  // first tied group of 4, then two from the next group
  const auto top = PredictTails(model, 0, 0, options);
  ASSERT_EQ(top.size(), 6u);
  for (int i = 0; i < 6; ++i) EXPECT_EQ(top[size_t(i)].entity, i);
  EXPECT_FLOAT_EQ(top[3].score, 0.0f);
  EXPECT_FLOAT_EQ(top[4].score, -1.0f);
}

TEST(TopKTest, TieBreaksByEntityId) {
  // Real model with tied scores: constant zero scores.
  auto model = MakeDistMult(kEntities, kRelations, 4, 1);
  // Zero all embeddings => all scores zero.
  model->entity_store().block()->Zero();
  TopKOptions options;
  options.k = 4;
  const auto top = PredictTails(*model, 0, 0, options);
  ASSERT_EQ(top.size(), 4u);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(top[size_t(i)].entity, i);
}

TEST(TopKTest, PredictHeadsUsesHeadScores) {
  DescendingModel model;
  TopKOptions options;
  options.k = 2;
  const auto top = PredictHeads(model, 5, 0, options);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].entity, 0);
  EXPECT_EQ(top[1].entity, 1);
}

TEST(TopKTest, OutOfRangeAnchorOrRelationIsChecked) {
  DescendingModel model;
  TopKOptions options;
  options.k = 3;
  for (const EntityId anchor : {EntityId(-1), EntityId(kEntities)}) {
    EXPECT_DEATH(PredictTails(model, anchor, 0, options), "KGE_CHECK");
    EXPECT_DEATH(PredictHeads(model, anchor, 0, options), "KGE_CHECK");
  }
  for (const RelationId relation : {RelationId(-1), RelationId(kRelations)}) {
    EXPECT_DEATH(PredictTails(model, 0, relation, options), "KGE_CHECK");
    EXPECT_DEATH(PredictHeads(model, 0, relation, options), "KGE_CHECK");
  }
}

TEST(TopKHeapTest, CanSkipBoundAgainstHeapMinimumIsStrict) {
  TopKHeap<float, EntityId> heap(2);
  EXPECT_FALSE(heap.CanSkipBound(-100.0));  // not full yet
  heap.PushCandidate(0, 5.0f);
  heap.PushCandidate(1, 3.0f);
  ASSERT_TRUE(heap.full());
  EXPECT_TRUE(heap.CanSkipBound(2.9));
  // Equality must scan: a candidate scoring exactly the minimum can
  // still enter on the smaller-id tie-break.
  EXPECT_FALSE(heap.CanSkipBound(3.0));
  EXPECT_FALSE(heap.CanSkipBound(3.1));
  // A heap that keeps nothing skips every tile.
  TopKHeap<float, EntityId> empty(0);
  EXPECT_TRUE(empty.CanSkipBound(1e30));
}

TEST(TopKHeapTest, ReserveKeepsResetCapacityAllocationFree) {
  TopKHeap<float, EntityId> heap;
  heap.Reserve(8);
  for (int k = 1; k <= 8; ++k) {
    heap.ResetCapacity(k);
    for (EntityId e = 0; e < 20; ++e) heap.PushCandidate(e, float(e % 5));
    EXPECT_EQ(heap.size(), k);
  }
}

TEST(TopKHeapTest, MergeFromEqualsSinglePassForAnyPartition) {
  // 30 candidates with deliberate score ties, split at every possible
  // boundary into two heaps: merge must equal the single-pass top-k.
  std::vector<float> scores;
  for (int i = 0; i < 30; ++i) scores.push_back(float((i * 7) % 5));
  TopKHeap<float, EntityId> reference(6);
  for (EntityId e = 0; e < 30; ++e) {
    reference.PushCandidate(e, scores[size_t(e)]);
  }
  const auto expect = reference.TakeSorted();
  for (int cut = 0; cut <= 30; ++cut) {
    TopKHeap<float, EntityId> left(6);
    TopKHeap<float, EntityId> right(6);
    for (EntityId e = 0; e < 30; ++e) {
      (e < cut ? left : right).PushCandidate(e, scores[size_t(e)]);
    }
    left.MergeFrom(right);
    const auto got = left.TakeSorted();
    ASSERT_EQ(expect.size(), got.size());
    for (size_t i = 0; i < expect.size(); ++i) {
      EXPECT_EQ(expect[i].entity, got[i].entity) << "cut=" << cut;
      EXPECT_EQ(expect[i].score, got[i].score) << "cut=" << cut;
    }
  }
}

TEST(TopKTest, AgreesWithModelScores) {
  auto model = MakeComplEx(kEntities, kRelations, 8, 5);
  TopKOptions options;
  options.k = kEntities;
  const auto top = PredictTails(*model, 3, 1, options);
  ASSERT_EQ(top.size(), size_t(kEntities));
  for (size_t i = 0; i + 1 < top.size(); ++i) {
    EXPECT_GE(top[i].score, top[i + 1].score);
  }
  for (const ScoredEntity& s : top) {
    EXPECT_NEAR(s.score, model->Score({3, s.entity, 1}), 1e-4);
  }
}

}  // namespace
}  // namespace kge
