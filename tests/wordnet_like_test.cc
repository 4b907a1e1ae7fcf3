#include "datagen/wordnet_like_generator.h"

#include <gtest/gtest.h>

#include "kg/filter_index.h"
#include "kg/relation_analysis.h"

namespace kge {
namespace {

class WordNetLikeTest : public testing::Test {
 protected:
  static void SetUpTestSuite() {
    WordNetLikeOptions options;
    options.num_entities = 800;
    options.seed = 5;
    dataset_ = new Dataset(GenerateWordNetLike(options));
    std::vector<Triple> all = dataset_->train;
    all.insert(all.end(), dataset_->valid.begin(), dataset_->valid.end());
    all.insert(all.end(), dataset_->test.begin(), dataset_->test.end());
    stats_ = new std::vector<RelationStats>(AnalyzeRelations(
        all, dataset_->num_entities(), dataset_->num_relations()));
  }
  static void TearDownTestSuite() {
    delete dataset_;
    delete stats_;
    dataset_ = nullptr;
    stats_ = nullptr;
  }

  static Dataset* dataset_;
  static std::vector<RelationStats>* stats_;
};

Dataset* WordNetLikeTest::dataset_ = nullptr;
std::vector<RelationStats>* WordNetLikeTest::stats_ = nullptr;

TEST_F(WordNetLikeTest, HasEighteenRelationsLikeWn18) {
  EXPECT_EQ(dataset_->num_relations(), 18);
  EXPECT_NE(dataset_->relations.Find("_hypernym"), -1);
  EXPECT_NE(dataset_->relations.Find("_derivationally_related_form"), -1);
}

TEST_F(WordNetLikeTest, EntityCountMatchesOption) {
  EXPECT_EQ(dataset_->num_entities(), 800);
}

TEST_F(WordNetLikeTest, ValidatesAsBenchmark) {
  EXPECT_TRUE(dataset_->Validate().ok());
}

TEST_F(WordNetLikeTest, SplitSizesRoughlyMatchWn18Proportions) {
  const size_t total = dataset_->train.size() + dataset_->valid.size() +
                       dataset_->test.size();
  EXPECT_GT(total, 1500u);
  EXPECT_NEAR(double(dataset_->valid.size()) / double(total), 0.035, 0.01);
  EXPECT_NEAR(double(dataset_->test.size()) / double(total), 0.035, 0.01);
}

TEST_F(WordNetLikeTest, HypernymHyponymAreExactInverses) {
  const RelationStats& hypernym = (*stats_)[kHypernym];
  EXPECT_EQ(hypernym.best_inverse, kHyponym);
  EXPECT_NEAR(hypernym.best_inverse_score, 1.0, 1e-9);
  const RelationStats& hyponym = (*stats_)[kHyponym];
  EXPECT_EQ(hyponym.best_inverse, kHypernym);
}

TEST_F(WordNetLikeTest, HypernymIsAntisymmetricAndManyToOne) {
  const RelationStats& hypernym = (*stats_)[kHypernym];
  EXPECT_NEAR(hypernym.symmetry, 0.0, 1e-9);
  // Every child has exactly one parent; parents have many children.
  EXPECT_EQ(hypernym.category, MappingCategory::kManyToOne);
}

TEST_F(WordNetLikeTest, SymmetricRelationsAreSymmetric) {
  for (RelationId r : {RelationId(kSimilarTo), RelationId(kVerbGroup),
                       RelationId(kDerivationallyRelatedForm)}) {
    EXPECT_NEAR((*stats_)[size_t(r)].symmetry, 1.0, 1e-9)
        << "relation " << r;
  }
}

TEST_F(WordNetLikeTest, AlsoSeeIsMostlyButNotFullySymmetric) {
  const double symmetry = (*stats_)[kAlsoSee].symmetry;
  EXPECT_GT(symmetry, 0.5);
  EXPECT_LT(symmetry, 0.95);
}

TEST_F(WordNetLikeTest, DomainRelationsAreHubStructured) {
  const RelationStats& member_of = (*stats_)[kMemberOfDomainTopic];
  // Many members per domain hub: the inverse direction (domain -> member)
  // is 1-N, so member_of is N-1.
  EXPECT_EQ(member_of.category, MappingCategory::kManyToOne);
  EXPECT_EQ(member_of.best_inverse, kSynsetDomainTopicOf);
  EXPECT_NEAR(member_of.best_inverse_score, 1.0, 1e-9);
}

TEST_F(WordNetLikeTest, MeronymyPairsAreInverses) {
  EXPECT_EQ((*stats_)[kMemberMeronym].best_inverse, kMemberHolonym);
  EXPECT_EQ((*stats_)[kPartOf].best_inverse, kHasPart);
  EXPECT_NEAR((*stats_)[kPartOf].best_inverse_score, 1.0, 1e-9);
}

TEST_F(WordNetLikeTest, EveryRelationHasTriples) {
  for (const RelationStats& s : *stats_) {
    EXPECT_GT(s.num_triples, 0u) << "relation " << s.relation;
  }
}

TEST_F(WordNetLikeTest, HypernymIsTheLargestTaxonomicRelation) {
  EXPECT_GT((*stats_)[kHypernym].num_triples,
            (*stats_)[kInstanceHypernym].num_triples);
}

// kge_serve sizes its model from this contract instead of generating the
// dataset: the vocabulary depends on num_entities alone.
TEST(WordNetLikeVocabularyTest, SizesFollowTheOptionsAlone) {
  for (const int32_t entities : {kWordNetMinEntities, 101, 1000, 4321}) {
    for (const bool remove_leakage : {false, true}) {
      for (const uint64_t seed : {uint64_t(1), uint64_t(99)}) {
        WordNetLikeOptions options;
        options.num_entities = entities;
        options.remove_inverse_leakage = remove_leakage;
        options.seed = seed;
        const Dataset data = GenerateWordNetLike(options);
        EXPECT_EQ(data.num_entities(), entities)
            << entities << " " << remove_leakage << " " << seed;
        EXPECT_EQ(data.num_relations(), int32_t(kNumWordNetRelations))
            << entities << " " << remove_leakage << " " << seed;
      }
    }
  }
}

TEST(WordNetLikeDeterminismTest, SameSeedSameDataset) {
  WordNetLikeOptions options;
  options.num_entities = 300;
  options.seed = 9;
  const Dataset a = GenerateWordNetLike(options);
  const Dataset b = GenerateWordNetLike(options);
  EXPECT_EQ(a.train, b.train);
  EXPECT_EQ(a.valid, b.valid);
  EXPECT_EQ(a.test, b.test);
}

TEST(WordNetLikeDeterminismTest, DifferentSeedsDifferentGraphs) {
  WordNetLikeOptions options;
  options.num_entities = 300;
  options.seed = 1;
  const Dataset a = GenerateWordNetLike(options);
  options.seed = 2;
  const Dataset b = GenerateWordNetLike(options);
  EXPECT_NE(a.train, b.train);
}

TEST(WordNetLikeRrModeTest, LeakageRemovalDropsInverseRelations) {
  WordNetLikeOptions options;
  options.num_entities = 500;
  options.seed = 4;
  options.remove_inverse_leakage = true;
  const Dataset data = GenerateWordNetLike(options);
  ASSERT_TRUE(data.Validate().ok());
  std::vector<Triple> all = data.train;
  all.insert(all.end(), data.valid.begin(), data.valid.end());
  all.insert(all.end(), data.test.begin(), data.test.end());
  for (const Triple& t : all) {
    EXPECT_NE(t.relation, kHyponym);
    EXPECT_NE(t.relation, kMemberHolonym);
    EXPECT_NE(t.relation, kHasPart);
    EXPECT_NE(t.relation, kInstanceHyponym);
    EXPECT_NE(t.relation, kSynsetDomainTopicOf);
  }
  // Forward relations survive.
  const auto stats = AnalyzeRelations(all, data.num_entities(),
                                      data.num_relations());
  EXPECT_GT(stats[kHypernym].num_triples, 0u);
  EXPECT_GT(stats[kSimilarTo].num_triples, 0u);  // symmetric kept
  // No relation has a (different) exact inverse partner any more.
  for (const RelationStats& s : stats) {
    if (s.num_triples == 0 || s.symmetry > 0.5) continue;
    EXPECT_LT(s.best_inverse_score, 0.5) << "relation " << s.relation;
  }
}

TEST(WordNetLikeRrModeTest, RrModeIsSmallerThanFullGraph) {
  WordNetLikeOptions options;
  options.num_entities = 500;
  options.seed = 4;
  const Dataset full = GenerateWordNetLike(options);
  options.remove_inverse_leakage = true;
  const Dataset rr = GenerateWordNetLike(options);
  EXPECT_LT(rr.train.size(), full.train.size());
  EXPECT_GT(rr.train.size(), full.train.size() / 3);
}

TEST(WordNetLikeDeterminismTest, InverseLeakageAcrossSplitExists) {
  // The WN18 property the paper's results depend on: most test triples of
  // inverse-paired relations have their inverse triple in train.
  WordNetLikeOptions options;
  options.num_entities = 600;
  options.seed = 3;
  const Dataset dataset = GenerateWordNetLike(options);
  FilterIndex train_index;
  train_index.Build(dataset.train, {}, {});
  size_t inverse_pairs = 0, leaked = 0;
  auto inverse_of = [](RelationId r) -> RelationId {
    switch (r) {
      case kHypernym: return kHyponym;
      case kHyponym: return kHypernym;
      case kMemberMeronym: return kMemberHolonym;
      case kMemberHolonym: return kMemberMeronym;
      case kPartOf: return kHasPart;
      case kHasPart: return kPartOf;
      default: return -1;
    }
  };
  for (const Triple& t : dataset.test) {
    const RelationId inv = inverse_of(t.relation);
    if (inv < 0) continue;
    ++inverse_pairs;
    leaked += train_index.Contains({t.tail, t.head, inv});
  }
  ASSERT_GT(inverse_pairs, 10u);
  EXPECT_GT(double(leaked) / double(inverse_pairs), 0.8);
}

}  // namespace
}  // namespace kge
