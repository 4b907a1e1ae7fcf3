#include "kg/filter_index.h"

#include <gtest/gtest.h>

#include <algorithm>

namespace kge {
namespace {

TEST(TripleTest, ComparisonAndHash) {
  const Triple a{1, 2, 3};
  const Triple b{1, 2, 3};
  const Triple c{1, 2, 4};
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_LT(a, c);
  TripleHash hash;
  EXPECT_EQ(hash(a), hash(b));
  EXPECT_NE(hash(a), hash(c));  // overwhelmingly likely
}

TEST(TripleTest, QuerySideHelpersPickTheQueryEnds) {
  const Triple triple{4, 9, 2};
  EXPECT_EQ(AnchorOf(QuerySide::kTail, triple), 4);
  EXPECT_EQ(AnswerOf(QuerySide::kTail, triple), 9);
  EXPECT_EQ(AnchorOf(QuerySide::kHead, triple), 9);
  EXPECT_EQ(AnswerOf(QuerySide::kHead, triple), 4);
  for (const QuerySide side : {QuerySide::kTail, QuerySide::kHead}) {
    EXPECT_EQ(QueryTriple(side, AnchorOf(side, triple), triple.relation,
                          AnswerOf(side, triple)),
              triple);
  }
  EXPECT_EQ(QueryTriple(QuerySide::kTail, 4, 2, 7), (Triple{4, 7, 2}));
  EXPECT_EQ(QueryTriple(QuerySide::kHead, 4, 2, 7), (Triple{7, 4, 2}));
}

class FilterIndexTest : public testing::Test {
 protected:
  void SetUp() override {
    train_ = {{0, 1, 0}, {0, 2, 0}, {1, 2, 1}};
    valid_ = {{0, 3, 0}};
    test_ = {{2, 1, 1}};
    index_.Build(train_, valid_, test_);
  }

  std::vector<Triple> train_, valid_, test_;
  FilterIndex index_;
};

TEST_F(FilterIndexTest, ContainsTriplesFromAllSplits) {
  EXPECT_TRUE(index_.Contains({0, 1, 0}));  // train
  EXPECT_TRUE(index_.Contains({0, 3, 0}));  // valid
  EXPECT_TRUE(index_.Contains({2, 1, 1}));  // test
  EXPECT_FALSE(index_.Contains({3, 0, 0}));
  EXPECT_FALSE(index_.Contains({0, 1, 1}));
}

TEST_F(FilterIndexTest, KnownTailsAreSortedAndComplete) {
  const auto tails = index_.Known(QuerySide::kTail, 0, 0);
  ASSERT_EQ(tails.size(), 3u);
  EXPECT_TRUE(std::is_sorted(tails.begin(), tails.end()));
  EXPECT_EQ(tails[0], 1);
  EXPECT_EQ(tails[1], 2);
  EXPECT_EQ(tails[2], 3);
}

TEST_F(FilterIndexTest, KnownHeadsAreComplete) {
  const auto heads = index_.Known(QuerySide::kHead, 2, 0);
  ASSERT_EQ(heads.size(), 1u);
  EXPECT_EQ(heads[0], 0);
  const auto heads_r1 = index_.Known(QuerySide::kHead, 1, 1);
  ASSERT_EQ(heads_r1.size(), 1u);
  EXPECT_EQ(heads_r1[0], 2);
}

TEST_F(FilterIndexTest, UnknownKeysGiveEmptySpans) {
  EXPECT_TRUE(index_.Known(QuerySide::kTail, 7, 0).empty());
  EXPECT_TRUE(index_.Known(QuerySide::kTail, 0, 9).empty());
  EXPECT_TRUE(index_.Known(QuerySide::kHead, 9, 9).empty());
}

TEST_F(FilterIndexTest, NumTriplesCountsAllSplits) {
  EXPECT_EQ(index_.num_triples(), 5u);
}

TEST(FilterIndexDedupeTest, DuplicatesAcrossSplitsAreDeduped) {
  const std::vector<Triple> train = {{0, 1, 0}};
  const std::vector<Triple> valid = {{0, 1, 0}};
  const std::vector<Triple> test = {};
  FilterIndex index;
  index.Build(train, valid, test);
  EXPECT_EQ(index.Known(QuerySide::kTail, 0, 0).size(), 1u);
}

TEST(FilterIndexRebuildTest, BuildReplacesPreviousContents) {
  FilterIndex index;
  const std::vector<Triple> first = {{0, 1, 0}};
  const std::vector<Triple> empty;
  index.Build(first, empty, empty);
  EXPECT_TRUE(index.Contains({0, 1, 0}));
  const std::vector<Triple> second = {{2, 3, 1}};
  index.Build(second, empty, empty);
  EXPECT_FALSE(index.Contains({0, 1, 0}));
  EXPECT_TRUE(index.Contains({2, 3, 1}));
}

TEST(FilterIndexSpanOverloadTest, GenericBuildWorks) {
  const std::vector<Triple> a = {{0, 1, 0}};
  const std::vector<Triple> b = {{1, 0, 0}};
  const std::vector<Triple>* splits[] = {&a, &b};
  FilterIndex index;
  index.Build(splits);
  EXPECT_TRUE(index.Contains({0, 1, 0}));
  EXPECT_TRUE(index.Contains({1, 0, 0}));
  EXPECT_EQ(index.num_triples(), 2u);
}

}  // namespace
}  // namespace kge
