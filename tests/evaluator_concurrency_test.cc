// Concurrency contract of Evaluator::Evaluate: the ranking protocol is
// pure per-triple work plus an order-insensitive reduction, so an N-thread
// evaluation must reproduce the single-thread result. Hits@k, counts, and
// rank sums are exact (tie-averaged ranks are multiples of 0.5, summed
// exactly in double for these sizes); MRR is compared to a tight tolerance
// because merge order may reassociate the reciprocal sum. Run under
// -DKGE_SANITIZE=thread to turn this into a race regression test.
#include "eval/evaluator.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "kg/filter_index.h"
#include "kg/triple.h"
#include "math/simd.h"
#include "models/model_factory.h"
#include "models/trilinear_models.h"

namespace kge {
namespace {

// Deterministic synthetic KG: a few interlocking relation patterns over a
// small entity set, sized so the filtered protocol has non-trivial
// filtering and several score ties.
std::vector<Triple> MakeTriples(int32_t num_entities) {
  std::vector<Triple> triples;
  for (EntityId e = 0; e < num_entities; ++e) {
    triples.push_back({e, (e * 7 + 3) % num_entities, 0});
    triples.push_back({e, (e * 5 + 11) % num_entities, 1});
    if (e % 3 == 0) triples.push_back({e, (e + 1) % num_entities, 2});
  }
  return triples;
}

class EvaluatorConcurrencyTest : public ::testing::Test {
 protected:
  static constexpr int32_t kEntities = 60;
  static constexpr int32_t kRelations = 3;

  void SetUp() override {
    triples_ = MakeTriples(kEntities);
    filter_.Build(triples_, {}, {});
    Result<std::unique_ptr<KgeModel>> model = MakeModelByName(
        "complex", kEntities, kRelations, /*dim_budget=*/32, /*seed=*/1234);
    ASSERT_TRUE(model.ok()) << model.status().ToString();
    model_ = std::move(*model);
  }

  static void ExpectSameMetrics(const RankingMetrics& a,
                                const RankingMetrics& b) {
    EXPECT_EQ(a.count(), b.count());
    EXPECT_DOUBLE_EQ(a.MeanRank(), b.MeanRank());
    EXPECT_DOUBLE_EQ(a.HitsAt(1), b.HitsAt(1));
    EXPECT_DOUBLE_EQ(a.HitsAt(3), b.HitsAt(3));
    EXPECT_DOUBLE_EQ(a.HitsAt(10), b.HitsAt(10));
    EXPECT_NEAR(a.Mrr(), b.Mrr(), 1e-12);
    EXPECT_NEAR(a.AdjustedMeanRankIndex(), b.AdjustedMeanRankIndex(), 1e-12);
  }

  std::vector<Triple> triples_;
  FilterIndex filter_;
  std::unique_ptr<KgeModel> model_;
};

TEST_F(EvaluatorConcurrencyTest, MultiThreadMatchesSingleThreadFiltered) {
  Evaluator evaluator(&filter_, kRelations);
  EvalOptions serial;
  serial.num_threads = 1;
  const EvalResult expected = evaluator.Evaluate(*model_, triples_, serial);

  for (int threads : {2, 4, 8}) {
    EvalOptions parallel;
    parallel.num_threads = threads;
    const EvalResult got = evaluator.Evaluate(*model_, triples_, parallel);
    SCOPED_TRACE("num_threads=" + std::to_string(threads));
    ExpectSameMetrics(expected.overall, got.overall);
    ASSERT_EQ(expected.per_relation.size(), got.per_relation.size());
    for (size_t r = 0; r < expected.per_relation.size(); ++r) {
      SCOPED_TRACE("relation=" + std::to_string(r));
      ExpectSameMetrics(expected.per_relation[r].tail_queries,
                        got.per_relation[r].tail_queries);
      ExpectSameMetrics(expected.per_relation[r].head_queries,
                        got.per_relation[r].head_queries);
    }
  }
}

TEST_F(EvaluatorConcurrencyTest, MultiThreadMatchesSingleThreadRaw) {
  Evaluator evaluator(&filter_, kRelations);
  EvalOptions serial;
  serial.num_threads = 1;
  serial.filtered = false;
  EvalOptions parallel = serial;
  parallel.num_threads = 4;
  ExpectSameMetrics(evaluator.Evaluate(*model_, triples_, serial).overall,
                    evaluator.Evaluate(*model_, triples_, parallel).overall);
}

TEST_F(EvaluatorConcurrencyTest, SubsampledEvaluationIsThreadInvariant) {
  Evaluator evaluator(&filter_, kRelations);
  EvalOptions serial;
  serial.num_threads = 1;
  serial.max_triples = 37;  // exercises the stride subsample + sharding
  EvalOptions parallel = serial;
  parallel.num_threads = 3;
  ExpectSameMetrics(evaluator.Evaluate(*model_, triples_, serial).overall,
                    evaluator.Evaluate(*model_, triples_, parallel).overall);
}

TEST_F(EvaluatorConcurrencyTest, RepeatedParallelRunsAreStable) {
  Evaluator evaluator(&filter_, kRelations);
  EvalOptions options;
  options.num_threads = 4;
  const EvalResult first = evaluator.Evaluate(*model_, triples_, options);
  for (int run = 0; run < 3; ++run) {
    ExpectSameMetrics(first.overall,
                      evaluator.Evaluate(*model_, triples_, options).overall);
  }
}

// Evaluate groups queries by (relation, side) and ranks each batch in
// one walk of the entity table, but by the DotBatchMulti per-cell
// contract every score — and therefore every rank — is bit-identical to
// a batch of one, so the metrics must match exactly for every batch
// size and thread count, filtered and raw.
TEST_F(EvaluatorConcurrencyTest, BatchedRankingMatchesPerQueryExactly) {
  Evaluator evaluator(&filter_, kRelations);
  EvalOptions per_query;
  per_query.batch_queries = 1;
  per_query.num_threads = 1;
  const EvalResult expected = evaluator.Evaluate(*model_, triples_, per_query);

  for (int batch : {2, 8, 32, 0 /* auto */}) {
    for (int threads : {1, 4}) {
      EvalOptions batched;
      batched.batch_queries = batch;
      batched.num_threads = threads;
      SCOPED_TRACE("batch_queries=" + std::to_string(batch) +
                   " num_threads=" + std::to_string(threads));
      const EvalResult got = evaluator.Evaluate(*model_, triples_, batched);
      ExpectSameMetrics(expected.overall, got.overall);
      ASSERT_EQ(expected.per_relation.size(), got.per_relation.size());
      for (size_t r = 0; r < expected.per_relation.size(); ++r) {
        SCOPED_TRACE("relation=" + std::to_string(r));
        ExpectSameMetrics(expected.per_relation[r].tail_queries,
                          got.per_relation[r].tail_queries);
        ExpectSameMetrics(expected.per_relation[r].head_queries,
                          got.per_relation[r].head_queries);
      }
    }
  }
}

TEST_F(EvaluatorConcurrencyTest, BatchedRankingMatchesPerQueryRaw) {
  Evaluator evaluator(&filter_, kRelations);
  EvalOptions per_query;
  per_query.batch_queries = 1;
  per_query.filtered = false;
  EvalOptions batched = per_query;
  batched.batch_queries = 8;
  batched.num_threads = 4;
  ExpectSameMetrics(evaluator.Evaluate(*model_, triples_, per_query).overall,
                    evaluator.Evaluate(*model_, triples_, batched).overall);
}

TEST_F(EvaluatorConcurrencyTest, BatchedRankingHonorsSubsampling) {
  Evaluator evaluator(&filter_, kRelations);
  EvalOptions per_query;
  per_query.batch_queries = 1;
  per_query.max_triples = 37;
  EvalOptions batched = per_query;
  batched.batch_queries = 4;
  batched.num_threads = 3;
  ExpectSameMetrics(evaluator.Evaluate(*model_, triples_, per_query).overall,
                    evaluator.Evaluate(*model_, triples_, batched).overall);
}

// A read-only twin of a MultiEmbeddingModel that bypasses the SIMD
// dispatch layer entirely: folds and dots are computed with the naive
// sequential references in simd::ref against the *same* parameters.
// Only the scoring interface the evaluator uses is implemented.
class NaiveReferenceModel : public KgeModel {
 public:
  explicit NaiveReferenceModel(const MultiEmbeddingModel* base)
      : name_("NaiveRef-" + base->name()), base_(base) {}

  const std::string& name() const override { return name_; }
  int32_t num_entities() const override { return base_->num_entities(); }
  int32_t num_relations() const override { return base_->num_relations(); }

  double Score(const Triple& triple) const override {
    const WeightTable& w = base_->weights();
    const size_t d = size_t(base_->dim());
    const auto h = base_->entity_store().Of(triple.head);
    const auto t = base_->entity_store().Of(triple.tail);
    const auto r = base_->relation_store().Of(triple.relation);
    double score = 0.0;
    for (const WeightTable::Term& term : w.terms()) {
      score += double(term.weight) *
               simd::ref::TrilinearDot(h.data() + size_t(term.i) * d,
                                       t.data() + size_t(term.j) * d,
                                       r.data() + size_t(term.k) * d, d);
    }
    return score;
  }

  void ScoreAll(QuerySide side, EntityId anchor, RelationId relation,
                std::span<float> out) const override {
    NaiveFold(base_->entity_store().Of(anchor),
              base_->relation_store().Of(relation),
              /*fold_for_tail=*/side == QuerySide::kTail, out);
  }

  std::vector<ParameterBlock*> Blocks() override { return {}; }
  void AccumulateGradients(const Triple&, float, GradientBuffer*) override {}
  int32_t EntityVectorDim() const override { return 1; }
  void InitParameters(uint64_t) override {}

 private:
  void NaiveFold(std::span<const float> e, std::span<const float> r,
                 bool fold_for_tail, std::span<float> out) const {
    const WeightTable& w = base_->weights();
    const size_t d = size_t(base_->dim());
    std::vector<float> fold(size_t(w.ne()) * d, 0.0f);
    for (const WeightTable::Term& term : w.terms()) {
      const size_t e_at = size_t(fold_for_tail ? term.i : term.j) * d;
      const size_t out_at = size_t(fold_for_tail ? term.j : term.i) * d;
      simd::ref::HadamardAxpy(term.weight, e.data() + e_at,
                              r.data() + size_t(term.k) * d,
                              fold.data() + out_at, d);
    }
    for (int32_t c = 0; c < base_->num_entities(); ++c) {
      const auto cand = base_->entity_store().Of(c);
      out[size_t(c)] =
          float(simd::ref::Dot(fold.data(), cand.data(), fold.size()));
    }
  }

  std::string name_;
  const MultiEmbeddingModel* base_;
};

// The acceptance check for the SIMD layer: ranking with the dispatch
// kernels (whatever ISA this binary targets) must produce the same
// filtered metrics as a naive scalar re-implementation sharing the same
// parameters. Scores may differ by reassociation ulps, but never enough
// to move a rank on this workload.
TEST_F(EvaluatorConcurrencyTest, SimdAndNaiveScalarScoringAgreeOnMetrics) {
  std::unique_ptr<MultiEmbeddingModel> complex_model =
      MakeComplEx(kEntities, kRelations, /*dim=*/16, /*seed=*/1234);
  NaiveReferenceModel reference(complex_model.get());

  Evaluator evaluator(&filter_, kRelations);
  for (const bool filtered : {true, false}) {
    EvalOptions options;
    options.filtered = filtered;
    options.num_threads = 2;
    SCOPED_TRACE(filtered ? "filtered" : "raw");
    const EvalResult simd_result =
        evaluator.Evaluate(*complex_model, triples_, options);
    const EvalResult ref_result =
        evaluator.Evaluate(reference, triples_, options);
    ExpectSameMetrics(simd_result.overall, ref_result.overall);
  }
}

}  // namespace
}  // namespace kge
