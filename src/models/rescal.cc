#include "models/rescal.h"

#include <utility>
#include <vector>

#include "math/vec_ops.h"
#include "util/check.h"
#include "util/scratch.h"

namespace kge {

Rescal::Rescal(int32_t num_entities, int32_t num_relations, int32_t dim,
               std::optional<uint64_t> seed)
    : name_("RESCAL"),
      entities_("RESCAL.entities", num_entities, 1, dim),
      relation_matrices_("RESCAL.relations", num_relations,
                         int64_t(dim) * int64_t(dim)) {
  KGE_CHECK(dim > 0);
  if (seed) InitParameters(*seed);
}

void Rescal::InitParameters(uint64_t seed) {
  Rng rng(seed);
  entities_.InitXavier(&rng);
  relation_matrices_.InitXavierUniform(&rng, 2 * int64_t(dim()));
}

double Rescal::Score(const Triple& triple) const {
  const auto h = entities_.Of(triple.head);
  const auto t = entities_.Of(triple.tail);
  const auto w = MatrixOf(triple.relation);
  const int32_t d = dim();
  double score = 0.0;
  for (int32_t a = 0; a < d; ++a) {
    // Row dot: (W_r[a, :] · t) * h_a, accumulated over rows.
    double row = 0.0;
    const float* w_row = w.data() + size_t(a) * size_t(d);
    for (int32_t b = 0; b < d; ++b)
      row += double(w_row[b]) * double(t[size_t(b)]);
    score += double(h[size_t(a)]) * row;
  }
  return score;
}

void Rescal::ScoreAll(QuerySide side, EntityId anchor, RelationId relation,
                      std::span<float> out) const {
  KGE_CHECK(out.size() == size_t(entities_.num_ids()));
  const auto a = entities_.Of(anchor);
  const auto w = MatrixOf(relation);
  const int32_t d = dim();
  // v = hᵀ W_r for tails, v = W_r t for heads (one D² pass), then one
  // batched v · e over all candidates.
  static thread_local std::vector<float> v_buf;
  const std::span<float> v = ScratchSpan(v_buf, size_t(d));
  if (side == QuerySide::kTail) {
    Fill(v, 0.0f);
    for (int32_t i = 0; i < d; ++i) {
      const float ai = a[size_t(i)];
      const float* w_row = w.data() + size_t(i) * size_t(d);
      for (int32_t j = 0; j < d; ++j) v[size_t(j)] += ai * w_row[j];
    }
  } else {
    for (int32_t i = 0; i < d; ++i) {
      const float* w_row = w.data() + size_t(i) * size_t(d);
      v[size_t(i)] = static_cast<float>(
          Dot(std::span<const float>(w_row, size_t(d)), a));
    }
  }
  DotBatch(v, entities_.block().Flat(), out);
}

std::vector<ParameterBlock*> Rescal::Blocks() {
  return {entities_.block(), &relation_matrices_};
}

void Rescal::AccumulateGradients(const Triple& triple, float dscore,
                                 GradientBuffer* grads) {
  const EmbeddingStore& entities = entities_;
  const auto h = entities.Of(triple.head);
  const auto t = entities.Of(triple.tail);
  const auto w = MatrixOf(triple.relation);
  const int32_t d = dim();
  std::span<float> gh = grads->GradFor(kEntityBlock, triple.head);
  std::span<float> gt = grads->GradFor(kEntityBlock, triple.tail);
  std::span<float> gw = grads->GradFor(kRelationBlock, triple.relation);
  // dS/dh = W t; dS/dt = Wᵀ h; dS/dW = h tᵀ.
  for (int32_t a = 0; a < d; ++a) {
    const float* w_row = w.data() + size_t(a) * size_t(d);
    float* gw_row = gw.data() + size_t(a) * size_t(d);
    double wt = 0.0;
    const float ha = h[size_t(a)];
    const float scaled_ha = dscore * ha;
    for (int32_t b = 0; b < d; ++b) {
      wt += double(w_row[b]) * double(t[size_t(b)]);
      gt[size_t(b)] += scaled_ha * w_row[b];
      gw_row[b] += scaled_ha * t[size_t(b)];
    }
    gh[size_t(a)] += dscore * static_cast<float>(wt);
  }
}

std::unique_ptr<Rescal> MakeRescal(int32_t num_entities,
                                   int32_t num_relations, int32_t dim,
                                   std::optional<uint64_t> seed) {
  return std::make_unique<Rescal>(num_entities, num_relations, dim, seed);
}

}  // namespace kge
