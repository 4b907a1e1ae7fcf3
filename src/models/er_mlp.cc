#include "models/er_mlp.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "util/check.h"
#include "util/scratch.h"

namespace kge {

ErMlp::ErMlp(int32_t num_entities, int32_t num_relations, int32_t dim,
             int32_t hidden_dim, std::optional<uint64_t> seed)
    : name_("ER-MLP"),
      entities_("ErMlp.entities", num_entities, 1, dim),
      relations_("ErMlp.relations", num_relations, 1, dim),
      hidden_("ErMlp.hidden", 3 * dim, hidden_dim, Activation::kTanh),
      output_("ErMlp.output", hidden_dim, 1, Activation::kLinear) {
  if (seed) InitParameters(*seed);
}

void ErMlp::InitParameters(uint64_t seed) {
  Rng rng(seed);
  entities_.InitXavier(&rng);
  relations_.InitXavier(&rng);
  hidden_.Init(&rng);
  output_.Init(&rng);
}

void ErMlp::Concatenate(std::span<const float> h, std::span<const float> t,
                        std::span<const float> r, std::span<float> x) const {
  const size_t d = size_t(dim());
  KGE_DCHECK(x.size() == 3 * d);
  std::copy(h.begin(), h.end(), x.begin());
  std::copy(t.begin(), t.end(), x.begin() + std::ptrdiff_t(d));
  std::copy(r.begin(), r.end(), x.begin() + std::ptrdiff_t(2 * d));
}

double ErMlp::Score(const Triple& triple) const {
  static thread_local std::vector<float> x_buf;
  const std::span<float> x = ScratchSpan(x_buf, static_cast<size_t>(3 * dim()));
  Concatenate(entities_.Of(triple.head), entities_.Of(triple.tail),
              relations_.Of(triple.relation), x);
  static thread_local std::vector<float> a_buf;
  const std::span<float> a =
      ScratchSpan(a_buf, static_cast<size_t>(hidden_dim()));
  hidden_.Forward(x, a);
  float s = 0.0f;
  output_.Forward(a, std::span<float>(&s, 1));
  return double(s);
}

void ErMlp::ScoreAll(QuerySide side, EntityId anchor, RelationId relation,
                     std::span<float> out) const {
  KGE_CHECK(out.size() == size_t(entities_.num_ids()));
  // No fold trick for an MLP: full forward per candidate (the expense the
  // paper's §2.2.2 critique refers to). Scratch still makes the outer call
  // allocation-free.
  static thread_local std::vector<float> x_buf;
  static thread_local std::vector<float> a_buf;
  const std::span<float> x = ScratchSpan(x_buf, static_cast<size_t>(3 * dim()));
  const std::span<float> a =
      ScratchSpan(a_buf, static_cast<size_t>(hidden_dim()));
  const auto known = entities_.Of(anchor);
  const auto r = relations_.Of(relation);
  for (int32_t e = 0; e < entities_.num_ids(); ++e) {
    if (side == QuerySide::kTail) {
      Concatenate(known, entities_.Of(e), r, x);
    } else {
      Concatenate(entities_.Of(e), known, r, x);
    }
    hidden_.Forward(x, a);
    float s = 0.0f;
    output_.Forward(a, std::span<float>(&s, 1));
    out[size_t(e)] = s;
  }
}

std::vector<ParameterBlock*> ErMlp::Blocks() {
  return {entities_.block(), relations_.block(), hidden_.weights(),
          hidden_.bias(),    output_.weights(),  output_.bias()};
}

void ErMlp::AccumulateGradients(const Triple& triple, float dscore,
                                GradientBuffer* grads) {
  const size_t d = size_t(dim());
  static thread_local std::vector<float> x_buf;
  const std::span<float> x = ScratchSpan(x_buf, 3 * d);
  const EmbeddingStore& entities = entities_;
  Concatenate(entities.Of(triple.head), entities.Of(triple.tail),
              std::as_const(relations_).Of(triple.relation), x);
  static thread_local std::vector<float> a_buf;
  const std::span<float> a = ScratchSpan(a_buf, size_t(hidden_dim()));
  hidden_.Forward(x, a);
  float s = 0.0f;
  output_.Forward(a, std::span<float>(&s, 1));

  // Backprop: output layer -> hidden activations -> hidden layer -> x.
  // Both deltas are accumulated into, so zero the reused scratch first.
  static thread_local std::vector<float> da_buf;
  const std::span<float> da = ScratchSpan(da_buf, size_t(hidden_dim()));
  std::fill(da.begin(), da.end(), 0.0f);
  output_.Backward(a, std::span<const float>(&s, 1),
                   std::span<const float>(&dscore, 1), grads, kOutputWeights,
                   kOutputBias, da);
  static thread_local std::vector<float> dx_buf;
  const std::span<float> dx = ScratchSpan(dx_buf, 3 * d);
  std::fill(dx.begin(), dx.end(), 0.0f);
  hidden_.Backward(x, a, da, grads, kHiddenWeights, kHiddenBias, dx);

  // Split dx into the three embedding gradients.
  std::span<float> gh = grads->GradFor(kEntityBlock, triple.head);
  std::span<float> gt = grads->GradFor(kEntityBlock, triple.tail);
  std::span<float> gr = grads->GradFor(kRelationBlock, triple.relation);
  for (size_t i = 0; i < d; ++i) {
    gh[i] += dx[i];
    gt[i] += dx[d + i];
    gr[i] += dx[2 * d + i];
  }
}

std::unique_ptr<ErMlp> MakeErMlp(int32_t num_entities, int32_t num_relations,
                                 int32_t dim, int32_t hidden_dim,
                                 std::optional<uint64_t> seed) {
  return std::make_unique<ErMlp>(num_entities, num_relations, dim,
                                 hidden_dim, seed);
}

}  // namespace kge
