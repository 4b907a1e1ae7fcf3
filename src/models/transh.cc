#include "models/transh.h"

#include <utility>
#include <vector>

#include "math/vec_ops.h"
#include "util/check.h"
#include "util/scratch.h"

namespace kge {

TransH::TransH(int32_t num_entities, int32_t num_relations, int32_t dim,
               std::optional<uint64_t> seed)
    : name_("TransH"),
      entities_("TransH.entities", num_entities, 1, dim),
      translations_("TransH.translations", num_relations, 1, dim),
      normals_("TransH.normals", num_relations, 1, dim) {
  if (seed) InitParameters(*seed);
}

void TransH::InitParameters(uint64_t seed) {
  Rng rng(seed);
  entities_.InitXavier(&rng);
  translations_.InitXavier(&rng);
  normals_.InitXavier(&rng);
  for (int32_t r = 0; r < normals_.num_ids(); ++r) {
    normals_.NormalizeVectorsOf(r);
  }
}

void TransH::ProjectedDifference(std::span<const float> h,
                                 std::span<const float> t,
                                 RelationId relation,
                                 std::span<float> diff) const {
  const auto d = translations_.Of(relation);
  const auto w = normals_.Of(relation);
  const double alpha = Dot(w, h);
  const double beta = Dot(w, t);
  const float gap = static_cast<float>(alpha - beta);
  for (size_t i = 0; i < h.size(); ++i) {
    diff[i] = h[i] - t[i] + d[i] - gap * w[i];
  }
}

double TransH::Score(const Triple& triple) const {
  static thread_local std::vector<float> diff_buf;
  const std::span<float> diff =
      ScratchSpan(diff_buf, static_cast<size_t>(dim()));
  ProjectedDifference(entities_.Of(triple.head), entities_.Of(triple.tail),
                      triple.relation, diff);
  return -SquaredNorm(diff);
}

void TransH::ScoreAll(QuerySide side, EntityId anchor, RelationId relation,
                      std::span<float> out) const {
  KGE_CHECK(out.size() == size_t(entities_.num_ids()));
  // ||(h⊥ + d) − t⊥||² = ||(t⊥ − d) − h⊥||²: the anchor's side is fixed,
  // so per candidate only its projection and one distance remain.
  const auto a = entities_.Of(anchor);
  const auto d = translations_.Of(relation);
  const auto w = normals_.Of(relation);
  const int32_t n = dim();
  static thread_local std::vector<float> target_buf;  // h⊥ + d or t⊥ − d
  const std::span<float> target =
      ScratchSpan(target_buf, static_cast<size_t>(n));
  const double alpha = Dot(w, a);
  // ±1 · d is exact, and x + (−d) is x − d.
  const float sign = side == QuerySide::kTail ? 1.0f : -1.0f;
  for (int32_t i = 0; i < n; ++i) {
    target[size_t(i)] =
        a[size_t(i)] - float(alpha) * w[size_t(i)] + sign * d[size_t(i)];
  }
  static thread_local std::vector<float> proj_buf;
  const std::span<float> proj = ScratchSpan(proj_buf, static_cast<size_t>(n));
  for (int32_t e = 0; e < entities_.num_ids(); ++e) {
    const auto c = entities_.Of(e);
    const double gamma = Dot(w, c);
    for (int32_t i = 0; i < n; ++i) {
      proj[size_t(i)] = c[size_t(i)] - float(gamma) * w[size_t(i)];
    }
    out[size_t(e)] = static_cast<float>(-LpDistance(target, proj, 2));
  }
}

std::vector<ParameterBlock*> TransH::Blocks() {
  return {entities_.block(), translations_.block(), normals_.block()};
}

void TransH::AccumulateGradients(const Triple& triple, float dscore,
                                 GradientBuffer* grads) {
  const EmbeddingStore& entities = entities_;
  const auto h = entities.Of(triple.head);
  const auto t = entities.Of(triple.tail);
  const auto w = std::as_const(normals_).Of(triple.relation);
  const int32_t n = dim();
  static thread_local std::vector<float> diff_buf;
  const std::span<float> diff = ScratchSpan(diff_buf, static_cast<size_t>(n));
  ProjectedDifference(h, t, triple.relation, diff);

  // g = dscore * dS/ddiff = -2 * dscore * diff.
  static thread_local std::vector<float> g_buf;
  const std::span<float> g = ScratchSpan(g_buf, static_cast<size_t>(n));
  for (int32_t i = 0; i < n; ++i) g[size_t(i)] = -2.0f * dscore * diff[size_t(i)];

  std::span<float> gh = grads->GradFor(kEntityBlock, triple.head);
  std::span<float> gt = grads->GradFor(kEntityBlock, triple.tail);
  std::span<float> gd = grads->GradFor(kTranslationBlock, triple.relation);
  std::span<float> gw = grads->GradFor(kNormalBlock, triple.relation);

  const double gw_dot = Dot(g, w);
  const double alpha = Dot(w, h);
  const double beta = Dot(w, t);
  const float gap = static_cast<float>(alpha - beta);
  for (int32_t i = 0; i < n; ++i) {
    const float gi = g[size_t(i)];
    const float proj = gi - float(gw_dot) * w[size_t(i)];
    gh[size_t(i)] += proj;
    gt[size_t(i)] -= proj;
    gd[size_t(i)] += gi;
    gw[size_t(i)] +=
        -float(gw_dot) * (h[size_t(i)] - t[size_t(i)]) - gap * gi;
  }
}

void TransH::NormalizeAfterStep() {
  // Re-impose the unit-norm constraint on the hyperplane normals after
  // each optimizer step (TransH's hard constraint on w_r).
  for (int32_t r = 0; r < normals_.num_ids(); ++r) {
    normals_.NormalizeVectorsOf(r);
  }
}

std::unique_ptr<TransH> MakeTransH(int32_t num_entities,
                                   int32_t num_relations, int32_t dim,
                                   std::optional<uint64_t> seed) {
  return std::make_unique<TransH>(num_entities, num_relations, dim, seed);
}

}  // namespace kge
