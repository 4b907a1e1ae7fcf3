#include "models/rotate.h"

#include <cmath>
#include <utility>
#include <vector>

#include "math/vec_ops.h"
#include "util/check.h"
#include "util/scratch.h"

namespace kge {

RotatE::RotatE(int32_t num_entities, int32_t num_relations, int32_t dim,
               std::optional<uint64_t> seed)
    : name_("RotatE"),
      entities_("RotatE.entities", num_entities, 2, dim),
      phases_("RotatE.phases", num_relations, 1, dim) {
  if (seed) InitParameters(*seed);
}

void RotatE::InitParameters(uint64_t seed) {
  Rng rng(seed);
  entities_.InitXavier(&rng);
  // Phases uniform over the full circle.
  for (int32_t r = 0; r < phases_.num_ids(); ++r) {
    for (float& theta : phases_.Of(r)) {
      theta = rng.NextUniform(-float(M_PI), float(M_PI));
    }
  }
}

void RotatE::RotateHead(std::span<const float> h, RelationId relation,
                        std::span<float> out_re,
                        std::span<float> out_im) const {
  const int32_t d = dim();
  const auto theta = phases_.Of(relation);
  const auto h_re = h.subspan(0, size_t(d));
  const auto h_im = h.subspan(size_t(d), size_t(d));
  for (int32_t i = 0; i < d; ++i) {
    const float c = std::cos(theta[size_t(i)]);
    const float s = std::sin(theta[size_t(i)]);
    out_re[size_t(i)] = h_re[size_t(i)] * c - h_im[size_t(i)] * s;
    out_im[size_t(i)] = h_re[size_t(i)] * s + h_im[size_t(i)] * c;
  }
}

double RotatE::Score(const Triple& triple) const {
  const int32_t d = dim();
  static thread_local std::vector<float> rotated_buf;
  const std::span<float> rotated =
      ScratchSpan(rotated_buf, 2 * static_cast<size_t>(d));
  const std::span<float> hr_re = rotated.subspan(0, size_t(d));
  const std::span<float> hr_im = rotated.subspan(size_t(d), size_t(d));
  RotateHead(entities_.Of(triple.head), triple.relation, hr_re, hr_im);
  const auto t = entities_.Of(triple.tail);
  const auto t_re = t.subspan(0, size_t(d));
  const auto t_im = t.subspan(size_t(d), size_t(d));
  double distance = 0.0;
  for (int32_t i = 0; i < d; ++i) {
    const double dre = double(hr_re[size_t(i)]) - double(t_re[size_t(i)]);
    const double dim_part = double(hr_im[size_t(i)]) - double(t_im[size_t(i)]);
    distance += dre * dre + dim_part * dim_part;
  }
  return -distance;
}

void RotatE::ScoreAll(QuerySide side, EntityId anchor, RelationId relation,
                      std::span<float> out) const {
  KGE_CHECK(out.size() == size_t(entities_.num_ids()));
  // Rotation is an isometry: ||h∘r − t|| = ||t∘r⁻¹ − h||, so rotate the
  // anchor once (forwards for tails, backwards for heads) and compare
  // every candidate directly over the concatenated (re | im) layout.
  const int32_t d = dim();
  const auto a = entities_.Of(anchor);
  static thread_local std::vector<float> target_buf;
  const std::span<float> target = ScratchSpan(target_buf, 2 * size_t(d));
  if (side == QuerySide::kTail) {
    RotateHead(a, relation, target.subspan(0, size_t(d)),
               target.subspan(size_t(d), size_t(d)));
  } else {
    const auto theta = phases_.Of(relation);
    for (int32_t i = 0; i < d; ++i) {
      const float c = std::cos(theta[size_t(i)]);
      const float s = std::sin(theta[size_t(i)]);
      // t ∘ e^{-iθ}
      target[size_t(i)] = a[size_t(i)] * c + a[size_t(d + i)] * s;
      target[size_t(d + i)] = -a[size_t(i)] * s + a[size_t(d + i)] * c;
    }
  }
  for (int32_t e = 0; e < entities_.num_ids(); ++e) {
    out[size_t(e)] =
        static_cast<float>(-LpDistance(target, entities_.Of(e), 2));
  }
}

std::vector<ParameterBlock*> RotatE::Blocks() {
  return {entities_.block(), phases_.block()};
}

void RotatE::AccumulateGradients(const Triple& triple, float dscore,
                                 GradientBuffer* grads) {
  const int32_t d = dim();
  const EmbeddingStore& entities = entities_;
  const auto h = entities.Of(triple.head);
  const auto t = entities.Of(triple.tail);
  const auto theta = std::as_const(phases_).Of(triple.relation);
  std::span<float> gh = grads->GradFor(kEntityBlock, triple.head);
  std::span<float> gt = grads->GradFor(kEntityBlock, triple.tail);
  std::span<float> gtheta = grads->GradFor(kPhaseBlock, triple.relation);

  for (int32_t i = 0; i < d; ++i) {
    const float c = std::cos(theta[size_t(i)]);
    const float s = std::sin(theta[size_t(i)]);
    const float h_re = h[size_t(i)];
    const float h_im = h[size_t(d + i)];
    const float hr_re = h_re * c - h_im * s;
    const float hr_im = h_re * s + h_im * c;
    const float diff_re = hr_re - t[size_t(i)];
    const float diff_im = hr_im - t[size_t(d + i)];
    // g = dscore * dS/ddiff = -2 * dscore * diff.
    const float g_re = -2.0f * dscore * diff_re;
    const float g_im = -2.0f * dscore * diff_im;
    // Chain into h (inverse rotation of g), t, and θ.
    gh[size_t(i)] += g_re * c + g_im * s;
    gh[size_t(d + i)] += -g_re * s + g_im * c;
    gt[size_t(i)] -= g_re;
    gt[size_t(d + i)] -= g_im;
    gtheta[size_t(i)] += g_re * (-hr_im) + g_im * hr_re;
  }
}

std::unique_ptr<RotatE> MakeRotatE(int32_t num_entities,
                                   int32_t num_relations, int32_t dim,
                                   std::optional<uint64_t> seed) {
  return std::make_unique<RotatE>(num_entities, num_relations, dim, seed);
}

}  // namespace kge
