#include "models/transe.h"

#include <cmath>
#include <utility>
#include <vector>

#include "math/vec_ops.h"
#include "util/check.h"
#include "util/scratch.h"
#include "util/string_utils.h"

namespace kge {

TransE::TransE(int32_t num_entities, int32_t num_relations, int32_t dim,
               int norm_p, std::optional<uint64_t> seed)
    : name_(StrFormat("TransE-L%d", norm_p)),
      norm_p_(norm_p),
      entities_("TransE.entities", num_entities, 1, dim),
      relations_("TransE.relations", num_relations, 1, dim) {
  KGE_CHECK(norm_p == 1 || norm_p == 2);
  if (seed) InitParameters(*seed);
}

void TransE::InitParameters(uint64_t seed) {
  Rng rng(seed);
  entities_.InitXavier(&rng);
  relations_.InitXavier(&rng);
}

double TransE::Score(const Triple& triple) const {
  const auto h = entities_.Of(triple.head);
  const auto t = entities_.Of(triple.tail);
  const auto r = relations_.Of(triple.relation);
  double distance = 0.0;
  if (norm_p_ == 1) {
    for (size_t d = 0; d < h.size(); ++d) {
      distance += std::fabs(double(h[d]) + double(r[d]) - double(t[d]));
    }
  } else {
    for (size_t d = 0; d < h.size(); ++d) {
      const double diff = double(h[d]) + double(r[d]) - double(t[d]);
      distance += diff * diff;
    }
  }
  return -distance;
}

void TransE::ScoreAll(QuerySide side, EntityId anchor, RelationId relation,
                      std::span<float> out) const {
  KGE_CHECK(out.size() == size_t(entities_.num_ids()));
  // ||h + r − t|| = ||(h + r) − t|| = ||(t − r) − h||: translate the
  // anchor once, then one distance per candidate.
  const auto a = entities_.Of(anchor);
  const auto r = relations_.Of(relation);
  static thread_local std::vector<float> target_buf;
  const std::span<float> target = ScratchSpan(target_buf, a.size());
  if (side == QuerySide::kTail) {
    for (size_t d = 0; d < a.size(); ++d) target[d] = a[d] + r[d];
  } else {
    for (size_t d = 0; d < a.size(); ++d) target[d] = a[d] - r[d];
  }
  for (int32_t e = 0; e < entities_.num_ids(); ++e) {
    out[size_t(e)] =
        static_cast<float>(-LpDistance(target, entities_.Of(e), norm_p_));
  }
}

std::vector<ParameterBlock*> TransE::Blocks() {
  return {entities_.block(), relations_.block()};
}

void TransE::AccumulateGradients(const Triple& triple, float dscore,
                                 GradientBuffer* grads) {
  const EmbeddingStore& entities = entities_;
  const auto h = entities.Of(triple.head);
  const auto t = entities.Of(triple.tail);
  const auto r = std::as_const(relations_).Of(triple.relation);
  std::span<float> gh = grads->GradFor(kEntityBlock, triple.head);
  std::span<float> gt = grads->GradFor(kEntityBlock, triple.tail);
  std::span<float> gr = grads->GradFor(kRelationBlock, triple.relation);
  for (size_t d = 0; d < h.size(); ++d) {
    const double diff = double(h[d]) + double(r[d]) - double(t[d]);
    double ddiff;  // ∂S/∂diff
    if (norm_p_ == 1) {
      ddiff = diff > 0.0 ? -1.0 : (diff < 0.0 ? 1.0 : 0.0);
    } else {
      ddiff = -2.0 * diff;
    }
    const float g = dscore * static_cast<float>(ddiff);
    gh[d] += g;
    gr[d] += g;
    gt[d] -= g;
  }
}

std::unique_ptr<TransE> MakeTransE(int32_t num_entities,
                                   int32_t num_relations, int32_t dim,
                                   int norm_p, std::optional<uint64_t> seed) {
  return std::make_unique<TransE>(num_entities, num_relations, dim, norm_p,
                                  seed);
}

}  // namespace kge
