#include "models/reciprocal_wrapper.h"

#include "kg/augmentation.h"
#include "util/check.h"

namespace kge {

ReciprocalWrapper::ReciprocalWrapper(KgeModel* base,
                                     int32_t original_relations)
    : base_(base),
      original_relations_(original_relations),
      name_(base->name() + "+reciprocal") {
  KGE_CHECK(base_ != nullptr);
  KGE_CHECK(base_->num_relations() == 2 * original_relations);
}

void ReciprocalWrapper::ScoreAll(QuerySide side, EntityId anchor,
                                 RelationId relation,
                                 std::span<float> out) const {
  if (side == QuerySide::kTail) {
    base_->ScoreAll(side, anchor, relation, out);
    return;
  }
  KGE_CHECK(relation >= 0 && relation < original_relations_);
  base_->ScoreAll(QuerySide::kTail, anchor,
                  AugmentedRelationOf(relation, original_relations_), out);
}

}  // namespace kge
