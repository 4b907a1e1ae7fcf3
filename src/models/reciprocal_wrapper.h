// ReciprocalWrapper: the standard evaluation adapter for models trained
// on inverse-augmented data (Lacroix et al.'s protocol for CP, and
// ConvE's reciprocal relations): a head query (?, t, r) is answered as
// the tail query (t, ?, r_inverse) on the base model, where
// r_inverse = r + original_relation_count (kg/augmentation.h's mapping).
//
// This matters because an augmented model's head-side scan was never
// trained — all training queries are tail queries — so evaluating
// it directly understates the model (and is why plain CP + augmentation
// evaluated naively looks worse than CPh).
#ifndef KGE_MODELS_RECIPROCAL_WRAPPER_H_
#define KGE_MODELS_RECIPROCAL_WRAPPER_H_

#include <string>

#include "models/kge_model.h"
#include "util/hotpath.h"

namespace kge {

class ReciprocalWrapper : public KgeModel {
 public:
  // `base` must have been built with 2 * original_relations relations
  // (the augmented layout); it is borrowed, not owned.
  ReciprocalWrapper(KgeModel* base, int32_t original_relations);

  const std::string& name() const override { return name_; }
  int32_t num_entities() const override { return base_->num_entities(); }
  // Presents the ORIGINAL relation count to the evaluator.
  int32_t num_relations() const override { return original_relations_; }

  double Score(const Triple& triple) const override {
    return base_->Score(triple);
  }
  // Tail queries delegate unchanged; a head query becomes the
  // reciprocal tail query.
  KGE_HOT_NOALLOC
  void ScoreAll(QuerySide side, EntityId anchor, RelationId relation,
                std::span<float> out) const override;
  // Batched candidate scoring delegates unchanged, like Score: the
  // trainer only issues queries over the augmented relation set.
  KGE_HOT_NOALLOC
  void ScoreCandidates(QuerySide side, EntityId anchor, RelationId relation,
                       std::span<const EntityId> candidates,
                       std::span<float> out) const override {
    base_->ScoreCandidates(side, anchor, relation, candidates, out);
  }

  // Training-related methods delegate unchanged.
  std::vector<ParameterBlock*> Blocks() override { return base_->Blocks(); }
  KGE_HOT_NOALLOC
  void AccumulateGradients(const Triple& triple, float dscore,
                           GradientBuffer* grads) override {
    base_->AccumulateGradients(triple, dscore, grads);
  }
  int32_t EntityVectorDim() const override {
    return base_->EntityVectorDim();
  }
  KGE_HOT_NOALLOC
  void NormalizeAfterStep() override { base_->NormalizeAfterStep(); }
  void InitParameters(uint64_t seed) override {
    base_->InitParameters(seed);
  }
  void OnParametersLoaded() override { base_->OnParametersLoaded(); }

 private:
  KgeModel* base_;
  int32_t original_relations_;
  std::string name_;
};

}  // namespace kge

#endif  // KGE_MODELS_RECIPROCAL_WRAPPER_H_
