// RotatE (Sun et al. 2019) — rotation-based scoring in the complex
// plane, a natural companion to the paper's analysis: where ComplEx uses
// the complex trilinear product, RotatE keeps ComplEx's complex-valued
// entities but models the relation as a unit rotation and measures
// translation-style distance:
//
//   S(h, t, r) = −|| h ∘ e^{iθ_r} − t ||²   over C^D
//
// (∘ = elementwise complex multiplication; the relation parameter is the
// phase vector θ_r, so |r_d| = 1 by construction). Rotations compose,
// invert, and can be half-turns, so RotatE models composition, inversion,
// symmetry, and antisymmetry — the pattern checklist this repository's
// generators probe.
#ifndef KGE_MODELS_ROTATE_H_
#define KGE_MODELS_ROTATE_H_

#include <memory>
#include <optional>
#include <string>

#include "core/embedding_store.h"
#include "models/kge_model.h"
#include "util/hotpath.h"

namespace kge {

class RotatE : public KgeModel {
 public:
  // `dim` is the complex dimension: entities get 2*dim real parameters
  // (re, im), relations get dim phases.
  RotatE(int32_t num_entities, int32_t num_relations, int32_t dim,
         std::optional<uint64_t> seed);

  const std::string& name() const override { return name_; }
  int32_t num_entities() const override { return entities_.num_ids(); }
  int32_t num_relations() const override { return phases_.num_ids(); }
  int32_t dim() const { return phases_.dim(); }

  double Score(const Triple& triple) const override;
  KGE_HOT_NOALLOC
  void ScoreAll(QuerySide side, EntityId anchor, RelationId relation,
                std::span<float> out) const override;

  std::vector<ParameterBlock*> Blocks() override;
  KGE_HOT_NOALLOC
  void AccumulateGradients(const Triple& triple, float dscore,
                           GradientBuffer* grads) override;
  int32_t EntityVectorDim() const override { return entities_.dim(); }
  void InitParameters(uint64_t seed) override;

  static constexpr size_t kEntityBlock = 0;
  static constexpr size_t kPhaseBlock = 1;

 private:
  // Writes h rotated by relation's phases into (out_re, out_im).
  void RotateHead(std::span<const float> h, RelationId relation,
                  std::span<float> out_re, std::span<float> out_im) const;

  std::string name_;
  EmbeddingStore entities_;  // 2 vectors per id: [re | im]
  EmbeddingStore phases_;    // 1 vector of angles per relation
};

std::unique_ptr<RotatE> MakeRotatE(int32_t num_entities,
                                   int32_t num_relations, int32_t dim,
                                   std::optional<uint64_t> seed);

}  // namespace kge

#endif  // KGE_MODELS_ROTATE_H_
