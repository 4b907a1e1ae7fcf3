// TransH (Wang et al. 2014), cited by the paper (§2.2.1) as a
// representative extension of TransE: entities are translated on a
// relation-specific hyperplane, which lets a single entity embedding play
// different roles per relation:
//
//   h⊥ = h − (w_rᵀ h) w_r ,  t⊥ = t − (w_rᵀ t) w_r
//   S(h, t, r) = −|| h⊥ + d_r − t⊥ ||²
//
// with w_r kept at unit norm. Relative to TransE this fixes the
// 1-N/N-1 collapse (all tails of a 1-N relation being forced to the same
// point) while remaining a translation-based model.
#ifndef KGE_MODELS_TRANSH_H_
#define KGE_MODELS_TRANSH_H_

#include <memory>
#include <optional>
#include <string>

#include "core/embedding_store.h"
#include "models/kge_model.h"
#include "util/hotpath.h"

namespace kge {

class TransH : public KgeModel {
 public:
  TransH(int32_t num_entities, int32_t num_relations, int32_t dim,
         std::optional<uint64_t> seed);

  const std::string& name() const override { return name_; }
  int32_t num_entities() const override { return entities_.num_ids(); }
  int32_t num_relations() const override { return translations_.num_ids(); }
  int32_t dim() const { return entities_.dim(); }

  double Score(const Triple& triple) const override;
  KGE_HOT_NOALLOC
  void ScoreAll(QuerySide side, EntityId anchor, RelationId relation,
                std::span<float> out) const override;

  std::vector<ParameterBlock*> Blocks() override;
  KGE_HOT_NOALLOC
  void AccumulateGradients(const Triple& triple, float dscore,
                           GradientBuffer* grads) override;
  int32_t EntityVectorDim() const override { return entities_.dim(); }
  // Re-normalizes all hyperplane normals w_r to unit length (the TransH
  // constraint) once per step, after the entity rows.
  KGE_HOT_NOALLOC
  void NormalizeAfterStep() override;
  void InitParameters(uint64_t seed) override;

  static constexpr size_t kEntityBlock = 0;
  static constexpr size_t kTranslationBlock = 1;
  static constexpr size_t kNormalBlock = 2;

 private:
  std::string name_;
  EmbeddingStore entities_;
  EmbeddingStore translations_;  // d_r
  EmbeddingStore normals_;       // w_r, unit norm

  // Writes h⊥ + d − t⊥ into diff.
  void ProjectedDifference(std::span<const float> h, std::span<const float> t,
                           RelationId relation, std::span<float> diff) const;
};

std::unique_ptr<TransH> MakeTransH(int32_t num_entities,
                                   int32_t num_relations, int32_t dim,
                                   std::optional<uint64_t> seed);

}  // namespace kge

#endif  // KGE_MODELS_TRANSH_H_
