// RESCAL (Nickel et al. 2011), cited by the paper (§2.2.2) as the
// bilinear model that NTN generalizes. Included as the full-bilinear
// contrast to the trilinear family: the relation is a dense D×D matrix
// instead of diag(r),
//
//   S(h, t, r) = hᵀ W_r t = Σ_{a,b} h_a · W_r[a,b] · t_b
//
// which is strictly more expressive per relation but costs O(D²)
// parameters and compute per relation — the inefficiency the
// trilinear-product family (Eq. 3) removes.
#ifndef KGE_MODELS_RESCAL_H_
#define KGE_MODELS_RESCAL_H_

#include <memory>
#include <optional>
#include <string>

#include "core/embedding_store.h"
#include "models/kge_model.h"
#include "util/hotpath.h"

namespace kge {

class Rescal : public KgeModel {
 public:
  Rescal(int32_t num_entities, int32_t num_relations, int32_t dim,
         std::optional<uint64_t> seed);

  const std::string& name() const override { return name_; }
  int32_t num_entities() const override { return entities_.num_ids(); }
  int32_t num_relations() const override {
    return int32_t(relation_matrices_.num_rows());
  }
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
  void InitParameters(uint64_t seed) override;

  static constexpr size_t kEntityBlock = 0;
  static constexpr size_t kRelationBlock = 1;

 private:
  // W_r stored row-major: W[a * dim + b].
  std::span<const float> MatrixOf(RelationId relation) const {
    return relation_matrices_.Row(relation);
  }

  std::string name_;
  EmbeddingStore entities_;
  ParameterBlock relation_matrices_;  // one row of dim*dim per relation
};

std::unique_ptr<Rescal> MakeRescal(int32_t num_entities,
                                   int32_t num_relations, int32_t dim,
                                   std::optional<uint64_t> seed);

}  // namespace kge

#endif  // KGE_MODELS_RESCAL_H_
