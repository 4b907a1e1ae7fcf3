// NTN — Neural Tensor Network (Socher et al. 2013), cited by the paper
// (§2.2.2) as the earlier neural model that "employs nonlinear activation
// functions to generalize the linear model RESCAL":
//
//   S(h, t, r) = uᵣᵀ · tanh( hᵀ Wᵣ[1..k] t  +  Vᵣ [h; t]  +  bᵣ )
//
// with k tensor slices per relation. Each slice contributes a bilinear
// form hᵀ Wᵣ⁽ⁱ⁾ t (RESCAL's score); V adds a linear term and tanh + u
// the nonlinearity. Expressive but parameter-hungry: O(k·D²) per
// relation.
#ifndef KGE_MODELS_NTN_H_
#define KGE_MODELS_NTN_H_

#include <memory>
#include <optional>
#include <string>

#include "core/embedding_store.h"
#include "models/kge_model.h"
#include "util/hotpath.h"

namespace kge {

class Ntn : public KgeModel {
 public:
  Ntn(int32_t num_entities, int32_t num_relations, int32_t dim,
      int32_t num_slices, std::optional<uint64_t> seed);

  const std::string& name() const override { return name_; }
  int32_t num_entities() const override { return entities_.num_ids(); }
  int32_t num_relations() const override {
    return int32_t(relations_.num_rows());
  }
  int32_t dim() const { return entities_.dim(); }
  int32_t num_slices() const { return num_slices_; }

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
  // One relation row layout: [ W: k·D·D | V: k·2D | b: k | u: k ].
  struct RelationView {
    std::span<const float> w;  // k slices of D×D, row-major
    std::span<const float> v;  // k rows of 2D
    std::span<const float> b;  // k
    std::span<const float> u;  // k
  };
  RelationView ViewOf(RelationId relation) const;
  int64_t RowSize() const;

  // Computes per-slice pre-activations z[i] for (h, t, r).
  void SlicePreactivations(std::span<const float> h,
                           std::span<const float> t, RelationId relation,
                           std::span<double> z) const;

  std::string name_;
  int32_t num_slices_;
  EmbeddingStore entities_;
  ParameterBlock relations_;
};

std::unique_ptr<Ntn> MakeNtn(int32_t num_entities, int32_t num_relations,
                             int32_t dim, int32_t num_slices,
                             std::optional<uint64_t> seed);

}  // namespace kge

#endif  // KGE_MODELS_NTN_H_
