// TransE (Bordes et al. 2013), the representative translation-based model
// of the paper's §2.2.1, implemented as a baseline outside the
// trilinear-product family:
//
//   S(h, t, r) = −||h + r − t||_p ,  p ∈ {1, 2}
//
// (for p = 2 we use the squared distance, which is the differentiable
// form commonly trained). Included to contrast the categories the paper
// describes: translation-based models cannot represent some relational
// patterns the trilinear family can (e.g. non-trivial symmetry forces
// r ≈ 0).
#ifndef KGE_MODELS_TRANSE_H_
#define KGE_MODELS_TRANSE_H_

#include <memory>
#include <optional>
#include <string>

#include "core/embedding_store.h"
#include "models/kge_model.h"
#include "util/hotpath.h"

namespace kge {

class TransE : public KgeModel {
 public:
  TransE(int32_t num_entities, int32_t num_relations, int32_t dim, int norm_p,
         std::optional<uint64_t> seed);

  const std::string& name() const override { return name_; }
  int32_t num_entities() const override { return entities_.num_ids(); }
  int32_t num_relations() const override { return relations_.num_ids(); }
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
  std::string name_;
  int norm_p_;
  EmbeddingStore entities_;
  EmbeddingStore relations_;
};

std::unique_ptr<TransE> MakeTransE(int32_t num_entities,
                                   int32_t num_relations, int32_t dim,
                                   int norm_p, std::optional<uint64_t> seed);

}  // namespace kge

#endif  // KGE_MODELS_TRANSE_H_
