// ER-MLP (Dong et al. 2014, "Knowledge Vault"), the paper's example of
// the neural-network-based category (§2.2.2): concatenate the three
// embedding vectors and score with a multi-layer perceptron,
//
//   S(h, t, r) = w₂ᵀ · tanh(W₁ · [h; t; r] + b₁) + b₂ .
//
// Included to make the paper's three-category taxonomy executable and to
// exhibit the trade-off it describes: a universal approximator that is
// harder to interpret and much more expensive to rank with (no fold
// trick — every candidate needs a full forward pass).
#ifndef KGE_MODELS_ER_MLP_H_
#define KGE_MODELS_ER_MLP_H_

#include <memory>
#include <optional>
#include <string>

#include "core/embedding_store.h"
#include "models/kge_model.h"
#include "nn/dense_layer.h"
#include "util/hotpath.h"

namespace kge {

class ErMlp : public KgeModel {
 public:
  ErMlp(int32_t num_entities, int32_t num_relations, int32_t dim,
        int32_t hidden_dim, std::optional<uint64_t> seed);

  const std::string& name() const override { return name_; }
  int32_t num_entities() const override { return entities_.num_ids(); }
  int32_t num_relations() const override { return relations_.num_ids(); }
  int32_t dim() const { return entities_.dim(); }
  int32_t hidden_dim() const { return hidden_.out_dim(); }

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
  static constexpr size_t kHiddenWeights = 2;
  static constexpr size_t kHiddenBias = 3;
  static constexpr size_t kOutputWeights = 4;
  static constexpr size_t kOutputBias = 5;

 private:
  void Concatenate(std::span<const float> h, std::span<const float> t,
                   std::span<const float> r, std::span<float> x) const;

  std::string name_;
  EmbeddingStore entities_;
  EmbeddingStore relations_;
  DenseLayer hidden_;  // (3*dim) -> hidden, tanh
  DenseLayer output_;  // hidden -> 1, linear
};

std::unique_ptr<ErMlp> MakeErMlp(int32_t num_entities, int32_t num_relations,
                                 int32_t dim, int32_t hidden_dim,
                                 std::optional<uint64_t> seed);

}  // namespace kge

#endif  // KGE_MODELS_ER_MLP_H_
