// ConvE (Dettmers et al. 2018), the paper's example of recent
// convolutional KGE models (§2.2.2). The head and relation embeddings
// are reshaped into 2D grids, stacked, convolved, and projected back to
// embedding space; the score is the dot product with the tail embedding
// plus a per-entity bias:
//
//   v = ReLU( W · vec( ReLU( conv2d([h̄; r̄]) ) ) + w₀ )
//   S(h, t, r) = v · t + b_t
//
// Tail queries share one forward pass across all candidates (v is
// computed once), like the trilinear fold; head queries need a full
// forward per candidate — ConvE's well-known asymmetry (the original
// implementation adds reversed relations instead).
#ifndef KGE_MODELS_CONVE_H_
#define KGE_MODELS_CONVE_H_

#include <memory>
#include <optional>
#include <string>

#include "core/embedding_store.h"
#include "models/kge_model.h"
#include "nn/conv2d.h"
#include "nn/dense_layer.h"
#include "util/hotpath.h"

namespace kge {

struct ConvEOptions {
  // Embedding dimension; must factor into the 2D grid below.
  int32_t dim = 64;
  int32_t grid_height = 8;  // grid_height * grid_width == dim
  int32_t grid_width = 8;
  int32_t num_filters = 8;   // 3x3 filters
};

class ConvE : public KgeModel {
 public:
  ConvE(int32_t num_entities, int32_t num_relations,
        const ConvEOptions& options, std::optional<uint64_t> seed);

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
  static constexpr size_t kConvFilters = 2;
  static constexpr size_t kConvBias = 3;
  static constexpr size_t kProjectionWeights = 4;
  static constexpr size_t kProjectionBias = 5;
  static constexpr size_t kEntityBias = 6;

 private:
  // Runs the conv stack for (head, relation); fills the caller-provided
  // activations (sized by the accessors below). Returns the projected
  // vector in `projected` (dim floats, post-ReLU).
  struct Activations {
    std::vector<float> input;       // stacked grids
    std::vector<float> conv_out;    // post-conv pre-ReLU? (we store post)
    std::vector<float> projected;   // post-FC post-ReLU
    std::vector<float> fc_out;      // post-FC pre-ReLU
  };
  void ForwardQuery(EntityId head, RelationId relation,
                    Activations* acts) const;

  std::string name_;
  ConvEOptions options_;
  EmbeddingStore entities_;
  EmbeddingStore relations_;
  Conv2dLayer conv_;
  DenseLayer projection_;
  ParameterBlock entity_bias_;  // num_entities rows of 1
};

std::unique_ptr<ConvE> MakeConvE(int32_t num_entities, int32_t num_relations,
                                 const ConvEOptions& options,
                                 std::optional<uint64_t> seed);

}  // namespace kge

#endif  // KGE_MODELS_CONVE_H_
