// LearnedWeightModel (§3.3): the multi-embedding interaction model with a
// trainable weight vector ω learned end-to-end together with the
// embeddings. ω = f(ρ) for raw parameters ρ under a configurable range
// restriction f ∈ {none, tanh, sigmoid, softmax}, optionally with the
// Dirichlet negative log-likelihood sparsity regularizer of Eq. (12).
#ifndef KGE_MODELS_LEARNED_WEIGHT_MODEL_H_
#define KGE_MODELS_LEARNED_WEIGHT_MODEL_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/dirichlet_regularizer.h"
#include "core/restriction.h"
#include "models/trilinear_models.h"

namespace kge {

struct LearnedWeightOptions {
  int32_t ne = 2;  // number of entity embedding vectors
  int32_t nr = 2;  // number of relation embedding vectors
  RestrictionKind restriction = RestrictionKind::kNone;
  // Engaged => add the Dirichlet sparsity loss on ω.
  std::optional<DirichletOptions> dirichlet;
  // Initial value of every raw weight ρ_m (the paper's uniform start; the
  // observation that training barely moves ω off uniform is one of its
  // findings).
  float initial_raw_weight = 1.0f;
};

class LearnedWeightModel : public MultiEmbeddingModel {
 public:
  LearnedWeightModel(std::string name, int32_t num_entities,
                     int32_t num_relations, int32_t dim,
                     const LearnedWeightOptions& options,
                     std::optional<uint64_t> seed);

  std::vector<ParameterBlock*> Blocks() override;
  void BeginBatch() override;
  void AccumulateGradients(const Triple& triple, float dscore,
                           GradientBuffer* grads) override;
  double FinishBatch(GradientBuffer* grads) override;
  void InitParameters(uint64_t seed) override;
  // ω is derived from ρ, so a loaded ρ needs a refresh.
  void OnParametersLoaded() override { RefreshWeights(); }
  // AccumulateGradients writes the shared omega_grad_ accumulator.
  bool SupportsParallelGradients() const override { return false; }

  // Current ω = f(ρ) (valid after BeginBatch / RefreshWeights).
  std::vector<float> CurrentOmega() const;
  // Recomputes ω from ρ outside of training (e.g. before evaluation).
  void RefreshWeights();

  static constexpr size_t kOmegaBlock = 2;

 private:
  LearnedWeightOptions options_;
  ParameterBlock raw_weights_;        // ρ, one row of ne*ne*nr floats
  std::vector<float> omega_grad_;     // dL/dω accumulated over the batch
  // Per-batch working memory, sized once so training never allocates:
  // f(ρ) before it is installed in the weight table, and the double
  // buffers of the softmax restriction.
  std::vector<float> omega_scratch_;
  std::vector<double> restriction_scratch_;
};

// Factory with a descriptive name, e.g.
// "AutoWeight[softmax,sparse]" for Table 3 rows.
std::unique_ptr<LearnedWeightModel> MakeLearnedWeightModel(
    int32_t num_entities, int32_t num_relations, int32_t dim,
    const LearnedWeightOptions& options, std::optional<uint64_t> seed);

}  // namespace kge

#endif  // KGE_MODELS_LEARNED_WEIGHT_MODEL_H_
