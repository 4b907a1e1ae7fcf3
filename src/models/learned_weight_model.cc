#include "models/learned_weight_model.h"

#include <utility>

#include "core/interaction.h"
#include "util/check.h"

namespace kge {
namespace {

WeightTable InitialTable(const LearnedWeightOptions& options) {
  // Placeholder; the real ω is installed by RefreshWeights().
  return WeightTable(options.ne, options.nr);
}

}  // namespace

LearnedWeightModel::LearnedWeightModel(std::string name, int32_t num_entities,
                                       int32_t num_relations, int32_t dim,
                                       const LearnedWeightOptions& options,
                                       std::optional<uint64_t> seed)
    : MultiEmbeddingModel(std::move(name), num_entities, num_relations, dim,
                          InitialTable(options), seed),
      options_(options),
      raw_weights_("omega_raw", 1,
                   int64_t(options.ne) * options.ne * options.nr),
      omega_grad_(size_t(options.ne) * size_t(options.ne) * size_t(options.nr),
                  0.0f),
      omega_scratch_(omega_grad_.size()),
      restriction_scratch_(kRestrictionScratchPerWeight * omega_grad_.size()) {
  if (seed) {
    for (float& x : raw_weights_.Row(0)) x = options_.initial_raw_weight;
  }
  RefreshWeights();
}

void LearnedWeightModel::InitParameters(uint64_t seed) {
  MultiEmbeddingModel::InitParameters(seed);
  // raw_weights_ is not yet constructed when the base constructor invokes
  // the base InitParameters; on explicit calls reset it too.
  if (raw_weights_.size() > 0) {
    for (float& x : raw_weights_.Row(0)) x = options_.initial_raw_weight;
    RefreshWeights();
  }
}

std::vector<ParameterBlock*> LearnedWeightModel::Blocks() {
  std::vector<ParameterBlock*> blocks = MultiEmbeddingModel::Blocks();
  KGE_CHECK(blocks.size() == kOmegaBlock);
  blocks.push_back(&raw_weights_);
  return blocks;
}

void LearnedWeightModel::RefreshWeights() {
  ApplyRestriction(options_.restriction, std::as_const(raw_weights_).Row(0),
                   omega_scratch_, restriction_scratch_);
  SetWeights(omega_scratch_);
}

void LearnedWeightModel::BeginBatch() {
  RefreshWeights();
  std::fill(omega_grad_.begin(), omega_grad_.end(), 0.0f);
}

void LearnedWeightModel::AccumulateGradients(const Triple& triple,
                                             float dscore,
                                             GradientBuffer* grads) {
  // Embedding gradients via the shared engine (uses the current ω).
  MultiEmbeddingModel::AccumulateGradients(triple, dscore, grads);
  // dL/dω accumulates locally; chained through f at FinishBatch.
  const EmbeddingStore& entities = std::as_const(*this).entity_store();
  AccumulateOmegaGradients(weights(), dim(), entities.Of(triple.head),
                           entities.Of(triple.tail),
                           std::as_const(*this).relation_store().Of(
                               triple.relation),
                           dscore, omega_grad_);
}

double LearnedWeightModel::FinishBatch(GradientBuffer* grads) {
  // ω as BeginBatch installed it; nothing below changes the table.
  const std::span<const float> omega = weights().Flat();
  double extra_loss = 0.0;
  if (options_.dirichlet.has_value()) {
    extra_loss = DirichletNll(omega, *options_.dirichlet);
    AddDirichletGradient(omega, *options_.dirichlet, omega_grad_);
  }
  std::span<float> raw_grad = grads->GradFor(kOmegaBlock, 0);
  RestrictionBackward(options_.restriction, omega, omega_grad_, raw_grad,
                      restriction_scratch_);
  return extra_loss;
}

std::vector<float> LearnedWeightModel::CurrentOmega() const {
  const auto flat = weights().Flat();
  return std::vector<float>(flat.begin(), flat.end());
}

std::unique_ptr<LearnedWeightModel> MakeLearnedWeightModel(
    int32_t num_entities, int32_t num_relations, int32_t dim,
    const LearnedWeightOptions& options, std::optional<uint64_t> seed) {
  std::string name = "AutoWeight[";
  name += RestrictionKindToString(options.restriction);
  if (options.dirichlet.has_value()) name += ",sparse";
  name += "]";
  return std::make_unique<LearnedWeightModel>(std::move(name), num_entities,
                                              num_relations, dim, options,
                                              seed);
}

}  // namespace kge
