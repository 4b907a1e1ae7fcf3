#include "models/conve.h"

#include <algorithm>
#include <utility>

#include "math/vec_ops.h"
#include "util/check.h"
#include "util/scratch.h"
#include "util/string_utils.h"

namespace kge {

ConvE::ConvE(int32_t num_entities, int32_t num_relations,
             const ConvEOptions& options, std::optional<uint64_t> seed)
    : name_("ConvE"),
      options_(options),
      entities_("ConvE.entities", num_entities, 1, options.dim),
      relations_("ConvE.relations", num_relations, 1, options.dim),
      conv_("ConvE.conv", /*in_channels=*/1,
            /*in_height=*/2 * options.grid_height,
            /*in_width=*/options.grid_width, options.num_filters,
            /*kernel_height=*/3, /*kernel_width=*/3),
      projection_("ConvE.projection",
                  int32_t(conv_.output_size()), options.dim,
                  Activation::kLinear),
      entity_bias_("ConvE.entity_bias", num_entities, 1) {
  KGE_CHECK(options.grid_height * options.grid_width == options.dim);
  if (seed) InitParameters(*seed);
}

void ConvE::InitParameters(uint64_t seed) {
  Rng rng(seed);
  entities_.InitXavier(&rng);
  relations_.InitXavier(&rng);
  conv_.Init(&rng);
  projection_.Init(&rng);
  entity_bias_.Zero();
}

void ConvE::ForwardQuery(EntityId head, RelationId relation,
                         Activations* acts) const {
  const auto h = entities_.Of(head);
  const auto r = relations_.Of(relation);
  // Stack the two grids: channel 0 is [h-grid; r-grid] vertically.
  // kge-hotpath: allow(thread_local Activations high-water growth)
  acts->input.resize(size_t(conv_.input_size()));
  std::copy(h.begin(), h.end(), acts->input.begin());
  std::copy(r.begin(), r.end(),
            acts->input.begin() + std::ptrdiff_t(h.size()));

  // kge-hotpath: allow(thread_local Activations high-water growth)
  acts->conv_out.resize(size_t(conv_.output_size()));
  conv_.Forward(acts->input, acts->conv_out);
  Relu(acts->conv_out);

  // kge-hotpath: allow(thread_local Activations high-water growth)
  acts->fc_out.resize(size_t(dim()));
  projection_.Forward(acts->conv_out, acts->fc_out);
  acts->projected = acts->fc_out;
  Relu(acts->projected);
}

double ConvE::Score(const Triple& triple) const {
  // Activations hold their vectors across calls (resize becomes a no-op
  // after the first call on each thread), so scoring never allocates.
  static thread_local Activations acts;
  ForwardQuery(triple.head, triple.relation, &acts);
  return Dot(acts.projected, entities_.Of(triple.tail)) +
         double(entity_bias_.Row(triple.tail)[0]);
}

void ConvE::ScoreAll(QuerySide side, EntityId anchor, RelationId relation,
                     std::span<float> out) const {
  KGE_CHECK(out.size() == size_t(entities_.num_ids()));
  static thread_local Activations acts;
  if (side == QuerySide::kTail) {
    // One forward pass; per candidate only a dot product + bias (the
    // 1-N scoring efficiency ConvE is trained with). The dots run as one
    // batched pass over the entity table, then the bias column is added.
    ForwardQuery(anchor, relation, &acts);
    DotBatch(acts.projected, entities_.block().Flat(), out);
    Axpy(1.0f, entity_bias_.Flat(), out);
    return;
  }
  // No shared computation across candidate heads: full forward each.
  const auto t = entities_.Of(anchor);
  const double tail_bias = double(entity_bias_.Row(anchor)[0]);
  for (int32_t e = 0; e < entities_.num_ids(); ++e) {
    ForwardQuery(e, relation, &acts);
    out[size_t(e)] = static_cast<float>(Dot(acts.projected, t) + tail_bias);
  }
}

std::vector<ParameterBlock*> ConvE::Blocks() {
  return {entities_.block(), relations_.block(), conv_.filters(),
          conv_.bias(),      projection_.weights(), projection_.bias(),
          &entity_bias_};
}

void ConvE::AccumulateGradients(const Triple& triple, float dscore,
                                GradientBuffer* grads) {
  static thread_local Activations acts;
  ForwardQuery(triple.head, triple.relation, &acts);
  const auto t = std::as_const(entities_).Of(triple.tail);

  // dS/db_t = 1; dS/dt = projected; dS/dprojected = t.
  grads->GradFor(kEntityBias, triple.tail)[0] += dscore;
  std::span<float> gt = grads->GradFor(kEntityBlock, triple.tail);
  Axpy(dscore, acts.projected, gt);

  static thread_local std::vector<float> dprojected_buf, dfc_buf, dconv_buf,
      dconv_pre_buf, dinput_buf;
  const std::span<float> dprojected =
      ScratchSpan(dprojected_buf, size_t(dim()));
  const std::span<float> dfc = ScratchSpan(dfc_buf, size_t(dim()));
  std::fill(dfc.begin(), dfc.end(), 0.0f);
  for (size_t i = 0; i < dprojected.size(); ++i) {
    dprojected[i] = dscore * t[i];
  }
  // Back through the output ReLU (projected = ReLU(fc_out)).
  ReluBackward(acts.projected, dprojected, dfc);

  // Back through the projection layer into the conv activations.
  const std::span<float> dconv =
      ScratchSpan(dconv_buf, size_t(conv_.output_size()));
  std::fill(dconv.begin(), dconv.end(), 0.0f);
  projection_.Backward(acts.conv_out, acts.fc_out, dfc, grads,
                       kProjectionWeights, kProjectionBias, dconv);

  // Back through the conv ReLU (conv_out stored post-ReLU).
  const std::span<float> dconv_pre =
      ScratchSpan(dconv_pre_buf, size_t(conv_.output_size()));
  std::fill(dconv_pre.begin(), dconv_pre.end(), 0.0f);
  ReluBackward(acts.conv_out, dconv, dconv_pre);

  // Back through the convolution into the stacked input grids.
  const std::span<float> dinput =
      ScratchSpan(dinput_buf, size_t(conv_.input_size()));
  std::fill(dinput.begin(), dinput.end(), 0.0f);
  conv_.Backward(acts.input, dconv_pre, grads, kConvFilters, kConvBias,
                 dinput);

  // Split the input gradient into head and relation parts.
  std::span<float> gh = grads->GradFor(kEntityBlock, triple.head);
  std::span<float> gr = grads->GradFor(kRelationBlock, triple.relation);
  const size_t d = size_t(dim());
  for (size_t i = 0; i < d; ++i) {
    gh[i] += dinput[i];
    gr[i] += dinput[d + i];
  }
}

std::unique_ptr<ConvE> MakeConvE(int32_t num_entities, int32_t num_relations,
                                 const ConvEOptions& options,
                                 std::optional<uint64_t> seed) {
  return std::make_unique<ConvE>(num_entities, num_relations, options, seed);
}

}  // namespace kge
