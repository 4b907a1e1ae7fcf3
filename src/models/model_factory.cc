#include "models/model_factory.h"

#include <algorithm>

#include <cmath>

#include "models/conve.h"
#include "models/er_mlp.h"
#include "models/learned_weight_model.h"
#include "models/ntn.h"
#include "models/octonion_model.h"
#include "models/quaternion_model.h"
#include "models/rescal.h"
#include "models/rotate.h"
#include "models/transe.h"
#include "models/transh.h"
#include "models/trilinear_models.h"
#include "util/string_utils.h"

namespace kge {
namespace {

int32_t DimFor(int32_t dim_budget, int32_t num_vectors) {
  return std::max(1, dim_budget / num_vectors);
}

}  // namespace

Result<std::unique_ptr<KgeModel>> MakeModelByName(
    const std::string& name, int32_t num_entities, int32_t num_relations,
    int32_t dim_budget, std::optional<uint64_t> seed) {
  if (num_entities <= 0 || num_relations <= 0 || dim_budget <= 0) {
    return Status::InvalidArgument("bad model shape");
  }
  if (name == "distmult") {
    return std::unique_ptr<KgeModel>(MakeDistMult(
        num_entities, num_relations, DimFor(dim_budget, 1), seed));
  }
  if (name == "complex") {
    return std::unique_ptr<KgeModel>(MakeComplEx(
        num_entities, num_relations, DimFor(dim_budget, 2), seed));
  }
  if (name == "cp") {
    return std::unique_ptr<KgeModel>(
        MakeCp(num_entities, num_relations, DimFor(dim_budget, 2), seed));
  }
  if (name == "cph") {
    return std::unique_ptr<KgeModel>(
        MakeCph(num_entities, num_relations, DimFor(dim_budget, 2), seed));
  }
  if (name == "simple") {
    return std::unique_ptr<KgeModel>(MakeMultiEmbedding(
        "SimplE", num_entities, num_relations, DimFor(dim_budget, 2),
        WeightTable::SimplE(), seed));
  }
  if (name == "quaternion") {
    return std::unique_ptr<KgeModel>(MakeQuaternionModel(
        num_entities, num_relations, DimFor(dim_budget, 4), seed));
  }
  if (name == "octonion") {
    return std::unique_ptr<KgeModel>(MakeOctonionModel(
        num_entities, num_relations, DimFor(dim_budget, 8), seed));
  }
  if (name == "uniform") {
    return std::unique_ptr<KgeModel>(MakeMultiEmbedding(
        "Uniform", num_entities, num_relations, DimFor(dim_budget, 2),
        WeightTable::Uniform(2, 2), seed));
  }
  if (name == "transe-l1") {
    return std::unique_ptr<KgeModel>(MakeTransE(
        num_entities, num_relations, DimFor(dim_budget, 1), 1, seed));
  }
  if (name == "transe-l2") {
    return std::unique_ptr<KgeModel>(MakeTransE(
        num_entities, num_relations, DimFor(dim_budget, 1), 2, seed));
  }
  if (name == "transh") {
    return std::unique_ptr<KgeModel>(MakeTransH(
        num_entities, num_relations, DimFor(dim_budget, 1), seed));
  }
  if (name == "rescal") {
    return std::unique_ptr<KgeModel>(MakeRescal(
        num_entities, num_relations, DimFor(dim_budget, 1), seed));
  }
  if (name == "rotate") {
    // Complex dimension = budget / 2 (re + im per complex coordinate).
    return std::unique_ptr<KgeModel>(MakeRotatE(
        num_entities, num_relations, DimFor(dim_budget, 2), seed));
  }
  if (name == "er-mlp") {
    const int32_t dim = DimFor(dim_budget, 1);
    return std::unique_ptr<KgeModel>(MakeErMlp(
        num_entities, num_relations, dim, /*hidden_dim=*/dim, seed));
  }
  if (name == "ntn") {
    return std::unique_ptr<KgeModel>(MakeNtn(num_entities, num_relations,
                                             DimFor(dim_budget, 1),
                                             /*num_slices=*/2, seed));
  }
  if (name == "conve") {
    // Factor the budget into the squarest 2D grid (ConvE reshapes the
    // embedding into grid_height x grid_width).
    ConvEOptions options;
    options.dim = DimFor(dim_budget, 1);
    int32_t gh = int32_t(std::sqrt(double(options.dim)));
    while (gh > 1 && options.dim % gh != 0) --gh;
    options.grid_height = gh;
    options.grid_width = options.dim / gh;
    if (options.grid_height < 2 || options.grid_width < 3) {
      return Status::InvalidArgument(
          StrFormat("conve needs a dim budget that factors into a grid of "
                    "height>=2 (x2 stacked) and width>=3; got %d",
                    options.dim));
    }
    return std::unique_ptr<KgeModel>(
        MakeConvE(num_entities, num_relations, options, seed));
  }
  if (StartsWith(name, "autoweight")) {
    LearnedWeightOptions options;
    std::string rest = name.substr(std::string("autoweight").size());
    if (EndsWith(rest, "-sparse")) {
      options.dirichlet = DirichletOptions{};
      rest = rest.substr(0, rest.size() - std::string("-sparse").size());
    }
    if (rest.empty() || rest == "-none") {
      options.restriction = RestrictionKind::kNone;
    } else if (rest == "-tanh") {
      options.restriction = RestrictionKind::kTanh;
    } else if (rest == "-sigmoid") {
      options.restriction = RestrictionKind::kSigmoid;
    } else if (rest == "-softmax") {
      options.restriction = RestrictionKind::kSoftmax;
    } else {
      return Status::InvalidArgument("unknown autoweight variant: " + name);
    }
    return std::unique_ptr<KgeModel>(MakeLearnedWeightModel(
        num_entities, num_relations, DimFor(dim_budget, 2), options, seed));
  }
  return Status::NotFound("unknown model: " + name +
                          " (known: " + JoinStrings(KnownModelNames(), ", ") +
                          ")");
}

std::vector<std::string> KnownModelNames() {
  return {"distmult",  "complex",   "cp",
          "cph",       "simple",    "quaternion",
          "octonion",  "uniform",   "transe-l1", "transe-l2",
          "transh",    "rotate",    "rescal",    "er-mlp",
          "ntn",       "conve",     "autoweight", "autoweight-tanh",
          "autoweight-sigmoid", "autoweight-softmax", "autoweight-sparse"};
}

}  // namespace kge
