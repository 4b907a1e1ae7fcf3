// Model construction by name — the registry behind the CLI tools and
// grid-search drivers. `dim_budget` is the total number of embedding
// parameters per entity (the paper's fixed-budget comparison, §5.3); it
// is split across the model's embedding vectors, e.g. budget 400 gives
// DistMult 1x400, ComplEx 2x200, the quaternion model 4x100.
#ifndef KGE_MODELS_MODEL_FACTORY_H_
#define KGE_MODELS_MODEL_FACTORY_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "models/kge_model.h"
#include "util/status.h"

namespace kge {

// Known names: distmult, complex, cp, cph, simple, quaternion, transe-l1,
// transe-l2, transh, rescal, er-mlp, uniform, autoweight[-tanh|-sigmoid|
// -softmax][-sparse]. A seed initializes the parameters deterministically;
// std::nullopt builds the model uninitialized (every block zero and
// untouched, so its storage costs no time or memory) for a caller that
// loads every parameter next — the serving snapshot loader.
Result<std::unique_ptr<KgeModel>> MakeModelByName(
    const std::string& name, int32_t num_entities, int32_t num_relations,
    int32_t dim_budget, std::optional<uint64_t> seed);

// All registered model names, for --help output and sweeps.
std::vector<std::string> KnownModelNames();

}  // namespace kge

#endif  // KGE_MODELS_MODEL_FACTORY_H_
