// The paper's quaternion-based four-embedding interaction model (§3.4):
// entities and relations are quaternion-valued vectors in H^D, scored by
// S = Re(⟨h, t̄, r⟩) (Eq. 13), realized as the 16-term weight table of
// Eq. (14) on the shared multi-embedding engine.
//
// DeriveQuaternionWeightTable() computes the table *from quaternion
// algebra* (expanding Re(e_i · conj(e_j) · e_k) over the basis
// {1, i, j, k}) rather than from the hardcoded Eq. (14) constants —
// tests assert both agree, mechanically re-deriving the paper's equation.
#ifndef KGE_MODELS_QUATERNION_MODEL_H_
#define KGE_MODELS_QUATERNION_MODEL_H_

#include <memory>
#include <optional>

#include "core/weight_table.h"
#include "models/trilinear_models.h"

namespace kge {

// Which Hamilton-product order the score uses; H is noncommutative, so
// these are genuinely different score functions (paper §3.4 notes the
// choice). The paper's Eq. (14) uses kHConjTR.
enum class QuaternionProductOrder {
  kHConjTR,  // Re(h · t̄ · r)
  kHRConjT,  // Re(h · r · t̄)
  kRHConjT,  // Re(r · h · t̄)
};

const char* QuaternionProductOrderToString(QuaternionProductOrder order);

// Expands Re(basis_i · conj(basis_j) · basis_k) into a 4x4x4 table.
WeightTable DeriveQuaternionWeightTable(QuaternionProductOrder order);

// The paper's model: four embedding vectors of `dim` dimensions each.
std::unique_ptr<MultiEmbeddingModel> MakeQuaternionModel(
    int32_t num_entities, int32_t num_relations, int32_t dim,
    std::optional<uint64_t> seed,
    QuaternionProductOrder order = QuaternionProductOrder::kHConjTR);

}  // namespace kge

#endif  // KGE_MODELS_QUATERNION_MODEL_H_
