// The eight-embedding interaction model over octonions — this library's
// realization of the paper's §7 future-work direction ("the effective
// extension to additional embedding vectors"), following the same recipe
// that produced the quaternion model from ComplEx:
//
//   S(h, t, r) = Re( (h ⊗ conj(t)) ⊗ r )  over O^D
//
// expanded into a 8x8x8 signed weight table on the shared
// multi-embedding engine. Octonions are non-associative, but the REAL
// PART of a triple product is association-independent (the associator of
// an alternative algebra is purely imaginary), so Re((h⊗t̄)⊗r) and
// Re(h⊗(t̄⊗r)) define the same score function — verified by test. The
// association enum is kept for the derivation API; both values yield the
// identical table.
#ifndef KGE_MODELS_OCTONION_MODEL_H_
#define KGE_MODELS_OCTONION_MODEL_H_

#include <memory>
#include <optional>

#include "core/weight_table.h"
#include "models/trilinear_models.h"

namespace kge {

enum class OctonionAssociation {
  kLeft,   // Re((h ⊗ t̄) ⊗ r)
  kRight,  // Re(h ⊗ (t̄ ⊗ r))
};

const char* OctonionAssociationToString(OctonionAssociation association);

// Expands Re over the octonion basis into the 512-entry table (64
// nonzero ±1 terms).
WeightTable DeriveOctonionWeightTable(OctonionAssociation association);

// Eight embedding vectors of `dim` dimensions each.
std::unique_ptr<MultiEmbeddingModel> MakeOctonionModel(
    int32_t num_entities, int32_t num_relations, int32_t dim,
    std::optional<uint64_t> seed,
    OctonionAssociation association = OctonionAssociation::kLeft);

}  // namespace kge

#endif  // KGE_MODELS_OCTONION_MODEL_H_
