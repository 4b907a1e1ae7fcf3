// Range restrictions on the learnable weight vector ω (§3.3): ω = f(ρ)
// for raw parameters ρ, with f ∈ {identity, tanh, sigmoid, softmax}.
// Backward() implements the exact chain rule dL/dρ from dL/dω; softmax
// needs the full Jacobian-vector product because its outputs are coupled.
#ifndef KGE_CORE_RESTRICTION_H_
#define KGE_CORE_RESTRICTION_H_

#include <cstddef>
#include <span>
#include <string>

#include "util/status.h"

namespace kge {

enum class RestrictionKind {
  kNone,     // ω = ρ, unrestricted
  kTanh,     // ω ∈ (−1, 1)
  kSigmoid,  // ω ∈ (0, 1)
  kSoftmax,  // ω ∈ (0, 1), Σω = 1
};

const char* RestrictionKindToString(RestrictionKind kind);
Result<RestrictionKind> RestrictionKindFromString(const std::string& name);

// omega_m = f(raw)_m; spans must have equal size.
void ApplyRestriction(RestrictionKind kind, std::span<const float> raw,
                      std::span<float> omega);

// Given omega = f(raw) (as produced by ApplyRestriction) and the upstream
// gradient dL/dω, accumulates (+=) dL/dρ into `raw_grad`.
void RestrictionBackward(RestrictionKind kind, std::span<const float> omega,
                         std::span<const float> omega_grad,
                         std::span<float> raw_grad);

// The same two functions with caller-owned working memory, for callers
// that run them every batch and must not allocate: the softmax kind
// computes in double through `scratch`, which must hold at least
// kRestrictionScratchPerWeight doubles per weight; the other kinds do
// not touch it. Identical arithmetic to the forms above.
inline constexpr size_t kRestrictionScratchPerWeight = 3;
void ApplyRestriction(RestrictionKind kind, std::span<const float> raw,
                      std::span<float> omega, std::span<double> scratch);
void RestrictionBackward(RestrictionKind kind, std::span<const float> omega,
                         std::span<const float> omega_grad,
                         std::span<float> raw_grad,
                         std::span<double> scratch);

}  // namespace kge

#endif  // KGE_CORE_RESTRICTION_H_
