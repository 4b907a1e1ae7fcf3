#include "core/restriction.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "math/activations.h"
#include "util/check.h"

namespace kge {

const char* RestrictionKindToString(RestrictionKind kind) {
  switch (kind) {
    case RestrictionKind::kNone:
      return "none";
    case RestrictionKind::kTanh:
      return "tanh";
    case RestrictionKind::kSigmoid:
      return "sigmoid";
    case RestrictionKind::kSoftmax:
      return "softmax";
  }
  return "?";
}

Result<RestrictionKind> RestrictionKindFromString(const std::string& name) {
  if (name == "none") return RestrictionKind::kNone;
  if (name == "tanh") return RestrictionKind::kTanh;
  if (name == "sigmoid") return RestrictionKind::kSigmoid;
  if (name == "softmax") return RestrictionKind::kSoftmax;
  return Status::InvalidArgument("unknown restriction: " + name);
}

void ApplyRestriction(RestrictionKind kind, std::span<const float> raw,
                      std::span<float> omega) {
  std::vector<double> scratch(
      kind == RestrictionKind::kSoftmax
          ? kRestrictionScratchPerWeight * raw.size()
          : 0);
  ApplyRestriction(kind, raw, omega, scratch);
}

void RestrictionBackward(RestrictionKind kind, std::span<const float> omega,
                         std::span<const float> omega_grad,
                         std::span<float> raw_grad) {
  std::vector<double> scratch(
      kind == RestrictionKind::kSoftmax
          ? kRestrictionScratchPerWeight * omega.size()
          : 0);
  RestrictionBackward(kind, omega, omega_grad, raw_grad, scratch);
}

void ApplyRestriction(RestrictionKind kind, std::span<const float> raw,
                      std::span<float> omega, std::span<double> scratch) {
  KGE_CHECK(raw.size() == omega.size());
  switch (kind) {
    case RestrictionKind::kNone:
      for (size_t m = 0; m < raw.size(); ++m) omega[m] = raw[m];
      return;
    case RestrictionKind::kTanh:
      for (size_t m = 0; m < raw.size(); ++m)
        omega[m] = static_cast<float>(std::tanh(double(raw[m])));
      return;
    case RestrictionKind::kSigmoid:
      for (size_t m = 0; m < raw.size(); ++m)
        omega[m] = static_cast<float>(Sigmoid(double(raw[m])));
      return;
    case RestrictionKind::kSoftmax: {
      const size_t n = raw.size();
      KGE_CHECK(scratch.size() >= 2 * n);
      const std::span<double> in = scratch.first(n);
      const std::span<double> out = scratch.subspan(n, n);
      std::copy(raw.begin(), raw.end(), in.begin());
      Softmax(in, out);
      for (size_t m = 0; m < n; ++m) omega[m] = static_cast<float>(out[m]);
      return;
    }
  }
}

void RestrictionBackward(RestrictionKind kind, std::span<const float> omega,
                         std::span<const float> omega_grad,
                         std::span<float> raw_grad,
                         std::span<double> scratch) {
  KGE_CHECK(omega.size() == omega_grad.size() &&
            omega.size() == raw_grad.size());
  switch (kind) {
    case RestrictionKind::kNone:
      for (size_t m = 0; m < omega.size(); ++m) raw_grad[m] += omega_grad[m];
      return;
    case RestrictionKind::kTanh:
      for (size_t m = 0; m < omega.size(); ++m) {
        raw_grad[m] += omega_grad[m] *
                       static_cast<float>(TanhDerivFromOutput(omega[m]));
      }
      return;
    case RestrictionKind::kSigmoid:
      for (size_t m = 0; m < omega.size(); ++m) {
        raw_grad[m] += omega_grad[m] *
                       static_cast<float>(SigmoidDerivFromOutput(omega[m]));
      }
      return;
    case RestrictionKind::kSoftmax: {
      const size_t n = omega.size();
      KGE_CHECK(scratch.size() >= 3 * n);
      const std::span<double> y = scratch.first(n);
      const std::span<double> g = scratch.subspan(n, n);
      const std::span<double> out = scratch.subspan(2 * n, n);
      std::copy(omega.begin(), omega.end(), y.begin());
      std::copy(omega_grad.begin(), omega_grad.end(), g.begin());
      SoftmaxBackward(y, g, out);
      for (size_t m = 0; m < n; ++m) {
        raw_grad[m] += static_cast<float>(out[m]);
      }
      return;
    }
  }
}

}  // namespace kge
