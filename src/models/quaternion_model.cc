#include "models/quaternion_model.h"

#include <vector>

#include "math/quaternion.h"
#include "util/check.h"
#include "util/string_utils.h"

namespace kge {

const char* QuaternionProductOrderToString(QuaternionProductOrder order) {
  switch (order) {
    case QuaternionProductOrder::kHConjTR:
      return "Re(h*conj(t)*r)";
    case QuaternionProductOrder::kHRConjT:
      return "Re(h*r*conj(t))";
    case QuaternionProductOrder::kRHConjT:
      return "Re(r*h*conj(t))";
  }
  return "?";
}

WeightTable DeriveQuaternionWeightTable(QuaternionProductOrder order) {
  // Basis quaternions 1, i, j, k.
  const Quaternion basis[4] = {
      {1, 0, 0, 0}, {0, 1, 0, 0}, {0, 0, 1, 0}, {0, 0, 0, 1}};
  WeightTable table(4, 4);
  std::vector<float> flat(static_cast<size_t>(table.size()), 0.0f);
  for (int32_t i = 0; i < 4; ++i) {
    for (int32_t j = 0; j < 4; ++j) {
      for (int32_t k = 0; k < 4; ++k) {
        Quaternion product;
        switch (order) {
          case QuaternionProductOrder::kHConjTR:
            product = basis[i] * basis[j].Conjugate() * basis[k];
            break;
          case QuaternionProductOrder::kHRConjT:
            product = basis[i] * basis[k] * basis[j].Conjugate();
            break;
          case QuaternionProductOrder::kRHConjT:
            product = basis[k] * basis[i] * basis[j].Conjugate();
            break;
        }
        // The coefficient of the real part of h(i)*t(j)*r(k) in the
        // expanded score, per Eq. (14)'s derivation.
        flat[static_cast<size_t>(table.Index(i, j, k))] =
            static_cast<float>(product.a);
      }
    }
  }
  table.SetFlat(flat);
  return table;
}

std::unique_ptr<MultiEmbeddingModel> MakeQuaternionModel(
    int32_t num_entities, int32_t num_relations, int32_t dim,
    std::optional<uint64_t> seed,
    QuaternionProductOrder order) {
  std::string name = "Quaternion";
  if (order != QuaternionProductOrder::kHConjTR) {
    name += StrFormat("[%s]", QuaternionProductOrderToString(order));
  }
  return std::make_unique<MultiEmbeddingModel>(
      std::move(name), num_entities, num_relations, dim,
      DeriveQuaternionWeightTable(order), seed);
}

}  // namespace kge
