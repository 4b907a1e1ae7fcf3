#include "models/octonion_model.h"

#include <array>
#include <vector>

#include "math/octonion.h"
#include "util/check.h"
#include "util/string_utils.h"

namespace kge {

const char* OctonionAssociationToString(OctonionAssociation association) {
  switch (association) {
    case OctonionAssociation::kLeft:
      return "Re((h*conj(t))*r)";
    case OctonionAssociation::kRight:
      return "Re(h*(conj(t)*r))";
  }
  return "?";
}

WeightTable DeriveOctonionWeightTable(OctonionAssociation association) {
  std::array<Octonion, 8> basis;
  for (int i = 0; i < 8; ++i) {
    std::array<double, 8> c{};
    c[size_t(i)] = 1.0;
    basis[size_t(i)] = Octonion::FromComponents(c);
  }
  WeightTable table(8, 8);
  std::vector<float> flat(static_cast<size_t>(table.size()), 0.0f);
  for (int32_t i = 0; i < 8; ++i) {
    for (int32_t j = 0; j < 8; ++j) {
      for (int32_t k = 0; k < 8; ++k) {
        const Octonion product =
            association == OctonionAssociation::kLeft
                ? (basis[size_t(i)] * basis[size_t(j)].Conjugate()) *
                      basis[size_t(k)]
                : basis[size_t(i)] *
                      (basis[size_t(j)].Conjugate() * basis[size_t(k)]);
        flat[static_cast<size_t>(table.Index(i, j, k))] =
            static_cast<float>(product.real());
      }
    }
  }
  table.SetFlat(flat);
  return table;
}

std::unique_ptr<MultiEmbeddingModel> MakeOctonionModel(
    int32_t num_entities, int32_t num_relations, int32_t dim,
    std::optional<uint64_t> seed,
    OctonionAssociation association) {
  std::string name = "Octonion";
  if (association != OctonionAssociation::kLeft) {
    name += StrFormat("[%s]", OctonionAssociationToString(association));
  }
  return std::make_unique<MultiEmbeddingModel>(
      std::move(name), num_entities, num_relations, dim,
      DeriveOctonionWeightTable(association), seed);
}

}  // namespace kge
