// FreebaseLikeGenerator: a denser, typed synthetic knowledge graph in the
// style of FB15k (the other standard benchmark family the paper's line
// of work evaluates on). Compared with the WordNet-like graph it has:
//
//   * typed entities (person / film / location / organization / genre),
//   * many more relations with type signatures (director_of, acted_in,
//     born_in, located_in, has_genre, ...),
//   * heavier N-N structure and hub entities,
//   * a configurable fraction of relations with explicit inverses
//     (FB15k's well-known inverse leakage).
//
// Used by tests and benches to check that the paper's model ordering is
// not an artifact of the WordNet-style taxonomy shape.
#ifndef KGE_DATAGEN_FREEBASE_LIKE_GENERATOR_H_
#define KGE_DATAGEN_FREEBASE_LIKE_GENERATOR_H_

#include "kg/dataset.h"

namespace kge {

// The fewest entities the generator accepts.
inline constexpr int32_t kFreebaseMinEntities = 200;

struct FreebaseLikeOptions {
  int32_t num_entities = 3000;
  // Fraction of relations that get a paired inverse relation.
  double inverse_fraction = 0.6;
  double valid_fraction = 0.04;
  double test_fraction = 0.04;
  uint64_t seed = 77;
};

Dataset GenerateFreebaseLike(const FreebaseLikeOptions& options);

}  // namespace kge

#endif  // KGE_DATAGEN_FREEBASE_LIKE_GENERATOR_H_
