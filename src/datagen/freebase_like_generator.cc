#include "datagen/freebase_like_generator.h"

#include <algorithm>
#include <unordered_set>
#include <vector>

#include "datagen/split.h"
#include "util/check.h"
#include "util/random.h"
#include "util/string_utils.h"

namespace kge {
namespace {

enum EntityType {
  kPerson = 0,
  kFilm,
  kLocation,
  kOrganization,
  kGenre,
  kNumTypes,
};

const char* const kTypeNames[kNumTypes] = {"person", "film", "location",
                                           "organization", "genre"};

// Relation schema: subject type, object type, expected out-degree of the
// subject side, whether the object side is hub-like (few popular objects
// attract most edges).
struct RelationSpec {
  const char* name;
  EntityType subject;
  EntityType object;
  double subject_participation;  // fraction of subject entities with edges
  int max_out_degree;
  bool hub_objects;
};

constexpr RelationSpec kSchema[] = {
    {"/film/director", kPerson, kFilm, 0.10, 4, false},
    {"/film/actor", kPerson, kFilm, 0.50, 6, false},
    {"/film/producer", kPerson, kFilm, 0.08, 3, false},
    {"/film/genre", kFilm, kGenre, 0.90, 3, true},
    {"/film/country", kFilm, kLocation, 0.80, 1, true},
    {"/person/born_in", kPerson, kLocation, 0.85, 1, true},
    {"/person/lives_in", kPerson, kLocation, 0.60, 2, true},
    {"/person/nationality", kPerson, kLocation, 0.80, 1, true},
    {"/person/spouse", kPerson, kPerson, 0.20, 1, false},  // symmetric-ish
    {"/person/works_for", kPerson, kOrganization, 0.40, 2, true},
    {"/organization/headquarters", kOrganization, kLocation, 0.90, 1, true},
    {"/location/contains", kLocation, kLocation, 0.30, 4, false},
    {"/organization/founded_by", kOrganization, kPerson, 0.30, 2, false},
    {"/film/sequel", kFilm, kFilm, 0.10, 1, false},
    {"/person/award", kPerson, kGenre, 0.15, 2, true},
};

}  // namespace

Dataset GenerateFreebaseLike(const FreebaseLikeOptions& options) {
  KGE_CHECK(options.num_entities >= kFreebaseMinEntities);
  Rng rng(options.seed);
  Dataset dataset;

  // Type partition: 45% person, 25% film, 15% location, 10% org, 5% genre.
  const double type_fractions[kNumTypes] = {0.45, 0.25, 0.15, 0.10, 0.05};
  std::vector<std::vector<EntityId>> by_type(kNumTypes);
  {
    int32_t next = 0;
    for (int type = 0; type < kNumTypes; ++type) {
      int32_t count = std::max<int32_t>(
          5, int32_t(type_fractions[type] * double(options.num_entities)));
      if (type == kNumTypes - 1) count = options.num_entities - next;
      for (int32_t i = 0; i < count && next < options.num_entities; ++i) {
        const EntityId id = dataset.entities.GetOrAdd(
            StrFormat("/m/%s_%05d", kTypeNames[type], i));
        by_type[size_t(type)].push_back(id);
        ++next;
      }
    }
  }

  std::vector<Triple> triples;
  int32_t num_relations = 0;
  for (const RelationSpec& spec : kSchema) {
    const RelationId forward = dataset.relations.GetOrAdd(spec.name);
    ++num_relations;
    const bool has_inverse = rng.NextBool(options.inverse_fraction);
    RelationId inverse = -1;
    if (has_inverse) {
      inverse =
          dataset.relations.GetOrAdd(std::string(spec.name) + "_inverse");
      ++num_relations;
    }
    const auto& subjects = by_type[size_t(spec.subject)];
    const auto& objects = by_type[size_t(spec.object)];
    // Hub-object relations draw objects from a small popular subset with
    // a squared-uniform bias.
    const size_t hub_pool =
        spec.hub_objects ? std::max<size_t>(3, objects.size() / 10)
                         : objects.size();
    std::unordered_set<uint64_t> seen;
    for (EntityId subject : subjects) {
      if (!rng.NextBool(spec.subject_participation)) continue;
      const int degree = 1 + int(rng.NextBounded(uint64_t(spec.max_out_degree)));
      for (int edge = 0; edge < degree; ++edge) {
        const double u = rng.NextDouble();
        const size_t index = spec.hub_objects
                                 ? size_t(double(hub_pool) * u * u)
                                 : size_t(rng.NextBounded(objects.size()));
        const EntityId object = objects[std::min(index, objects.size() - 1)];
        if (object == subject) continue;
        const uint64_t key =
            (uint64_t(uint32_t(subject)) << 32) | uint32_t(object);
        if (!seen.insert(key).second) continue;
        triples.push_back({subject, object, forward});
        if (has_inverse) triples.push_back({object, subject, inverse});
      }
    }
  }
  KGE_CHECK(num_relations == dataset.num_relations());

  SplitOptions split_options;
  split_options.valid_fraction = options.valid_fraction;
  split_options.test_fraction = options.test_fraction;
  split_options.seed = rng.NextUint64();
  SplitResult split = SplitTriples(std::move(triples), split_options);
  dataset.train = std::move(split.train);
  dataset.valid = std::move(split.valid);
  dataset.test = std::move(split.test);
  return dataset;
}

}  // namespace kge
