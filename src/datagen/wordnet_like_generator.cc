#include "datagen/wordnet_like_generator.h"

#include <algorithm>
#include <unordered_set>

#include "util/check.h"
#include "util/random.h"
#include "util/string_utils.h"

namespace kge {
namespace {

const char* const kRelationNames[kNumWordNetRelations] = {
    "_hypernym",
    "_hyponym",
    "_member_meronym",
    "_member_holonym",
    "_part_of",
    "_has_part",
    "_instance_hypernym",
    "_instance_hyponym",
    "_similar_to",
    "_verb_group",
    "_derivationally_related_form",
    "_also_see",
    "_member_of_domain_topic",
    "_synset_domain_topic_of",
    "_member_of_domain_region",
    "_synset_domain_region_of",
    "_member_of_domain_usage",
    "_synset_domain_usage_of",
};

uint64_t PairKey(EntityId a, EntityId b) {
  return (uint64_t(uint32_t(a)) << 32) | uint32_t(b);
}

}  // namespace

bool ParseWordNetScale(std::string_view text, int32_t* num_entities) {
  KGE_CHECK(num_entities != nullptr);
  if (text == "small") {
    *num_entities = kWordNetScaleSmall;
  } else if (text == "medium") {
    *num_entities = kWordNetScaleMedium;
  } else if (text == "xl") {
    *num_entities = kWordNetScaleXl;
  } else {
    return false;
  }
  return true;
}

Dataset GenerateWordNetLike(const WordNetLikeOptions& options) {
  KGE_CHECK(options.num_entities >= kWordNetMinEntities);
  const int32_t n = options.num_entities;
  Rng rng(options.seed);

  Dataset dataset;
  dataset.entities.Reserve(n);
  for (int32_t e = 0; e < n; ++e) {
    // Names shaped like WN18 synset offsets.
    dataset.entities.GetOrAdd(StrFormat("%08d", e));
  }
  for (const char* name : kRelationNames) dataset.relations.GetOrAdd(name);

  std::vector<Triple> triples;
  // One up-front reservation covers every relation family below: the
  // emission rates sum to ~5.3 triples per entity, so 6n never regrows
  // — at the xl (1M-entity) tier that is one 72 MB block instead of a
  // realloc-and-copy ladder through it.
  triples.reserve(size_t(n) * 6);
  auto emit_pair = [&triples](EntityId a, EntityId b, RelationId r,
                              RelationId r_inv) {
    triples.push_back({a, b, r});
    triples.push_back({b, a, r_inv});
  };

  // ---- Taxonomy forest: hypernym / hyponym -------------------------------
  // Entities 0..num_roots-1 are roots; every other entity e picks a parent
  // uniformly among lower-indexed entities, biased toward small indexes to
  // get a WordNet-ish shallow-fat hierarchy with hub parents.
  const int32_t num_roots = std::max<int32_t>(4, n / 200);
  std::vector<EntityId> parent(static_cast<size_t>(n), -1);
  for (int32_t e = num_roots; e < n; ++e) {
    // Square the uniform draw to bias toward low ids (earlier = higher in
    // the hierarchy = more children).
    const double u = rng.NextDouble();
    const auto p = static_cast<EntityId>(double(e) * u * u);
    parent[static_cast<size_t>(e)] = std::min<EntityId>(p, e - 1);
    emit_pair(e, parent[static_cast<size_t>(e)], kHypernym, kHyponym);
  }

  // Leaves = entities that are nobody's parent.
  std::vector<bool> is_parent(static_cast<size_t>(n), false);
  for (int32_t e = num_roots; e < n; ++e)
    is_parent[static_cast<size_t>(parent[static_cast<size_t>(e)])] = true;
  std::vector<EntityId> leaves;
  std::vector<EntityId> internal;
  for (int32_t e = 0; e < n; ++e) {
    if (is_parent[static_cast<size_t>(e)]) {
      internal.push_back(e);
    } else {
      leaves.push_back(e);
    }
  }
  KGE_CHECK(!internal.empty() && !leaves.empty());

  auto random_of = [&rng](const std::vector<EntityId>& pool) {
    return pool[rng.NextBounded(pool.size())];
  };

  // ---- Meronymy: member_meronym/member_holonym, part_of/has_part ---------
  // Whole -> member links roughly follow the hierarchy: a whole entity
  // links to a few entities below it in index order (antisymmetric by
  // construction, moderate 1-N structure).
  {
    std::unordered_set<uint64_t> seen;
    const int want = int(0.35 * n);
    seen.reserve(size_t(want));
    while (int(seen.size()) < want) {
      const EntityId whole =
          static_cast<EntityId>(rng.NextBounded(uint64_t(n)));
      if (whole + 1 >= n) continue;
      const EntityId member = static_cast<EntityId>(
          whole + 1 + EntityId(rng.NextBounded(uint64_t(n - whole - 1))));
      if (!seen.insert(PairKey(whole, member)).second) continue;
      emit_pair(whole, member, kMemberMeronym, kMemberHolonym);
    }
  }
  {
    std::unordered_set<uint64_t> seen;
    const int want = int(0.25 * n);
    seen.reserve(size_t(want));
    while (int(seen.size()) < want) {
      const EntityId part = static_cast<EntityId>(rng.NextBounded(uint64_t(n)));
      if (part + 1 >= n) continue;
      const EntityId whole = static_cast<EntityId>(
          part + 1 + EntityId(rng.NextBounded(uint64_t(n - part - 1))));
      if (!seen.insert(PairKey(part, whole)).second) continue;
      emit_pair(part, whole, kPartOf, kHasPart);
    }
  }

  // ---- Instance hypernymy: leaf instances of internal classes ------------
  {
    std::unordered_set<uint64_t> seen;
    const int want = int(0.06 * n);
    seen.reserve(size_t(want));
    while (int(seen.size()) < want) {
      const EntityId instance = random_of(leaves);
      const EntityId cls = random_of(internal);
      if (instance == cls) continue;
      if (!seen.insert(PairKey(instance, cls)).second) continue;
      emit_pair(instance, cls, kInstanceHypernym, kInstanceHyponym);
    }
  }

  // ---- Symmetric relations ------------------------------------------------
  // similar_to / verb_group: clusters of 3..5 entities, fully connected.
  auto emit_symmetric_clusters = [&](RelationId r, int num_clusters) {
    for (int c = 0; c < num_clusters; ++c) {
      const int cluster_size = 3 + int(rng.NextBounded(3));
      std::vector<EntityId> members;
      std::unordered_set<EntityId> used;
      while (int(members.size()) < cluster_size) {
        const EntityId e = static_cast<EntityId>(rng.NextBounded(uint64_t(n)));
        if (used.insert(e).second) members.push_back(e);
      }
      for (size_t i = 0; i < members.size(); ++i) {
        for (size_t j = i + 1; j < members.size(); ++j) {
          emit_pair(members[i], members[j], r, r);
        }
      }
    }
  };
  emit_symmetric_clusters(kSimilarTo, int(0.03 * n));
  emit_symmetric_clusters(kVerbGroup, int(0.015 * n));

  // derivationally_related_form: the big symmetric relation of WN18 —
  // random matching pairs, both directions.
  {
    std::unordered_set<uint64_t> seen;
    const int want = int(0.45 * n);
    seen.reserve(size_t(want));
    while (int(seen.size()) < want) {
      EntityId a = static_cast<EntityId>(rng.NextBounded(uint64_t(n)));
      EntityId b = static_cast<EntityId>(rng.NextBounded(uint64_t(n)));
      if (a == b) continue;
      if (a > b) std::swap(a, b);
      if (!seen.insert(PairKey(a, b)).second) continue;
      emit_pair(a, b, kDerivationallyRelatedForm, kDerivationallyRelatedForm);
    }
  }

  // also_see: mostly symmetric (≈70% of pairs get both directions).
  {
    std::unordered_set<uint64_t> seen;
    const int want = int(0.1 * n);
    seen.reserve(size_t(want));
    while (int(seen.size()) < want) {
      EntityId a = static_cast<EntityId>(rng.NextBounded(uint64_t(n)));
      EntityId b = static_cast<EntityId>(rng.NextBounded(uint64_t(n)));
      if (a == b) continue;
      if (!seen.insert(PairKey(a, b)).second) continue;
      triples.push_back({a, b, kAlsoSee});
      if (rng.NextBool(0.7)) triples.push_back({b, a, kAlsoSee});
    }
  }

  // ---- Domain relations: hub-structured N-1 with 1-N inverses -------------
  struct DomainSpec {
    RelationId member_of;
    RelationId domain_of;
    double membership_rate;
    int num_hubs;
  };
  const DomainSpec domains[] = {
      {kMemberOfDomainTopic, kSynsetDomainTopicOf, 0.12,
       std::max(3, n / 150)},
      {kMemberOfDomainRegion, kSynsetDomainRegionOf, 0.04,
       std::max(2, n / 400)},
      {kMemberOfDomainUsage, kSynsetDomainUsageOf, 0.03,
       std::max(2, n / 500)},
  };
  for (const DomainSpec& spec : domains) {
    std::vector<EntityId> hubs;
    std::unordered_set<EntityId> hub_set;
    while (int(hubs.size()) < spec.num_hubs) {
      const EntityId hub = random_of(internal);
      if (hub_set.insert(hub).second) hubs.push_back(hub);
    }
    for (int32_t e = 0; e < n; ++e) {
      if (hub_set.contains(e)) continue;
      if (!rng.NextBool(spec.membership_rate)) continue;
      const EntityId hub = random_of(hubs);
      emit_pair(e, hub, spec.member_of, spec.domain_of);
    }
  }

  // ---- WN18RR-style leakage removal ---------------------------------------
  if (options.remove_inverse_leakage) {
    auto is_dropped = [](RelationId r) {
      switch (r) {
        case kHyponym:
        case kMemberHolonym:
        case kHasPart:
        case kInstanceHyponym:
        case kSynsetDomainTopicOf:
        case kSynsetDomainRegionOf:
        case kSynsetDomainUsageOf:
          return true;
        default:
          return false;
      }
    };
    std::erase_if(triples,
                  [&](const Triple& t) { return is_dropped(t.relation); });
  }

  // ---- Split ---------------------------------------------------------------
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
