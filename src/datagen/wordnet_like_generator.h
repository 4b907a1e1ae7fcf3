// WordNetLikeGenerator: the WN18 stand-in (see DESIGN.md §2). Builds a
// deterministic synthetic lexical knowledge graph with the same relation
// inventory and pattern mix as WN18:
//
//   * a hypernym taxonomy forest with the exact-inverse hyponym relation,
//   * meronymy inverse pairs (member/part/substance-style),
//   * instance hypernymy from leaves,
//   * symmetric relations (similar_to, verb_group,
//     derivationally_related_form),
//   * a mostly-symmetric also_see,
//   * hub-structured N-1 domain relations with their 1-N inverses.
//
// The crucial WN18 property this reproduces is *inverse leakage*: for
// nearly every pair related by an inverse-paired relation, both directions
// exist in the graph, so after a random split a test triple's inverse is
// almost always in train. Models able to exploit inverse structure
// (ComplEx, CPh, the quaternion model) excel; DistMult (symmetric) and CP
// (decoupled roles) cannot — which is exactly the paper's Table 2 story.
#ifndef KGE_DATAGEN_WORDNET_LIKE_GENERATOR_H_
#define KGE_DATAGEN_WORDNET_LIKE_GENERATOR_H_

#include <string_view>
#include <vector>

#include "datagen/split.h"
#include "kg/dataset.h"

namespace kge {

// The fewest entities the generator accepts.
inline constexpr int32_t kWordNetMinEntities = 100;

struct WordNetLikeOptions {
  // Number of synset entities. WN18 has 40,943; the default is scaled to
  // keep full grid training practical on one core. The generator is
  // reserve-based (one pre-sized pass per relation family, ~5.5 triples
  // per entity), so the million-entity tier builds in one streaming
  // sweep without rehash/regrow churn — see kWordNetScale* and the
  // tools' --scale presets.
  int32_t num_entities = 3000;
  // Split fractions mirror WN18 (5,000 / 141,442 each for valid/test).
  double valid_fraction = 0.035;
  double test_fraction = 0.035;
  // WN18RR-style mode: drop the inverse direction of every inverse-paired
  // relation (hyponym, holonym, has_part, instance_hyponym, and the
  // domain_of relations) before splitting, removing the inverse leakage
  // that makes WN18 easy. Symmetric relations are kept, as in the real
  // WN18RR. Relation ids keep the 18-relation numbering; the dropped
  // relations simply have no triples.
  bool remove_inverse_leakage = false;
  uint64_t seed = 42;
};

// Relation ids assigned by the generator (18 relations, like WN18).
enum WordNetRelation : RelationId {
  kHypernym = 0,
  kHyponym,
  kMemberMeronym,
  kMemberHolonym,
  kPartOf,
  kHasPart,
  kInstanceHypernym,
  kInstanceHyponym,
  kSimilarTo,
  kVerbGroup,
  kDerivationallyRelatedForm,
  kAlsoSee,
  kMemberOfDomainTopic,
  kSynsetDomainTopicOf,
  kMemberOfDomainRegion,
  kSynsetDomainRegionOf,
  kMemberOfDomainUsage,
  kSynsetDomainUsageOf,
  kNumWordNetRelations,
};

// Entity-count presets behind the tools' --scale flag: `small` is the
// grid-training default, `medium` the 100k serving-smoke tier, `xl` the
// million-entity ranking tier that exercises the multi-lane, pruned walk.
inline constexpr int32_t kWordNetScaleSmall = 3000;
inline constexpr int32_t kWordNetScaleMedium = 100000;
inline constexpr int32_t kWordNetScaleXl = 1000000;

// Parses a --scale preset name ("small" | "medium" | "xl") into its
// entity count. Returns false on an unknown name.
bool ParseWordNetScale(std::string_view text, int32_t* num_entities);

// Generates the dataset (vocabularies + split triples). Deterministic in
// `options.seed`. The vocabulary is fixed by the options alone, whatever
// the seed: exactly options.num_entities synsets and
// kNumWordNetRelations relation ids (with remove_inverse_leakage too),
// so a consumer that needs only its sizes, like kge_serve, need not
// generate it.
Dataset GenerateWordNetLike(const WordNetLikeOptions& options);

}  // namespace kge

#endif  // KGE_DATAGEN_WORDNET_LIKE_GENERATOR_H_
