// FilterIndex: the known-triple index used by the *filtered* ranking
// protocol of Bordes et al. [4], as adopted by the paper (§5.2). When
// ranking a test triple (h, t, r) against corruptions, every corruption
// that is itself a valid triple anywhere in train ∪ valid ∪ test must be
// excluded so true triples are not counted as errors ("false negatives").
//
// Layout: two hash maps keyed by (relation, head) -> set of tails and
// (relation, tail) -> set of heads, with sorted vectors as the set
// representation (membership via binary search; cache friendly and
// compact for WN18-scale data).
#ifndef KGE_KG_FILTER_INDEX_H_
#define KGE_KG_FILTER_INDEX_H_

#include <span>
#include <unordered_map>
#include <vector>

#include "kg/triple.h"

namespace kge {

class FilterIndex {
 public:
  FilterIndex() = default;

  // Builds the index over the union of the given splits.
  void Build(std::span<const std::vector<Triple>* const> splits);

  // Convenience overload for {train, valid, test}.
  void Build(const std::vector<Triple>& train,
             const std::vector<Triple>& valid,
             const std::vector<Triple>& test);

  bool Contains(const Triple& triple) const;

  // Every known answer of the `side` query with known entity `anchor`,
  // sorted: the tails t' of known (anchor, t', r) for kTail, the heads
  // h' of known (h', anchor, r) for kHead.
  std::span<const EntityId> Known(QuerySide side, EntityId anchor,
                                  RelationId relation) const;

  size_t num_triples() const { return num_triples_; }

 private:
  using Key = uint64_t;  // (relation << 32) | entity
  static Key MakeKey(RelationId relation, EntityId entity) {
    return (uint64_t(uint32_t(relation)) << 32) | uint32_t(entity);
  }

  std::unordered_map<Key, std::vector<EntityId>> tails_by_head_relation_;
  std::unordered_map<Key, std::vector<EntityId>> heads_by_tail_relation_;
  size_t num_triples_ = 0;
};

}  // namespace kge

#endif  // KGE_KG_FILTER_INDEX_H_
