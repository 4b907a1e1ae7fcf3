#include "kg/filter_index.h"

#include <algorithm>
#include <array>

namespace kge {

void FilterIndex::Build(
    std::span<const std::vector<Triple>* const> splits) {
  tails_by_head_relation_.clear();
  heads_by_tail_relation_.clear();
  num_triples_ = 0;
  for (const std::vector<Triple>* split : splits) {
    num_triples_ += split->size();
    for (const Triple& t : *split) {
      tails_by_head_relation_[MakeKey(t.relation, t.head)].push_back(t.tail);
      heads_by_tail_relation_[MakeKey(t.relation, t.tail)].push_back(t.head);
    }
  }
  auto sort_and_dedupe = [](std::vector<EntityId>& v) {
    std::sort(v.begin(), v.end());
    v.erase(std::unique(v.begin(), v.end()), v.end());
  };
  for (auto& [key, v] : tails_by_head_relation_) sort_and_dedupe(v);
  for (auto& [key, v] : heads_by_tail_relation_) sort_and_dedupe(v);
}

void FilterIndex::Build(const std::vector<Triple>& train,
                        const std::vector<Triple>& valid,
                        const std::vector<Triple>& test) {
  const std::array<const std::vector<Triple>*, 3> splits = {&train, &valid,
                                                            &test};
  Build(std::span<const std::vector<Triple>* const>(splits));
}

bool FilterIndex::Contains(const Triple& triple) const {
  const auto it =
      tails_by_head_relation_.find(MakeKey(triple.relation, triple.head));
  if (it == tails_by_head_relation_.end()) return false;
  return std::binary_search(it->second.begin(), it->second.end(),
                            triple.tail);
}

std::span<const EntityId> FilterIndex::Known(QuerySide side, EntityId anchor,
                                             RelationId relation) const {
  const auto& answers = side == QuerySide::kTail ? tails_by_head_relation_
                                                 : heads_by_tail_relation_;
  const auto it = answers.find(MakeKey(relation, anchor));
  if (it == answers.end()) return {};
  return it->second;
}

}  // namespace kge
