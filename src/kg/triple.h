// The fundamental fact type: a triple (head, tail, relation) of integer ids
// after vocabulary interning. Follows the paper's (h, t, r) ordering.
#ifndef KGE_KG_TRIPLE_H_
#define KGE_KG_TRIPLE_H_

#include <cstdint>
#include <functional>

namespace kge {

using EntityId = int32_t;
using RelationId = int32_t;

// Which end of a partial triple a ranking query completes: kTail ranks
// candidate tails for (head, ?, relation), kHead candidate heads for
// (?, tail, relation). The values are the serve protocol's wire codes.
enum class QuerySide : uint8_t { kTail = 0, kHead = 1 };

struct Triple {
  EntityId head = 0;
  EntityId tail = 0;
  RelationId relation = 0;

  friend bool operator==(const Triple& x, const Triple& y) = default;
  friend auto operator<=>(const Triple& x, const Triple& y) = default;
};

// The triple a `side` query with known entity `anchor` forms with
// `candidate`: (anchor, candidate, r) for kTail, (candidate, anchor, r)
// for kHead.
inline Triple QueryTriple(QuerySide side, EntityId anchor,
                          RelationId relation, EntityId candidate) {
  return side == QuerySide::kTail ? Triple{anchor, candidate, relation}
                                  : Triple{candidate, anchor, relation};
}

// The known entity of `triple`'s `side` query: its head for kTail, its
// tail for kHead.
inline EntityId AnchorOf(QuerySide side, const Triple& triple) {
  return side == QuerySide::kTail ? triple.head : triple.tail;
}

// The entity `triple`'s `side` query asks for: its tail for kTail, its
// head for kHead.
inline EntityId AnswerOf(QuerySide side, const Triple& triple) {
  return side == QuerySide::kTail ? triple.tail : triple.head;
}

// 64-bit mix hash over the three ids; used by FilterIndex hash sets.
struct TripleHash {
  size_t operator()(const Triple& t) const {
    uint64_t x = (uint64_t(uint32_t(t.head)) << 32) ^
                 (uint64_t(uint32_t(t.tail)) << 13) ^
                 uint64_t(uint32_t(t.relation));
    // SplitMix64 finalizer.
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
    return size_t(x ^ (x >> 31));
  }
};

}  // namespace kge

#endif  // KGE_KG_TRIPLE_H_
