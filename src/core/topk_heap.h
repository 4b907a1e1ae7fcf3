// TopKHeap: the bounded top-k selector shared by offline prediction
// (eval/topk.h), the online serving reduction (serve/micro_batcher.h),
// and the multi-query top-k walk (KgeModel::TopKWalk). It lives in
// core/ — below both eval/ and models/ — so the model interface can take
// a heap parameter without an include cycle.
//
// Ordering is deterministic: higher score first, ties broken by smaller
// id. Because (score, id) is a strict total order, the top-k set over any
// candidate stream is unique — which is what makes per-lane selection
// followed by MergeFrom return exactly the single-pass result regardless
// of how the candidates were partitioned.
#ifndef KGE_CORE_TOPK_HEAP_H_
#define KGE_CORE_TOPK_HEAP_H_

#include <algorithm>
#include <span>
#include <vector>

#include "util/hotpath.h"

namespace kge {

template <typename ScoreT, typename IdT>
struct ScoredItem {
  IdT entity{};
  ScoreT score{};
};

// Bounded top-k selector. `ResetCapacity(k)` arms the heap for one
// selection pass; `PushCandidate` offers one (id, score) pair;
// `TakeSorted` returns the k best seen so far, best first (score
// descending, ties by ascending id — fully deterministic regardless of
// push order). The backing storage is reused across resets so the push
// path performs no allocation in steady state, making it safe to call
// from KGE_HOT_NOALLOC roots; `Reserve` pre-grows the storage so even
// the first ResetCapacity of a reused heap stays allocation-free.
//
// Internally a min-heap of the k best candidates: the root is the worst
// kept entry, so a new candidate is accepted iff it beats the root under
// the (score, id) order.
template <typename ScoreT, typename IdT>
class TopKHeap {
 public:
  using Entry = ScoredItem<ScoreT, IdT>;

  TopKHeap() = default;
  explicit TopKHeap(int k) { ResetCapacity(k); }

  // Pre-grows the backing storage for capacities up to k without arming
  // the heap. Cold path (serve worker / scan setup); after this,
  // ResetCapacity(j) for any j <= k performs no allocation.
  void Reserve(int k) {
    if (k > 0 && entries_.size() < size_t(k)) entries_.resize(size_t(k));
  }

  // Clears the heap and sets the number of entries to keep. Negative k
  // is treated as 0. Grows the backing storage on first use only.
  void ResetCapacity(int k) {
    capacity_ = std::max(k, 0);
    if (entries_.size() < size_t(capacity_)) {
      // kge-hotpath: allow(cold-start high-water growth of a reused buffer)
      entries_.resize(size_t(capacity_));
    }
    size_ = 0;
  }

  int capacity() const { return capacity_; }
  int size() const { return size_; }
  bool full() const { return size_ == capacity_; }

  // True when a tile whose scores are all <= `bound` cannot contribute
  // to this heap: it keeps nothing (k = 0), or it is full and the bound
  // is strictly below the current k-th best. Equality never skips — a
  // candidate scoring exactly the threshold may still win its tie on
  // smaller id.
  KGE_HOT_NOALLOC
  bool CanSkipBound(double bound) const {
    if (capacity_ == 0) return true;
    return full() && bound < double(entries_[0].score);
  }

  // Offers one candidate. O(log k) worst case, O(1) when the candidate
  // is worse than the current k-th best (the common case once warm).
  KGE_HOT_NOALLOC
  void PushCandidate(IdT id, ScoreT score) {
    if (capacity_ == 0) return;
    if (size_ < capacity_) {
      entries_[size_t(size_)] = Entry{id, score};
      ++size_;
      SiftUpFromBack();
      return;
    }
    if (!BeatsEntry(id, score, entries_[0])) return;
    entries_[0] = Entry{id, score};
    SiftDownFromRoot();
  }

  // Offers scores[e] for every id e in [0, scores.size()) that does not
  // appear in `excluded` (which must be sorted ascending, as
  // FilterIndex::Known* spans are).
  KGE_HOT_NOALLOC
  void PushScoresExcluding(std::span<const ScoreT> scores,
                           std::span<const IdT> excluded) {
    size_t cursor = 0;
    for (size_t e = 0; e < scores.size(); ++e) {
      while (cursor < excluded.size() && size_t(excluded[cursor]) < e) {
        ++cursor;
      }
      if (cursor < excluded.size() && size_t(excluded[cursor]) == e) continue;
      PushCandidate(IdT(e), scores[e]);
    }
  }

  // Merges another heap's kept entries into this one (the lane-merge
  // step of the top-k walk). Because the (score, id) order is total, the
  // merged result is exactly the top-k of the union — independent of
  // lane count, tile assignment, and merge order. Zero-alloc: only
  // PushCandidate on already-reserved storage.
  KGE_HOT_NOALLOC
  void MergeFrom(const TopKHeap& other) {
    for (int i = 0; i < other.size_; ++i) {
      PushCandidate(other.entries_[size_t(i)].entity,
                    other.entries_[size_t(i)].score);
    }
  }

  // Sorts the kept entries best-first and returns a view into the
  // heap's storage. Invalidates the heap order: call ResetCapacity
  // before the next selection pass. The span is valid until then.
  KGE_HOT_NOALLOC
  std::span<const Entry> TakeSorted() {
    std::sort(entries_.begin(), entries_.begin() + size_,
              [](const Entry& a, const Entry& b) {
                if (a.score != b.score) return a.score > b.score;
                return a.entity < b.entity;
              });
    return std::span<const Entry>(entries_.data(), size_t(size_));
  }

 private:
  // True when candidate (id, score) ranks strictly better than `e`:
  // higher score, or equal score with smaller id.
  static bool BeatsEntry(IdT id, ScoreT score, const Entry& e) {
    if (score != e.score) return score > e.score;
    return id < e.entity;
  }

  KGE_HOT_NOALLOC
  void SiftUpFromBack() {
    size_t i = size_t(size_) - 1;
    while (i > 0) {
      const size_t parent = (i - 1) / 2;
      // Heap property: every parent ranks worse than its children, so
      // the root is the worst kept entry. Swap while violated.
      if (!BeatsEntry(entries_[parent].entity, entries_[parent].score,
                      entries_[i])) {
        break;
      }
      const Entry tmp = entries_[parent];
      entries_[parent] = entries_[i];
      entries_[i] = tmp;
      i = parent;
    }
  }

  KGE_HOT_NOALLOC
  void SiftDownFromRoot() {
    size_t i = 0;
    const size_t n = size_t(size_);
    while (true) {
      const size_t left = 2 * i + 1;
      const size_t right = left + 1;
      size_t worst = i;
      if (left < n && !BeatsEntry(entries_[left].entity, entries_[left].score,
                                  entries_[worst])) {
        worst = left;
      }
      if (right < n &&
          !BeatsEntry(entries_[right].entity, entries_[right].score,
                      entries_[worst])) {
        worst = right;
      }
      if (worst == i) break;
      const Entry tmp = entries_[worst];
      entries_[worst] = entries_[i];
      entries_[i] = tmp;
      i = worst;
    }
  }

  std::vector<Entry> entries_;
  int capacity_ = 0;
  int size_ = 0;
};

}  // namespace kge

#endif  // KGE_CORE_TOPK_HEAP_H_
