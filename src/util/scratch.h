// Scratch buffers for hot-path code that must not allocate.
//
// The evaluator walks the entity table once per batch of ranked
// triples, a serving lane once per batch of queries, and the trainer
// calls Score/AccumulateGradients per example. Any `std::vector`
// constructed inside those calls is a heap allocation per call. The
// pattern below replaces them with a vector owned by the thread (a
// function-local thread_local) or by the caller (a walk's
// TopKWalkScratch) that grows to the high-water mark once and is reused
// forever after:
//
//   static thread_local std::vector<float> fold_buf;
//   std::span<float> fold = ScratchSpan(fold_buf, n);
//
// Per-thread storage means concurrent evaluator/trainer shards never
// share a buffer (no locks, no races — TSan-clean by construction). The
// returned span's contents are UNINITIALIZED: whatever the previous use
// left there. Zero it explicitly if the caller accumulates into it.
#ifndef KGE_UTIL_SCRATCH_H_
#define KGE_UTIL_SCRATCH_H_

#include <cstddef>
#include <span>
#include <vector>

namespace kge {

// Returns a span of `n` elements backed by `buf`, growing it if needed.
// Never shrinks, so steady-state calls perform zero heap allocations.
template <typename T>
inline std::span<T> ScratchSpan(std::vector<T>& buf, size_t n) {
  // kge-hotpath: allow(cold-start high-water growth of a reused buffer)
  if (buf.size() < n) buf.resize(n);
  return std::span<T>(buf.data(), n);
}

}  // namespace kge

#endif  // KGE_UTIL_SCRATCH_H_
