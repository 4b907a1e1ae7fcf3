// Static hot-path contract annotations.
//
// KGE_HOT_NOALLOC marks a function as a *hot-path root*: every function
// transitively reachable from it must not allocate, must not throw, and
// must not consult any nondeterminism source (clocks, rand, environment,
// unordered-container iteration). The contract is verified statically by
// scripts/hotpath_check.py, which builds the transitive call graph from
// every annotated root and fails on any reachable violation; the runtime
// side of the same contract is the operator-new counter in
// bench/perf_report (allocs-per-triple gates in CI).
//
// Placement: put the macro on its own line immediately before the
// function declaration (headers) or definition (.cc files):
//
//   KGE_HOT_NOALLOC
//   double Dot(const float* a, const float* b, size_t n);
//
// Virtual methods: annotating the base declaration is sufficient — the
// analyzer treats every same-named override as a root too, so a new
// model's ScoreAll overrides inherit the contract automatically. The
// overrides in this tree are annotated anyway, as documentation.
//
// Escape hatch: a violation that is intentional (e.g. the cold-start
// high-water growth of a reused scratch buffer) is suppressed with a
// trailing comment on the offending line, or on the line above it:
//
//   if (buf.size() < n) buf.resize(n);  // kge-hotpath: allow(cold-start)
//
// Suppressions must name a reason and are reported (counted) by the
// analyzer, so the allowlist stays auditable. See DESIGN.md §5d for the
// analyzer algorithm and the allow-policy.
//
// Under Clang the macro also emits [[clang::annotate("kge_hot_noalloc")]]
// so AST-level tooling (scripts/hotpath_check.py --frontend=clang) can
// recover the root set without the textual scan; under other compilers it
// expands to nothing and the textual frontend recognizes the macro name
// itself.
#ifndef KGE_UTIL_HOTPATH_H_
#define KGE_UTIL_HOTPATH_H_

#if defined(__clang__)
#define KGE_HOT_NOALLOC [[clang::annotate("kge_hot_noalloc")]]
#else
#define KGE_HOT_NOALLOC
#endif

#endif  // KGE_UTIL_HOTPATH_H_
