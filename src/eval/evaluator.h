// The link-prediction evaluation protocol of Bordes et al. [4] as used by
// the paper (§5.2): for each true triple (h, t, r), rank t among all
// (h, t', r) corruptions and h among all (h', t, r) corruptions. With
// `filtered` set, corruptions that are themselves known valid triples
// (anywhere in train ∪ valid ∪ test) are excluded before ranking.
//
// Ties: a true triple whose score equals some corruptions' scores gets
// the tie-averaged rank 1 + |better| + |equal|/2, so constant score
// functions receive chance-level (not perfect) metrics.
#ifndef KGE_EVAL_EVALUATOR_H_
#define KGE_EVAL_EVALUATOR_H_

#include <vector>

#include "eval/metrics.h"
#include "kg/filter_index.h"
#include "kg/relation_analysis.h"
#include "kg/triple.h"
#include "models/kge_model.h"
#include "util/hotpath.h"
#include "util/thread_pool.h"

namespace kge {

// Queries per ranking walk when EvalOptions::batch_queries is 0.
inline constexpr int kDefaultEvalBatchQueries = 32;

struct EvalOptions {
  bool filtered = true;
  // Evaluate at most this many triples (0 = all); a deterministic
  // stride-based subsample is used, which keeps validation checks cheap
  // during training.
  size_t max_triples = 0;
  // Threads the ranking walks are spread over (1 = inline).
  int num_threads = 1;
  // Queries per ranking walk (KgeModel::TopKWalk's rank sink). Test
  // queries are grouped by (relation, side) and walked B at a time, so
  // each entity-table tile is read once per B queries instead of once
  // per query, and the working set is B tiles of scores whatever the
  // vocabulary size. 0 = kDefaultEvalBatchQueries. Metrics are
  // bit-identical at every setting: ranks are computed per triple
  // either way and accumulated in the original triple order.
  int batch_queries = 0;
  // Numeric tier for candidate scoring (see core/scoring_replica.h):
  // kDouble is the exact protocol; kFloat32 and kInt8 trade bounded
  // metric drift (measured in BENCH_eval.json's precision section) for
  // ranking throughput. The model must report
  // SupportsScorePrecision(score_precision); Evaluate refreshes the
  // model's scoring replicas once (PrepareForScoring, on its own pool)
  // before fanning out.
  ScorePrecision score_precision = ScorePrecision::kDouble;
  // Skip (query, tile) pairs whose Cauchy–Schwarz score bound proves no
  // candidate in the tile can reach the true triple's score.
  // Conservative and never approximate — metrics stay bit-identical;
  // only the work (RankScanStats::tiles_skipped) changes.
  bool prune = false;
};

struct PerRelationMetrics {
  RelationId relation = 0;
  RankingMetrics tail_queries;  // ranking the tail given (h, ?, r)
  RankingMetrics head_queries;  // ranking the head given (?, t, r)
};

struct EvalResult {
  RankingMetrics overall;
  std::vector<PerRelationMetrics> per_relation;
  // The tie-averaged rank of each evaluated triple's tail and head, in
  // evaluation order: entry i belongs to the i-th triple ranked (of the
  // input, or of its stride subsample when max_triples caps the run).
  // These are the ranks behind `overall` and `per_relation`.
  std::vector<double> tail_ranks;
  std::vector<double> head_ranks;
  // Tile counters summed over every ranking walk of the run;
  // tiles_skipped / tiles_total is the pruning effectiveness BENCH_eval
  // reports as tiles_skipped_frac.
  RankScanStats scan_stats;
};

class Evaluator {
 public:
  // `filter` must outlive the evaluator; pass the index over all splits.
  Evaluator(const FilterIndex* filter, int32_t num_relations);

  // Full protocol over `triples`.
  EvalResult Evaluate(const KgeModel& model,
                      const std::vector<Triple>& triples,
                      const EvalOptions& options) const;

  // Convenience: overall metrics only.
  RankingMetrics EvaluateOverall(const KgeModel& model,
                                 const std::vector<Triple>& triples,
                                 const EvalOptions& options) const;

  // Rank of `triple`'s true answer on `side` given that query's full
  // score row `scores` (e.g. model.ScoreAll(side, AnchorOf(side, triple),
  // triple.relation)): the reference that the ranking walk's counts are
  // tested against.
  KGE_HOT_NOALLOC
  double Rank(QuerySide side, const Triple& triple,
              std::span<const float> scores, bool filtered) const;

  // Number of ranked candidates (the true answer plus surviving
  // corruptions) of `triple`'s `side` query; feeds the adjusted mean
  // rank.
  KGE_HOT_NOALLOC
  size_t CountCandidates(QuerySide side, const Triple& triple,
                         int32_t num_entities, bool filtered) const;

 private:
  const FilterIndex* filter_;
  int32_t num_relations_;
};

}  // namespace kge

#endif  // KGE_EVAL_EVALUATOR_H_
