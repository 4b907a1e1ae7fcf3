#include "eval/evaluator.h"

#include <algorithm>
#include <vector>

#include "util/check.h"
#include "util/scratch.h"

namespace kge {
namespace {

// Computes the tie-averaged rank of `true_score` among the candidate
// scores, skipping filtered ids. The true entity's own slot is always
// skipped (its score is `true_score` by definition).
double RankAmong(std::span<const float> scores, float true_score,
                 EntityId true_entity, std::span<const EntityId> filtered) {
  size_t better = 0;
  size_t equal = 0;
  size_t filter_cursor = 0;
  for (size_t e = 0; e < scores.size(); ++e) {
    // `filtered` is sorted; advance the cursor lazily.
    while (filter_cursor < filtered.size() &&
           size_t(filtered[filter_cursor]) < e) {
      ++filter_cursor;
    }
    const bool is_filtered = filter_cursor < filtered.size() &&
                             size_t(filtered[filter_cursor]) == e;
    if (is_filtered || EntityId(e) == true_entity) continue;
    if (scores[e] > true_score) {
      ++better;
    } else if (scores[e] == true_score) {
      ++equal;
    }
  }
  return 1.0 + double(better) + double(equal) / 2.0;
}

}  // namespace

Evaluator::Evaluator(const FilterIndex* filter, int32_t num_relations)
    : filter_(filter), num_relations_(num_relations) {
  KGE_CHECK(filter_ != nullptr);
}

double Evaluator::Rank(QuerySide side, const Triple& triple,
                       std::span<const float> scores, bool filtered) const {
  const EntityId truth = AnswerOf(side, triple);
  const std::span<const EntityId> known =
      filtered ? filter_->Known(side, AnchorOf(side, triple), triple.relation)
               : std::span<const EntityId>();
  return RankAmong(scores, scores[size_t(truth)], truth, known);
}

size_t Evaluator::CountCandidates(QuerySide side, const Triple& triple,
                                  int32_t num_entities, bool filtered) const {
  if (!filtered) return size_t(num_entities);
  // All entities minus filtered corruptions; the true entity always
  // ranks (whether or not it is in the filtered set).
  const std::span<const EntityId> known =
      filter_->Known(side, AnchorOf(side, triple), triple.relation);
  const bool truth_known =
      std::binary_search(known.begin(), known.end(), AnswerOf(side, triple));
  return size_t(num_entities) - known.size() + (truth_known ? 1 : 0);
}

namespace {

// One ranking walk: `count` queries sharing a relation and a side,
// covering eval-order triple indices order[begin .. begin+count).
struct QueryBatch {
  uint32_t begin = 0;
  uint32_t count = 0;
  RelationId relation = 0;
  QuerySide side = QuerySide::kTail;
};

// A pool thread's working memory for the walks it runs, reused across
// batches and Evaluate calls.
struct RankWalkScratch {
  std::vector<EntityId> anchors;
  std::vector<EntityId> truths;
  std::vector<std::span<const EntityId>> excluded;
  std::vector<float> folds;
  std::vector<RankCounts> counts;
  TopKWalkScratch walk;
};

}  // namespace

EvalResult Evaluator::Evaluate(const KgeModel& model,
                               const std::vector<Triple>& triples,
                               const EvalOptions& options) const {
  EvalResult result;
  result.per_relation.resize(size_t(num_relations_));
  for (int32_t r = 0; r < num_relations_; ++r) {
    result.per_relation[size_t(r)].relation = r;
  }

  // Deterministic stride subsample when capped.
  std::vector<Triple> subset;
  const std::vector<Triple>* eval_triples = &triples;
  if (options.max_triples > 0 && triples.size() > options.max_triples) {
    const size_t stride = triples.size() / options.max_triples;
    for (size_t i = 0; i < triples.size() && subset.size() < options.max_triples;
         i += stride) {
      subset.push_back(triples[i]);
    }
    eval_triples = &subset;
  }

  const size_t num_triples = eval_triples->size();
  const int32_t num_entities = model.num_entities();
  const ScorePrecision precision = options.score_precision;
  KGE_CHECK(model.SupportsScorePrecision(precision));
  KGE_CHECK(options.batch_queries >= 0);
  const size_t batch_queries = options.batch_queries > 0
                                   ? size_t(options.batch_queries)
                                   : size_t(kDefaultEvalBatchQueries);
  // Refresh any scoring replica (and, to prune, the tile bounds) the
  // tier needs ONCE, before the fanout: the rebuild mutates the replica,
  // the walks below only read it. The rebuild itself runs on the pool.
  ThreadPool pool(size_t(std::max(1, options.num_threads)));
  if (options.prune) {
    model.PrepareForPrunedScoring(precision, &pool);
  } else {
    model.PrepareForScoring(precision, &pool);
  }

  // Counting-sort the triple indices by relation (stable, deterministic),
  // then cover each relation segment with tail-side and head-side
  // batches of at most batch_queries queries.
  std::vector<uint32_t> order(num_triples);
  std::vector<size_t> relation_counts(size_t(num_relations_) + 1, 0);
  for (const Triple& t : *eval_triples) {
    ++relation_counts[size_t(t.relation) + 1];
  }
  for (size_t r = 1; r < relation_counts.size(); ++r) {
    relation_counts[r] += relation_counts[r - 1];
  }
  std::vector<size_t> cursor(relation_counts.begin(),
                             relation_counts.end() - 1);
  for (size_t i = 0; i < num_triples; ++i) {
    order[cursor[size_t((*eval_triples)[i].relation)]++] = uint32_t(i);
  }
  std::vector<QueryBatch> batches;
  batches.reserve(2 * (num_triples / batch_queries + size_t(num_relations_) +
                       1));
  for (int32_t r = 0; r < num_relations_; ++r) {
    const size_t seg_begin = relation_counts[size_t(r)];
    const size_t seg_end = relation_counts[size_t(r) + 1];
    for (const QuerySide side : {QuerySide::kTail, QuerySide::kHead}) {
      for (size_t b = seg_begin; b < seg_end; b += batch_queries) {
        QueryBatch batch;
        batch.begin = uint32_t(b);
        batch.count = uint32_t(std::min(batch_queries, seg_end - b));
        batch.relation = r;
        batch.side = side;
        batches.push_back(batch);
      }
    }
  }

  // Each batch is one walk with the rank sink, run whole on one pool
  // thread, and writes the ranks of its own triples. Ranks are pure
  // per-triple functions of the scores, so the metrics accumulated
  // SERIALLY in the original triple order below are exactly invariant to
  // the thread count, the batch size and pruning.
  result.tail_ranks.resize(num_triples);
  result.head_ranks.resize(num_triples);
  std::vector<RankScanStats> batch_stats(batches.size());
  pool.StageFor(0, batches.size(), [&](size_t begin, size_t end) {
    static thread_local RankWalkScratch scratch;
    for (size_t bi = begin; bi < end; ++bi) {
      const QueryBatch& query_batch = batches[bi];
      const size_t count = query_batch.count;
      const QuerySide side = query_batch.side;
      const std::span<EntityId> anchors = ScratchSpan(scratch.anchors, count);
      const std::span<EntityId> truths = ScratchSpan(scratch.truths, count);
      const std::span<std::span<const EntityId>> excluded =
          ScratchSpan(scratch.excluded, options.filtered ? count : 0);
      for (size_t q = 0; q < count; ++q) {
        const Triple& triple =
            (*eval_triples)[order[query_batch.begin + q]];
        anchors[q] = AnchorOf(side, triple);
        truths[q] = AnswerOf(side, triple);
        if (options.filtered) {
          excluded[q] = filter_->Known(side, anchors[q], triple.relation);
        }
      }
      const std::span<float> folds =
          ScratchSpan(scratch.folds, count * model.FoldWidth());
      model.FoldQueries(side, query_batch.relation, anchors, folds);
      TopKWalkBatch batch;
      batch.side = side;
      batch.relation = query_batch.relation;
      batch.anchors = anchors;
      batch.folds = folds;
      batch.excluded = excluded;
      batch.truths = truths;
      batch.precision = precision;
      batch.prune = options.prune;
      const std::span<RankCounts> counts = ScratchSpan(scratch.counts, count);
      std::fill(counts.begin(), counts.end(), RankCounts{});
      model.TopKWalk(batch, 0, 1, {}, counts, &scratch.walk,
                     &batch_stats[bi]);
      std::vector<double>& ranks = side == QuerySide::kHead
                                       ? result.head_ranks
                                       : result.tail_ranks;
      for (size_t q = 0; q < count; ++q) {
        ranks[order[query_batch.begin + q]] =
            1.0 + double(counts[q].better) + double(counts[q].equal) / 2.0;
      }
    }
  });
  for (const RankScanStats& stats : batch_stats) {
    result.scan_stats.tiles_total += stats.tiles_total;
    result.scan_stats.tiles_skipped += stats.tiles_skipped;
  }

  // Serial accumulation in original triple order: tail rank then head
  // rank per triple.
  for (size_t i = 0; i < num_triples; ++i) {
    const Triple& triple = (*eval_triples)[i];
    const size_t tail_cands = CountCandidates(QuerySide::kTail, triple,
                                              num_entities, options.filtered);
    const size_t head_cands = CountCandidates(QuerySide::kHead, triple,
                                              num_entities, options.filtered);
    result.overall.AddRank(result.tail_ranks[i], tail_cands);
    result.overall.AddRank(result.head_ranks[i], head_cands);
    PerRelationMetrics& rel = result.per_relation[size_t(triple.relation)];
    rel.tail_queries.AddRank(result.tail_ranks[i], tail_cands);
    rel.head_queries.AddRank(result.head_ranks[i], head_cands);
  }
  return result;
}

RankingMetrics Evaluator::EvaluateOverall(const KgeModel& model,
                                          const std::vector<Triple>& triples,
                                          const EvalOptions& options) const {
  return Evaluate(model, triples, options).overall;
}

}  // namespace kge
