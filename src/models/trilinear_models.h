// MultiEmbeddingModel: the concrete trilinear-product model family —
// Eq. (8) with a fixed weight table ω. DistMult, ComplEx, CP, CPh, the
// quaternion model, and the hand-picked good/bad weight vectors of
// Table 2 are all instances (this is the paper's unification claim made
// executable). Factory functions construct each named configuration with
// the paper's parameter-budget conventions.
#ifndef KGE_MODELS_TRILINEAR_MODELS_H_
#define KGE_MODELS_TRILINEAR_MODELS_H_

#include <memory>
#include <optional>
#include <string>

#include "core/embedding_store.h"
#include "core/interaction.h"
#include "core/scoring_replica.h"
#include "core/weight_table.h"
#include "models/kge_model.h"
#include "util/hotpath.h"

namespace kge {

class MultiEmbeddingModel : public KgeModel {
 public:
  // `dim` is the per-vector dimension; entities get weights.ne() vectors
  // and relations weights.nr() vectors.
  MultiEmbeddingModel(std::string name, int32_t num_entities,
                      int32_t num_relations, int32_t dim, WeightTable weights,
                      std::optional<uint64_t> seed);

  const std::string& name() const override { return name_; }
  int32_t num_entities() const override { return entities_.num_ids(); }
  int32_t num_relations() const override { return relations_.num_ids(); }
  int32_t dim() const { return dim_; }

  double Score(const Triple& triple) const override;
  KGE_HOT_NOALLOC
  void ScoreAll(QuerySide side, EntityId anchor, RelationId relation,
                std::span<float> out) const override;
  // Batched candidate scoring: fold the fixed (anchor, r) context once,
  // then score the candidates straight out of the entity table with the
  // id-indirected kernel (simd::DotBatchIndexed) — no copy of the
  // candidate rows. Each score is exactly float(Dot(fold, candidate))
  // — the same value ScoreAll computes for that entity.
  KGE_HOT_NOALLOC
  void ScoreCandidates(QuerySide side, EntityId anchor, RelationId relation,
                       std::span<const EntityId> candidates,
                       std::span<float> out) const override;
  // Every score is Dot(fold, candidate row): the fold is ω-weighted
  // products of the anchor's and relation's vectors (FoldForTail /
  // FoldForHead), ne · dim floats wide.
  size_t FoldWidth() const override {
    return size_t(weights_.ne()) * size_t(dim_);
  }
  KGE_HOT_NOALLOC
  void FoldQueries(QuerySide side, RelationId relation,
                   std::span<const EntityId> anchors,
                   std::span<float> folds) const override;
  // The tile-strided multi-query walk over the entity table's 24 KiB
  // bound tiles (simd::PrunedTileRows), scoring each kept tile with the
  // tier's DotBatchMulti{,F32,I8} for all its live queries at once. Per
  // the kernels' per-cell contract every score is bit-identical to the
  // same cell of a full-table product, so tiling, striding, pruning and
  // batching never change a result.
  KGE_HOT_NOALLOC
  void TopKWalk(const TopKWalkBatch& batch, int lane, int num_lanes,
                std::span<TopKHeap<float, EntityId>> heaps,
                std::span<RankCounts> counts, TopKWalkScratch* scratch,
                RankScanStats* stats) const override;

  // The trilinear family supports every tier.
  bool SupportsScorePrecision(ScorePrecision precision) const override {
    (void)precision;
    return true;
  }

  // Requantizes the entity replica if training moved the master table.
  void PrepareForScoring(ScorePrecision precision,
                         ThreadPool* pool = nullptr) const override {
    entity_replica_.EnsureFresh(precision, pool);
  }

  // Additionally rebuilds the per-tile score bounds the pruned walk
  // reads (stale iff training moved the master table).
  void PrepareForPrunedScoring(ScorePrecision precision,
                               ThreadPool* pool = nullptr) const override {
    entity_replica_.EnsureFresh(precision, pool);
    entity_replica_.EnsureBoundsFresh(precision, pool);
  }

  std::vector<ParameterBlock*> Blocks() override;
  KGE_HOT_NOALLOC
  void AccumulateGradients(const Triple& triple, float dscore,
                           GradientBuffer* grads) override;
  int32_t EntityVectorDim() const override { return entities_.dim(); }
  void InitParameters(uint64_t seed) override;

  const WeightTable& weights() const { return weights_; }
  EmbeddingStore& entity_store() { return entities_; }
  const EmbeddingStore& entity_store() const { return entities_; }
  EmbeddingStore& relation_store() { return relations_; }
  const EmbeddingStore& relation_store() const { return relations_; }

  // Block indices within Blocks().
  static constexpr size_t kEntityBlock = 0;
  static constexpr size_t kRelationBlock = 1;

 protected:
  // Subclass hook: replace ω's values in place, same shape
  // (LearnedWeightModel recomputes it per batch without allocating).
  void SetWeights(std::span<const float> omega) { weights_.SetFlat(omega); }

 private:
  // Folds one context into per-thread scratch (valid until the next
  // FoldOne on this thread).
  KGE_HOT_NOALLOC
  std::span<const float> FoldOne(QuerySide side, EntityId anchor,
                                 RelationId relation) const;

  std::string name_;
  int32_t dim_;
  WeightTable weights_;
  EmbeddingStore entities_;
  EmbeddingStore relations_;
  // Derived scoring cache over the entity block (mutable: rebuilding a
  // replica in PrepareForScoring does not change model state). Guarded
  // by the generation stamp, rebuilt single-threaded, read-only during
  // concurrent scoring.
  mutable ScoringReplica entity_replica_;
};

// ---- Named factories -------------------------------------------------------
// `dim` below is the *per-vector* embedding size. The paper compares
// models at matched parameter budgets: DistMult 400, ComplEx/CP/CPh 200,
// quaternion 100 — pass the matching dim for such comparisons.

std::unique_ptr<MultiEmbeddingModel> MakeDistMult(
    int32_t num_entities, int32_t num_relations, int32_t dim,
    std::optional<uint64_t> seed);

std::unique_ptr<MultiEmbeddingModel> MakeComplEx(
    int32_t num_entities, int32_t num_relations, int32_t dim,
    std::optional<uint64_t> seed);

std::unique_ptr<MultiEmbeddingModel> MakeCp(
    int32_t num_entities, int32_t num_relations, int32_t dim,
    std::optional<uint64_t> seed);

// CPh as the derived two-embedding weight vector (Table 1). Equivalent to
// CP + inverse augmentation at training time; see also Trainer's
// augment_inverses option for the data-augmentation formulation.
std::unique_ptr<MultiEmbeddingModel> MakeCph(
    int32_t num_entities, int32_t num_relations, int32_t dim,
    std::optional<uint64_t> seed);

// Any fixed weight table (e.g. Table 2's good/bad examples or uniform).
std::unique_ptr<MultiEmbeddingModel> MakeMultiEmbedding(
    std::string name, int32_t num_entities, int32_t num_relations,
    int32_t dim, WeightTable weights, std::optional<uint64_t> seed);

}  // namespace kge

#endif  // KGE_MODELS_TRILINEAR_MODELS_H_
