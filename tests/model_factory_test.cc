#include "models/model_factory.h"

#include <gtest/gtest.h>

#include <span>
#include <string>
#include <utility>
#include <vector>

#include "models/reciprocal_wrapper.h"
#include "models/trilinear_models.h"
#include "util/crc32c.h"

namespace kge {
namespace {

constexpr int32_t kEntities = 20;
constexpr int32_t kRelations = 4;
constexpr int32_t kBudget = 48;
constexpr uint64_t kSeed = 9;

TEST(ModelFactoryTest, EveryKnownNameConstructs) {
  for (const std::string& name : KnownModelNames()) {
    Result<std::unique_ptr<KgeModel>> model =
        MakeModelByName(name, kEntities, kRelations, kBudget, kSeed);
    ASSERT_TRUE(model.ok()) << name << ": " << model.status().ToString();
    EXPECT_EQ((*model)->num_entities(), kEntities) << name;
    EXPECT_EQ((*model)->num_relations(), kRelations) << name;
    EXPECT_GT((*model)->NumParameters(), 0) << name;
  }
}

// The scan configuration below: a candidate list with a repeated id.
constexpr int32_t kScanEntities = 41;
constexpr int32_t kScanRelations = 5;
constexpr uint64_t kScanSeed = 7;
const std::vector<EntityId> kScanCandidates = {3, 17, 0, 40, 17, 8};

const char* SideName(QuerySide side) {
  return side == QuerySide::kTail ? "tail" : "head";
}

TEST(ModelFactoryTest, EveryModelScoresBothSidesLikeScore) {
  for (const std::string& name : KnownModelNames()) {
    Result<std::unique_ptr<KgeModel>> made = MakeModelByName(
        name, kScanEntities, kScanRelations, kBudget, kScanSeed);
    ASSERT_TRUE(made.ok()) << name;
    const KgeModel& model = **made;
    std::vector<float> row(kScanEntities);
    std::vector<float> out(kScanCandidates.size());
    for (const QuerySide side : {QuerySide::kTail, QuerySide::kHead}) {
      for (const auto& [anchor, relation] :
           {std::pair<EntityId, RelationId>{0, 1},
            std::pair<EntityId, RelationId>{kScanEntities - 1,
                                            kScanRelations - 1}}) {
        SCOPED_TRACE(name + " " + SideName(side) + " anchor " +
                     std::to_string(anchor));
        model.ScoreAll(side, anchor, relation, row);
        for (EntityId e = 0; e < kScanEntities; ++e) {
          EXPECT_NEAR(row[size_t(e)],
                      model.Score(QueryTriple(side, anchor, relation, e)),
                      1e-5)
              << "candidate " << e;
        }
        // Folding models score candidates with the ScoreAll kernel,
        // the others through Score.
        model.ScoreCandidates(side, anchor, relation, kScanCandidates, out);
        for (size_t i = 0; i < kScanCandidates.size(); ++i) {
          const EntityId e = kScanCandidates[i];
          const float expect =
              model.FoldWidth() > 0
                  ? row[size_t(e)]
                  : float(model.Score(QueryTriple(side, anchor, relation, e)));
          EXPECT_EQ(out[i], expect) << "candidate " << e;
        }
      }
    }
  }
}

// CRC32C over every scan of `model`: for each relation and anchor, the
// tail and head ScoreAll rows, then the tail and head ScoreCandidates
// outputs over kScanCandidates.
uint32_t ScanChecksum(const KgeModel& model) {
  std::vector<float> row(size_t(model.num_entities()));
  std::vector<float> out(kScanCandidates.size());
  uint32_t crc = 0;
  const auto extend = [&crc](std::span<const float> scores) {
    crc = Crc32cExtend(crc, scores.data(), scores.size_bytes());
  };
  for (RelationId r = 0; r < model.num_relations(); ++r) {
    for (EntityId anchor = 0; anchor < model.num_entities(); ++anchor) {
      for (const QuerySide side : {QuerySide::kTail, QuerySide::kHead}) {
        model.ScoreAll(side, anchor, r, row);
        extend(row);
      }
      for (const QuerySide side : {QuerySide::kTail, QuerySide::kHead}) {
        model.ScoreCandidates(side, anchor, r, kScanCandidates, out);
        extend(out);
      }
    }
  }
  return crc;
}

// Every scan is pinned bit for bit, at every ISA: a change that moves
// any score changes its model's checksum. Left out are the models whose
// scans or set-up call libm transcendentals (rotate, ntn, er-mlp and
// autoweight-{tanh,sigmoid,softmax}), whose last bits depend on the C
// library.
TEST(ModelFactoryTest, ScansReproducePinnedChecksums) {
  const std::vector<std::pair<std::string, uint32_t>> pinned = {
      {"distmult", 0x7194a166u},   {"complex", 0xa3a624e4u},
      {"cp", 0x9a3f644au},         {"cph", 0xada61dd9u},
      {"simple", 0x74d81f1fu},     {"quaternion", 0x11d9b502u},
      {"octonion", 0x3a865f4au},   {"uniform", 0xf09565aau},
      {"transe-l1", 0xef9519b8u},  {"transe-l2", 0x6046c0c5u},
      {"transh", 0xfefb0d48u},     {"rescal", 0x00251e9bu},
      {"conve", 0x724e0ac6u},      {"autoweight", 0xf09565aau},
      {"autoweight-sparse", 0xf09565aau},
  };
  for (const auto& [name, crc] : pinned) {
    Result<std::unique_ptr<KgeModel>> made = MakeModelByName(
        name, kScanEntities, kScanRelations, kBudget, kScanSeed);
    ASSERT_TRUE(made.ok()) << name;
    EXPECT_EQ(ScanChecksum(**made), crc) << name;
  }
  // ComplEx trained on inverse-augmented relations, ranked through the
  // reciprocal head query.
  const std::unique_ptr<MultiEmbeddingModel> base =
      MakeComplEx(kScanEntities, 2 * kScanRelations, kBudget / 2, kScanSeed);
  const ReciprocalWrapper wrapper(base.get(), kScanRelations);
  EXPECT_EQ(ScanChecksum(wrapper), 0x6744bdf1u);
}

TEST(ModelFactoryTest, UnknownNameIsNotFound) {
  const auto result =
      MakeModelByName("conv-e", kEntities, kRelations, kBudget, kSeed);
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
  // The error names the known models.
  EXPECT_NE(result.status().message().find("complex"), std::string::npos);
}

TEST(ModelFactoryTest, BadShapeIsInvalidArgument) {
  EXPECT_FALSE(MakeModelByName("complex", 0, kRelations, kBudget, kSeed).ok());
  EXPECT_FALSE(MakeModelByName("complex", kEntities, 0, kBudget, kSeed).ok());
  EXPECT_FALSE(
      MakeModelByName("complex", kEntities, kRelations, 0, kSeed).ok());
}

TEST(ModelFactoryTest, BudgetIsSplitAcrossVectors) {
  // 48 params per entity: DistMult 1x48, ComplEx 2x24, quaternion 4x12 —
  // equal entity-parameter totals.
  const auto distmult =
      MakeModelByName("distmult", kEntities, kRelations, kBudget, kSeed);
  const auto complex =
      MakeModelByName("complex", kEntities, kRelations, kBudget, kSeed);
  const auto quaternion =
      MakeModelByName("quaternion", kEntities, kRelations, kBudget, kSeed);
  auto entity_params = [](KgeModel* model) {
    return model->Blocks()[0]->size();
  };
  EXPECT_EQ(entity_params(distmult->get()), entity_params(complex->get()));
  EXPECT_EQ(entity_params(complex->get()), entity_params(quaternion->get()));
}

TEST(ModelFactoryTest, AutoweightVariantsGetDistinctConfigurations) {
  const auto plain = MakeModelByName("autoweight", kEntities, kRelations,
                                     kBudget, kSeed);
  const auto softmax = MakeModelByName("autoweight-softmax", kEntities,
                                       kRelations, kBudget, kSeed);
  const auto sparse = MakeModelByName("autoweight-sparse", kEntities,
                                      kRelations, kBudget, kSeed);
  ASSERT_TRUE(plain.ok() && softmax.ok() && sparse.ok());
  EXPECT_EQ((*plain)->name(), "AutoWeight[none]");
  EXPECT_EQ((*softmax)->name(), "AutoWeight[softmax]");
  EXPECT_EQ((*sparse)->name(), "AutoWeight[none,sparse]");
  EXPECT_FALSE(
      MakeModelByName("autoweight-relu", kEntities, kRelations, kBudget, kSeed)
          .ok());
}

TEST(ModelFactoryTest, SimplEIsHalfCph) {
  // SimplE's score must be exactly half of CPh's for identical embeddings
  // and seed (the tables differ only by the 1/2 factor).
  const auto simple =
      MakeModelByName("simple", kEntities, kRelations, kBudget, kSeed);
  const auto cph =
      MakeModelByName("cph", kEntities, kRelations, kBudget, kSeed);
  ASSERT_TRUE(simple.ok() && cph.ok());
  // Same seed and same shapes => identical embeddings.
  for (EntityId h = 0; h < 5; ++h) {
    const Triple triple{h, EntityId(h + 1), 0};
    EXPECT_NEAR((*simple)->Score(triple), 0.5 * (*cph)->Score(triple), 1e-5);
  }
}

TEST(ModelFactoryTest, KnownModelNamesIsNonEmptyAndUnique) {
  const auto names = KnownModelNames();
  EXPECT_GE(names.size(), 12u);
  for (size_t i = 0; i < names.size(); ++i) {
    for (size_t j = i + 1; j < names.size(); ++j) {
      EXPECT_NE(names[i], names[j]);
    }
  }
}

}  // namespace
}  // namespace kge
