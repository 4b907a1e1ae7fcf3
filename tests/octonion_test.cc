#include "math/octonion.h"

#include <gtest/gtest.h>

#include <cmath>

#include "core/interaction.h"
#include "models/octonion_model.h"
#include "util/random.h"

namespace kge {
namespace {

Octonion RandomOctonion(Rng* rng) {
  std::array<double, 8> c;
  for (double& x : c) x = rng->NextUniform(-2, 2);
  return Octonion::FromComponents(c);
}

void ExpectNear(const Octonion& x, const Octonion& y, double tol) {
  const auto cx = x.Components();
  const auto cy = y.Components();
  for (int i = 0; i < 8; ++i) EXPECT_NEAR(cx[size_t(i)], cy[size_t(i)], tol);
}

TEST(OctonionTest, ComponentsRoundTrip) {
  const std::array<double, 8> c = {1, 2, 3, 4, 5, 6, 7, 8};
  EXPECT_EQ(Octonion::FromComponents(c).Components(), c);
}

TEST(OctonionTest, IdentityElement) {
  Rng rng(1);
  const Octonion one = Octonion::FromComponents({1, 0, 0, 0, 0, 0, 0, 0});
  const Octonion x = RandomOctonion(&rng);
  ExpectNear(one * x, x, 1e-12);
  ExpectNear(x * one, x, 1e-12);
}

TEST(OctonionTest, ImaginaryUnitsSquareToMinusOne) {
  const Octonion minus_one =
      Octonion::FromComponents({-1, 0, 0, 0, 0, 0, 0, 0});
  for (int i = 1; i < 8; ++i) {
    std::array<double, 8> c{};
    c[size_t(i)] = 1.0;
    const Octonion e = Octonion::FromComponents(c);
    ExpectNear(e * e, minus_one, 1e-12);
  }
}

TEST(OctonionTest, EmbedsQuaternions) {
  // Octonions with zero second quaternion multiply like quaternions.
  Rng rng(2);
  const Quaternion qa(rng.NextUniform(-1, 1), rng.NextUniform(-1, 1),
                      rng.NextUniform(-1, 1), rng.NextUniform(-1, 1));
  const Quaternion qb(rng.NextUniform(-1, 1), rng.NextUniform(-1, 1),
                      rng.NextUniform(-1, 1), rng.NextUniform(-1, 1));
  const Octonion oa(qa, Quaternion());
  const Octonion ob(qb, Quaternion());
  const Quaternion expected = qa * qb;
  const Octonion product = oa * ob;
  EXPECT_NEAR(product.a.a, expected.a, 1e-12);
  EXPECT_NEAR(product.a.b, expected.b, 1e-12);
  EXPECT_NEAR(product.a.c, expected.c, 1e-12);
  EXPECT_NEAR(product.a.d, expected.d, 1e-12);
  EXPECT_NEAR(product.b.Norm(), 0.0, 1e-12);
}

TEST(OctonionTest, NormIsMultiplicative) {
  // Octonions are a composition algebra: |xy| = |x||y| despite
  // non-associativity.
  Rng rng(3);
  for (int trial = 0; trial < 20; ++trial) {
    const Octonion x = RandomOctonion(&rng);
    const Octonion y = RandomOctonion(&rng);
    EXPECT_NEAR((x * y).Norm(), x.Norm() * y.Norm(), 1e-9);
  }
}

TEST(OctonionTest, ConjugateReversesProducts) {
  Rng rng(4);
  const Octonion x = RandomOctonion(&rng);
  const Octonion y = RandomOctonion(&rng);
  ExpectNear((x * y).Conjugate(), y.Conjugate() * x.Conjugate(), 1e-9);
}

TEST(OctonionTest, SelfConjugateProductIsNormSquared) {
  Rng rng(5);
  const Octonion x = RandomOctonion(&rng);
  const Octonion self = x * x.Conjugate();
  EXPECT_NEAR(self.real(), x.NormSquared(), 1e-9);
  EXPECT_NEAR(self.Norm(), x.NormSquared(), 1e-9);  // imaginary parts 0
}

TEST(OctonionTest, IsAlternativeButNotAssociative) {
  Rng rng(6);
  const Octonion x = RandomOctonion(&rng);
  const Octonion y = RandomOctonion(&rng);
  const Octonion z = RandomOctonion(&rng);
  // Alternative: x(xy) = (xx)y.
  ExpectNear(x * (x * y), (x * x) * y, 1e-9);
  ExpectNear((y * x) * x, y * (x * x), 1e-9);
  // Non-associative in general: (xy)z != x(yz).
  const Octonion left = (x * y) * z;
  const Octonion right = x * (y * z);
  double diff = 0.0;
  for (int i = 0; i < 8; ++i) {
    diff += std::fabs(left.Components()[size_t(i)] -
                      right.Components()[size_t(i)]);
  }
  EXPECT_GT(diff, 1e-6);
}

TEST(OctonionModelTest, DerivedTableHas64SignedUnitTerms) {
  const WeightTable table =
      DeriveOctonionWeightTable(OctonionAssociation::kLeft);
  EXPECT_EQ(table.ne(), 8);
  EXPECT_EQ(table.nr(), 8);
  EXPECT_EQ(table.terms().size(), 64u);
  for (const WeightTable::Term& term : table.terms()) {
    EXPECT_TRUE(term.weight == 1.0f || term.weight == -1.0f);
  }
}

TEST(OctonionModelTest, AssociationsCoincideInTheRealPart) {
  // Octonions are non-associative, but the associator is purely
  // imaginary, so Re((xy)z) == Re(x(yz)): both associations derive the
  // SAME weight table — the score function is well defined without
  // choosing an association.
  const WeightTable left =
      DeriveOctonionWeightTable(OctonionAssociation::kLeft);
  const WeightTable right =
      DeriveOctonionWeightTable(OctonionAssociation::kRight);
  for (int32_t m = 0; m < left.size(); ++m) {
    EXPECT_EQ(left.Flat()[size_t(m)], right.Flat()[size_t(m)]) << m;
  }
}

TEST(OctonionTest, RealPartOfTripleProductIsAssociationIndependent) {
  // The algebra-level fact behind the previous test, on random elements.
  Rng rng(8);
  for (int trial = 0; trial < 20; ++trial) {
    const Octonion x = RandomOctonion(&rng);
    const Octonion y = RandomOctonion(&rng);
    const Octonion z = RandomOctonion(&rng);
    EXPECT_NEAR(((x * y) * z).real(), (x * (y * z)).real(), 1e-9);
  }
}

TEST(OctonionModelTest, TableScoreMatchesDirectOctonionAlgebra) {
  const WeightTable table =
      DeriveOctonionWeightTable(OctonionAssociation::kLeft);
  Rng rng(7);
  const int32_t dim = 4;
  std::vector<float> h(8 * dim), t(8 * dim), r(8 * dim);
  for (auto* v : {&h, &t, &r}) {
    for (float& x : *v) x = rng.NextUniform(-1, 1);
  }
  double direct = 0.0;
  for (int32_t d = 0; d < dim; ++d) {
    std::array<double, 8> hc, tc, rc;
    for (int i = 0; i < 8; ++i) {
      hc[size_t(i)] = h[size_t(i * dim + d)];
      tc[size_t(i)] = t[size_t(i * dim + d)];
      rc[size_t(i)] = r[size_t(i * dim + d)];
    }
    const Octonion product = (Octonion::FromComponents(hc) *
                              Octonion::FromComponents(tc).Conjugate()) *
                             Octonion::FromComponents(rc);
    direct += product.real();
  }
  EXPECT_NEAR(ScoreTriple(table, dim, h, t, r), direct, 1e-5);
}

TEST(OctonionModelTest, QuaternionTableIsTheUpperCorner) {
  // Restricting the octonion table to the first four components must
  // reproduce the quaternion table (O contains H).
  const WeightTable octonion =
      DeriveOctonionWeightTable(OctonionAssociation::kLeft);
  const WeightTable quaternion = WeightTable::Quaternion();
  for (int32_t i = 0; i < 4; ++i) {
    for (int32_t j = 0; j < 4; ++j) {
      for (int32_t k = 0; k < 4; ++k) {
        EXPECT_EQ(octonion.At(i, j, k), quaternion.At(i, j, k))
            << i << "," << j << "," << k;
      }
    }
  }
}

TEST(OctonionModelTest, ModelConstructsAndRanksConsistently) {
  auto model = MakeOctonionModel(15, 3, 4, 9);
  EXPECT_EQ(model->name(), "Octonion");
  std::vector<float> scores(15);
  model->ScoreAll(QuerySide::kTail, 2, 1, scores);
  for (EntityId t = 0; t < 15; ++t) {
    EXPECT_NEAR(scores[size_t(t)], model->Score({2, t, 1}), 1e-4);
  }
}

}  // namespace
}  // namespace kge
