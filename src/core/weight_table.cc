#include "core/weight_table.h"

#include "util/check.h"
#include "util/string_utils.h"

namespace kge {

WeightTable::WeightTable(int32_t ne, int32_t nr) : ne_(ne), nr_(nr) {
  KGE_CHECK(ne > 0 && nr > 0);
  data_.assign(static_cast<size_t>(size()), 0.0f);
}

int32_t WeightTable::Index(int32_t i, int32_t j, int32_t k) const {
  KGE_DCHECK(i >= 0 && i < ne_ && j >= 0 && j < ne_ && k >= 0 && k < nr_);
  return (i * ne_ + j) * nr_ + k;
}

void WeightTable::Set(int32_t i, int32_t j, int32_t k, float value) {
  data_[static_cast<size_t>(Index(i, j, k))] = value;
  RebuildTerms();
}

void WeightTable::SetFlat(std::span<const float> values) {
  KGE_CHECK(values.size() == data_.size());
  data_.assign(values.begin(), values.end());
  RebuildTerms();
}

void WeightTable::RebuildTerms() {
  terms_.clear();
  // At most one term per weight, so a rebuild never reallocates.
  terms_.reserve(data_.size());
  for (int32_t i = 0; i < ne_; ++i) {
    for (int32_t j = 0; j < ne_; ++j) {
      for (int32_t k = 0; k < nr_; ++k) {
        const float w = At(i, j, k);
        if (w != 0.0f) terms_.push_back({i, j, k, w});
      }
    }
  }
}

WeightTable WeightTable::HeadTailTransposed() const {
  WeightTable t(ne_, nr_);
  for (int32_t i = 0; i < ne_; ++i) {
    for (int32_t j = 0; j < ne_; ++j) {
      for (int32_t k = 0; k < nr_; ++k) {
        t.data_[static_cast<size_t>(t.Index(i, j, k))] = At(j, i, k);
      }
    }
  }
  t.RebuildTerms();
  return t;
}

std::string WeightTable::ToString() const {
  std::string out = StrFormat("WeightTable(ne=%d, nr=%d):", ne_, nr_);
  for (const Term& term : terms_) {
    out += StrFormat(" %+g*<h%d,t%d,r%d>", term.weight, term.i + 1,
                     term.j + 1, term.k + 1);
  }
  return out;
}

namespace {

WeightTable MakeTable(int32_t ne, int32_t nr,
                      std::initializer_list<WeightTable::Term> terms) {
  WeightTable table(ne, nr);
  std::vector<float> flat(static_cast<size_t>(table.size()), 0.0f);
  for (const WeightTable::Term& t : terms) {
    flat[static_cast<size_t>(table.Index(t.i, t.j, t.k))] = t.weight;
  }
  table.SetFlat(flat);
  return table;
}

}  // namespace

WeightTable WeightTable::DistMult() {
  return MakeTable(1, 1, {{0, 0, 0, 1.0f}});
}

// Eq. (10): Re<h, conj(t), r> = <h1,t1,r1> + <h1,t2,r2> - <h2,t1,r2>
//                             + <h2,t2,r1>.
WeightTable WeightTable::ComplEx() {
  return MakeTable(2, 2,
                   {{0, 0, 0, 1.0f},
                    {0, 1, 1, 1.0f},
                    {1, 0, 1, -1.0f},
                    {1, 1, 0, 1.0f}});
}

// Table 1 column "ComplEx equiv. 1": (1, 0, 0, -1, 0, 1, 1, 0).
WeightTable WeightTable::ComplExEquiv1() {
  return MakeTable(2, 2,
                   {{0, 0, 0, 1.0f},
                    {0, 1, 1, -1.0f},
                    {1, 0, 1, 1.0f},
                    {1, 1, 0, 1.0f}});
}

// Table 1 column "ComplEx equiv. 2": (0, 1, -1, 0, 1, 0, 0, 1).
WeightTable WeightTable::ComplExEquiv2() {
  return MakeTable(2, 2,
                   {{0, 0, 1, 1.0f},
                    {0, 1, 0, -1.0f},
                    {1, 0, 0, 1.0f},
                    {1, 1, 1, 1.0f}});
}

// Table 1 column "ComplEx equiv. 3": (0, 1, 1, 0, -1, 0, 0, 1).
WeightTable WeightTable::ComplExEquiv3() {
  return MakeTable(2, 2,
                   {{0, 0, 1, 1.0f},
                    {0, 1, 0, 1.0f},
                    {1, 0, 0, -1.0f},
                    {1, 1, 1, 1.0f}});
}

WeightTable WeightTable::Cp() { return MakeTable(2, 1, {{0, 1, 0, 1.0f}}); }

// S = <h, t(2), r> + <t, h(2), r(a)>: mapping r(a) to r(2) gives terms
// (h1,t2,r1) and (h2,t1,r2).
WeightTable WeightTable::Cph() {
  return MakeTable(2, 2, {{0, 1, 0, 1.0f}, {1, 0, 1, 1.0f}});
}

// Table 1 column "CPh equiv.": (0, 0, 0, 1, 1, 0, 0, 0).
WeightTable WeightTable::CphEquiv() {
  return MakeTable(2, 2, {{0, 1, 1, 1.0f}, {1, 0, 0, 1.0f}});
}

// Eq. (14): the 16 signed terms of Re<h, conj(t), r> over H.
WeightTable WeightTable::Quaternion() {
  return MakeTable(4, 4,
                   {
                       // r(1) block
                       {0, 0, 0, 1.0f},
                       {1, 1, 0, 1.0f},
                       {2, 2, 0, 1.0f},
                       {3, 3, 0, 1.0f},
                       // r(2) block
                       {0, 1, 1, 1.0f},
                       {1, 0, 1, -1.0f},
                       {2, 3, 1, 1.0f},
                       {3, 2, 1, -1.0f},
                       // r(3) block
                       {0, 2, 2, 1.0f},
                       {1, 3, 2, -1.0f},
                       {2, 0, 2, -1.0f},
                       {3, 1, 2, 1.0f},
                       // r(4) block
                       {0, 3, 3, 1.0f},
                       {1, 2, 3, 1.0f},
                       {2, 1, 3, -1.0f},
                       {3, 0, 3, -1.0f},
                   });
}

WeightTable WeightTable::Uniform(int32_t ne, int32_t nr) {
  WeightTable table(ne, nr);
  std::vector<float> flat(static_cast<size_t>(table.size()), 1.0f);
  table.SetFlat(flat);
  return table;
}

WeightTable WeightTable::SimplE() {
  return MakeTable(2, 2, {{0, 1, 0, 0.5f}, {1, 0, 1, 0.5f}});
}

WeightTable WeightTable::FromPaperVector(const std::array<float, 8>& w) {
  // Paper ordering for ne = nr = 2: <h1t1r1>, <h1t1r2>, <h1t2r1>,
  // <h1t2r2>, <h2t1r1>, <h2t1r2>, <h2t2r1>, <h2t2r2> — which is exactly
  // row-major (i, j, k).
  WeightTable table(2, 2);
  table.SetFlat(std::span<const float>(w.data(), w.size()));
  return table;
}

WeightTable WeightTable::BadExample1() {
  return FromPaperVector({0, 0, 20, 0, 0, 1, 0, 0});
}
WeightTable WeightTable::BadExample2() {
  return FromPaperVector({0, 0, 1, 1, 1, 1, 0, 0});
}
WeightTable WeightTable::GoodExample1() {
  return FromPaperVector({0, 0, 20, 1, 1, 20, 0, 0});
}
WeightTable WeightTable::GoodExample2() {
  return FromPaperVector({1, 1, -1, 1, 1, -1, 1, 1});
}

}  // namespace kge
