#include "models/ntn.h"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "math/activations.h"
#include "math/vec_ops.h"
#include "util/check.h"
#include "util/scratch.h"

namespace kge {

Ntn::Ntn(int32_t num_entities, int32_t num_relations, int32_t dim,
         int32_t num_slices, std::optional<uint64_t> seed)
    : name_("NTN"),
      num_slices_(num_slices),
      entities_("NTN.entities", num_entities, 1, dim),
      relations_("NTN.relations", num_relations,
                 int64_t(num_slices) * dim * dim +
                     int64_t(num_slices) * 2 * dim + 2 * int64_t(num_slices)) {
  KGE_CHECK(num_slices > 0 && dim > 0);
  if (seed) InitParameters(*seed);
}

int64_t Ntn::RowSize() const { return relations_.row_dim(); }

Ntn::RelationView Ntn::ViewOf(RelationId relation) const {
  const std::span<const float> row = relations_.Row(relation);
  const size_t d = size_t(dim());
  const size_t k = size_t(num_slices_);
  RelationView view;
  size_t offset = 0;
  view.w = row.subspan(offset, k * d * d);
  offset += k * d * d;
  view.v = row.subspan(offset, k * 2 * d);
  offset += k * 2 * d;
  view.b = row.subspan(offset, k);
  offset += k;
  view.u = row.subspan(offset, k);
  return view;
}

void Ntn::InitParameters(uint64_t seed) {
  Rng rng(seed);
  entities_.InitXavier(&rng);
  // Per-component scales: W like a D→D map, V like a 2D→1 map, b zero,
  // u small.
  const size_t d = size_t(dim());
  const size_t k = size_t(num_slices_);
  const float w_bound = std::sqrt(6.0f / float(2 * d));
  const float v_bound = std::sqrt(6.0f / float(2 * d + 1));
  for (int32_t r = 0; r < num_relations(); ++r) {
    std::span<float> row = relations_.Row(r);
    size_t offset = 0;
    for (size_t i = 0; i < k * d * d; ++i)
      row[offset++] = rng.NextUniform(-w_bound, w_bound);
    for (size_t i = 0; i < k * 2 * d; ++i)
      row[offset++] = rng.NextUniform(-v_bound, v_bound);
    for (size_t i = 0; i < k; ++i) row[offset++] = 0.0f;  // b
    for (size_t i = 0; i < k; ++i)
      row[offset++] = rng.NextUniform(-0.5f, 0.5f);  // u
  }
}

void Ntn::SlicePreactivations(std::span<const float> h,
                              std::span<const float> t, RelationId relation,
                              std::span<double> z) const {
  const RelationView view = ViewOf(relation);
  const size_t d = size_t(dim());
  for (int32_t slice = 0; slice < num_slices_; ++slice) {
    const float* w = view.w.data() + size_t(slice) * d * d;
    double bilinear = 0.0;
    for (size_t a = 0; a < d; ++a) {
      double row_dot = 0.0;
      for (size_t bcol = 0; bcol < d; ++bcol) {
        row_dot += double(w[a * d + bcol]) * double(t[bcol]);
      }
      bilinear += double(h[a]) * row_dot;
    }
    const float* v = view.v.data() + size_t(slice) * 2 * d;
    double linear = 0.0;
    for (size_t a = 0; a < d; ++a) {
      linear += double(v[a]) * double(h[a]) + double(v[d + a]) * double(t[a]);
    }
    z[size_t(slice)] = bilinear + linear + double(view.b[size_t(slice)]);
  }
}

double Ntn::Score(const Triple& triple) const {
  static thread_local std::vector<double> z_buf;
  const std::span<double> z =
      ScratchSpan(z_buf, static_cast<size_t>(num_slices_));
  SlicePreactivations(entities_.Of(triple.head), entities_.Of(triple.tail),
                      triple.relation, z);
  const RelationView view = ViewOf(triple.relation);
  double score = 0.0;
  for (int32_t slice = 0; slice < num_slices_; ++slice) {
    score += double(view.u[size_t(slice)]) * std::tanh(z[size_t(slice)]);
  }
  return score;
}

void Ntn::ScoreAll(QuerySide side, EntityId anchor, RelationId relation,
                   std::span<float> out) const {
  KGE_CHECK(out.size() == size_t(entities_.num_ids()));
  // Precompute per slice the anchor's bilinear part (hᵀW for tails, W t
  // for heads; k vectors of D) and its linear part through its own half
  // of V (V_h for tails, V_t for heads); per candidate each slice then
  // costs O(D) against the other half.
  const auto a = entities_.Of(anchor);
  const RelationView view = ViewOf(relation);
  const size_t d = size_t(dim());
  const size_t k = size_t(num_slices_);
  const bool tail_side = side == QuerySide::kTail;
  const size_t anchor_half = tail_side ? 0 : d;
  const size_t candidate_half = tail_side ? d : 0;
  static thread_local std::vector<double> aw_buf;
  static thread_local std::vector<double> a_linear_buf;
  const std::span<double> aw = ScratchSpan(aw_buf, k * d);
  const std::span<double> a_linear = ScratchSpan(a_linear_buf, k);
  std::fill(aw.begin(), aw.end(), 0.0);
  std::fill(a_linear.begin(), a_linear.end(), 0.0);
  for (size_t slice = 0; slice < k; ++slice) {
    const float* w = view.w.data() + slice * d * d;
    double* aw_slice = aw.data() + slice * d;
    for (size_t i = 0; i < d; ++i) {
      if (tail_side) {
        const double ai = a[i];
        for (size_t j = 0; j < d; ++j) {
          aw_slice[j] += ai * double(w[i * d + j]);
        }
      } else {
        for (size_t j = 0; j < d; ++j) {
          aw_slice[i] += double(w[i * d + j]) * double(a[j]);
        }
      }
    }
    const float* v = view.v.data() + slice * 2 * d + anchor_half;
    for (size_t i = 0; i < d; ++i) a_linear[slice] += double(v[i]) * a[i];
  }
  for (int32_t e = 0; e < entities_.num_ids(); ++e) {
    const auto c = entities_.Of(e);
    double score = 0.0;
    for (size_t slice = 0; slice < k; ++slice) {
      const float* v = view.v.data() + slice * 2 * d + candidate_half;
      double z = a_linear[slice] + double(view.b[slice]);
      for (size_t i = 0; i < d; ++i) {
        z += (aw[slice * d + i] + double(v[i])) * double(c[i]);
      }
      score += double(view.u[slice]) * std::tanh(z);
    }
    out[size_t(e)] = static_cast<float>(score);
  }
}

std::vector<ParameterBlock*> Ntn::Blocks() {
  return {entities_.block(), &relations_};
}

void Ntn::AccumulateGradients(const Triple& triple, float dscore,
                              GradientBuffer* grads) {
  const EmbeddingStore& entities = entities_;
  const auto h = entities.Of(triple.head);
  const auto t = entities.Of(triple.tail);
  const RelationView view = ViewOf(triple.relation);
  const size_t d = size_t(dim());
  const size_t k = size_t(num_slices_);

  static thread_local std::vector<double> z_buf;
  const std::span<double> z = ScratchSpan(z_buf, k);
  SlicePreactivations(h, t, triple.relation, z);

  std::span<float> gh = grads->GradFor(kEntityBlock, triple.head);
  std::span<float> gt = grads->GradFor(kEntityBlock, triple.tail);
  std::span<float> gr = grads->GradFor(kRelationBlock, triple.relation);

  // Relation-row gradient offsets matching ViewOf's layout.
  const size_t w_offset = 0;
  const size_t v_offset = k * d * d;
  const size_t b_offset = v_offset + k * 2 * d;
  const size_t u_offset = b_offset + k;

  for (size_t slice = 0; slice < k; ++slice) {
    const double tanh_z = std::tanh(z[slice]);
    // dS/du = tanh(z).
    gr[u_offset + slice] += dscore * static_cast<float>(tanh_z);
    // dz = u * (1 - tanh²(z)).
    const double dz = double(dscore) * double(view.u[slice]) *
                      TanhDerivFromOutput(tanh_z);
    if (dz == 0.0) continue;
    const float dzf = static_cast<float>(dz);
    // b.
    gr[b_offset + slice] += dzf;
    // V and entity linear parts.
    const float* v = view.v.data() + slice * 2 * d;
    float* gv = gr.data() + v_offset + slice * 2 * d;
    for (size_t a = 0; a < d; ++a) {
      gv[a] += dzf * h[a];
      gv[d + a] += dzf * t[a];
      gh[a] += dzf * v[a];
      gt[a] += dzf * v[d + a];
    }
    // W slice and bilinear entity parts.
    const float* w = view.w.data() + slice * d * d;
    float* gw = gr.data() + w_offset + slice * d * d;
    for (size_t a = 0; a < d; ++a) {
      const float ha = h[a];
      double wt_a = 0.0;
      for (size_t bcol = 0; bcol < d; ++bcol) {
        gw[a * d + bcol] += dzf * ha * t[bcol];
        gt[bcol] += dzf * ha * w[a * d + bcol];
        wt_a += double(w[a * d + bcol]) * double(t[bcol]);
      }
      gh[a] += dzf * static_cast<float>(wt_a);
    }
  }
}

std::unique_ptr<Ntn> MakeNtn(int32_t num_entities, int32_t num_relations,
                             int32_t dim, int32_t num_slices,
                             std::optional<uint64_t> seed) {
  return std::make_unique<Ntn>(num_entities, num_relations, dim, num_slices,
                               seed);
}

}  // namespace kge
