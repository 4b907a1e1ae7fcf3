#include "optim/constraints.h"

#include "math/vec_ops.h"

namespace kge {

double L2Regularizer::Accumulate(
    GradientBuffer* grads,
    std::span<const std::pair<size_t, int64_t>> block_rows) {
  if (lambda_ == 0.0 || block_rows.empty()) return 0.0;
  int64_t n_d = 0;
  for (const auto& [block_index, row] : block_rows) {
    n_d += grads->block(block_index)->row_dim();
  }
  const double inv_nd = 1.0 / double(n_d);
  double loss = 0.0;
  for (const auto& [block_index, row] : block_rows) {
    const ParameterBlock* block = grads->block(block_index);
    const std::span<const float> params = block->Row(row);
    loss += lambda_ * inv_nd * SquaredNorm(params);
    std::span<float> grad = grads->GradFor(block_index, row);
    const float scale = static_cast<float>(2.0 * lambda_ * inv_nd);
    for (size_t d = 0; d < params.size(); ++d) grad[d] += scale * params[d];
  }
  return loss;
}

}  // namespace kge
