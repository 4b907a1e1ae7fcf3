// The L2 regularizer of Eq. (16). The paper's other constraint — unit
// L2-norm entity vectors after each training iteration (§5.3) — is
// KgeModel::NormalizeEntityRow, applied row by row in Trainer's step.
#ifndef KGE_OPTIM_CONSTRAINTS_H_
#define KGE_OPTIM_CONSTRAINTS_H_

#include <cstdint>
#include <span>
#include <utility>

#include "core/parameter_block.h"

namespace kge {

// Adds the L2 regularization gradient of Eq. (16) for one triple's
// parameter rows: grad += (2λ / n_D) * θ for each involved row, where
// n_D is the total number of parameters entering the triple's score.
// Call once per positive/negative example, mirroring the per-example sum
// in the loss.
class L2Regularizer {
 public:
  explicit L2Regularizer(double lambda) : lambda_(lambda) {}

  double lambda() const { return lambda_; }

  // Loss contribution (λ / n_D) * ||θ||² for the given rows, adding the
  // matching gradients into `grads`. `blocks_rows` lists (block, row)
  // pairs; duplicated pairs are regularized multiple times, matching the
  // per-example formulation. Reads the parameters through const
  // accessors, so it never bumps a block's mutation stamp.
  double Accumulate(GradientBuffer* grads,
                    std::span<const std::pair<size_t, int64_t>> block_rows);

 private:
  double lambda_;
};

}  // namespace kge

#endif  // KGE_OPTIM_CONSTRAINTS_H_
