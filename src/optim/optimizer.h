// Sparse first-order optimizers over ParameterBlocks. One descent step
// updates exactly the rows a mini-batch touched ("lazy" updates — the
// standard approach for embedding models, where a batch touches a tiny
// fraction of rows). A step is BeginStep() followed by one UpdateRow()
// per touched row: each optimizer's row update is a single math/simd
// kernel (simd::SgdRow / AdagradRow / AdamRow). Both trainers' step
// passes sum a row's batch gradient and update it in the same visit.
//
// The paper trains with "SGD with learning rates auto-tuned by Adam"
// (§5.3); Adam is the default in all benches. SGD and Adagrad are
// provided for ablations.
#ifndef KGE_OPTIM_OPTIMIZER_H_
#define KGE_OPTIM_OPTIMIZER_H_

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/parameter_block.h"
#include "util/check.h"
#include "util/hotpath.h"
#include "util/io.h"
#include "util/status.h"

namespace kge {

class Optimizer {
 public:
  virtual ~Optimizer() = default;
  Optimizer(const Optimizer&) = delete;
  Optimizer& operator=(const Optimizer&) = delete;

  virtual const std::string& name() const = 0;

  // Starts one descent step: advances the step-dependent constants
  // (Adam's bias correction) and takes every block's storage for
  // writing, which bumps each block's mutation stamp once for the whole
  // step (ParameterBlock::generation). Call from one thread, before the
  // step's UpdateRow calls.
  KGE_HOT_NOALLOC
  void BeginStep();

  // The current step's update of row `row` of block `block_index`, whose
  // summed batch gradient is `grad` (row_dim floats): writes the row's
  // parameters and optimizer state and returns the parameter row. A row
  // reads and writes only its own state, so concurrent calls for
  // distinct rows are safe and the call order never changes a bit.
  KGE_HOT_NOALLOC
  virtual std::span<float> UpdateRow(size_t block_index, int64_t row,
                                     std::span<const float> grad) = 0;

  // Resets all optimizer state (moments, step counters).
  virtual void Reset() = 0;

  // Current base learning rate. Mutable at runtime so the divergence
  // guard can back off after a rollback.
  virtual double learning_rate() const = 0;
  virtual void set_learning_rate(double learning_rate) = 0;

  // Serializes / restores all state that affects future updates (name,
  // learning rate, moments, step counters) for exact training resume.
  // LoadState verifies the stored optimizer name and state shapes; the
  // optimizer must have been constructed over the same blocks.
  virtual Status SaveState(BinaryWriter* writer) const = 0;
  virtual Status LoadState(BinaryReader* reader) = 0;

 protected:
  explicit Optimizer(std::vector<ParameterBlock*> blocks);

  // BeginStep's hook for step-dependent constants.
  virtual void AdvanceStep() {}

  const std::vector<ParameterBlock*>& blocks() const { return blocks_; }
  // Offset of `row` in its block's flat storage (and in any per-element
  // state laid out like it).
  size_t RowOffset(size_t block_index, int64_t row) const {
    KGE_DCHECK(row >= 0 && row < blocks_[block_index]->num_rows());
    return size_t(row) * size_t(blocks_[block_index]->row_dim());
  }
  // The block's storage as taken by the current step.
  float* StepStorage(size_t block_index) const {
    return step_storage_[block_index];
  }

 private:
  std::vector<ParameterBlock*> blocks_;
  std::vector<float*> step_storage_;
};

struct SgdOptions {
  double learning_rate = 0.1;
};

struct AdagradOptions {
  double learning_rate = 0.1;
  double epsilon = 1e-8;
};

struct AdamOptions {
  double learning_rate = 1e-3;
  double beta1 = 0.9;
  double beta2 = 0.999;
  double epsilon = 1e-8;
};

std::unique_ptr<Optimizer> MakeSgd(std::vector<ParameterBlock*> blocks,
                                   const SgdOptions& options);
std::unique_ptr<Optimizer> MakeAdagrad(std::vector<ParameterBlock*> blocks,
                                       const AdagradOptions& options);
std::unique_ptr<Optimizer> MakeAdam(std::vector<ParameterBlock*> blocks,
                                    const AdamOptions& options);

// Factory by name ("sgd" | "adagrad" | "adam") with the given learning
// rate and otherwise default options.
Result<std::unique_ptr<Optimizer>> MakeOptimizer(
    const std::string& name, std::vector<ParameterBlock*> blocks,
    double learning_rate);

}  // namespace kge

#endif  // KGE_OPTIM_OPTIMIZER_H_
