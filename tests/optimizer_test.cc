#include "optim/optimizer.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <functional>
#include <string>

#include "optim/constraints.h"
#include "util/io.h"
#include "util/random.h"

namespace kge {
namespace {

// One optimizer step over the rows of `grads`: the BeginStep + UpdateRow
// sequence the trainers' step passes run.
void Step(Optimizer* optimizer, const GradientBuffer& grads) {
  optimizer->BeginStep();
  grads.ForEach([optimizer](size_t block, int64_t row,
                            std::span<const float> grad) {
    optimizer->UpdateRow(block, row, grad);
  });
}

// Minimizes f(x) = Σ (x_d - target_d)² with the given optimizer by feeding
// exact gradients; returns the final squared error.
double MinimizeQuadratic(Optimizer* optimizer, ParameterBlock* block,
                         const std::vector<float>& target, int steps) {
  GradientBuffer grads({block});
  for (int s = 0; s < steps; ++s) {
    grads.Clear();
    auto g = grads.GradFor(0, 0);
    auto x = block->Row(0);
    for (size_t d = 0; d < target.size(); ++d) {
      g[d] = 2.0f * (x[d] - target[d]);
    }
    Step(optimizer, grads);
  }
  double err = 0.0;
  auto x = block->Row(0);
  for (size_t d = 0; d < target.size(); ++d) {
    err += (x[d] - target[d]) * (x[d] - target[d]);
  }
  return err;
}

TEST(OptimizerTest, SgdConvergesOnQuadratic) {
  ParameterBlock block("x", 1, 4);
  const std::vector<float> target = {1.0f, -2.0f, 0.5f, 3.0f};
  SgdOptions options;
  options.learning_rate = 0.1;
  auto optimizer = MakeSgd({&block}, options);
  EXPECT_LT(MinimizeQuadratic(optimizer.get(), &block, target, 200), 1e-6);
}

TEST(OptimizerTest, AdagradConvergesOnQuadratic) {
  ParameterBlock block("x", 1, 4);
  const std::vector<float> target = {1.0f, -2.0f, 0.5f, 3.0f};
  AdagradOptions options;
  options.learning_rate = 0.5;
  auto optimizer = MakeAdagrad({&block}, options);
  EXPECT_LT(MinimizeQuadratic(optimizer.get(), &block, target, 2000), 1e-3);
}

TEST(OptimizerTest, AdamConvergesOnQuadratic) {
  ParameterBlock block("x", 1, 4);
  const std::vector<float> target = {1.0f, -2.0f, 0.5f, 3.0f};
  AdamOptions options;
  options.learning_rate = 0.05;
  auto optimizer = MakeAdam({&block}, options);
  EXPECT_LT(MinimizeQuadratic(optimizer.get(), &block, target, 2000), 1e-4);
}

TEST(OptimizerTest, SgdStepIsExactlyLrTimesGradient) {
  ParameterBlock block("x", 2, 2);
  block.Row(1)[0] = 1.0f;
  SgdOptions options;
  options.learning_rate = 0.5;
  auto optimizer = MakeSgd({&block}, options);
  GradientBuffer grads({&block});
  grads.GradFor(0, 1)[0] = 2.0f;
  Step(optimizer.get(), grads);
  EXPECT_FLOAT_EQ(block.Row(1)[0], 0.0f);
  EXPECT_FLOAT_EQ(block.Row(0)[0], 0.0f);  // untouched rows unchanged
}

TEST(OptimizerTest, UntouchedRowsNeverMove) {
  ParameterBlock block("x", 10, 3);
  Rng rng(1);
  block.InitUniform(&rng, -1, 1);
  std::vector<float> before(block.Flat().begin(), block.Flat().end());

  AdamOptions options;
  auto optimizer = MakeAdam({&block}, options);
  GradientBuffer grads({&block});
  grads.GradFor(0, 4)[0] = 1.0f;
  Step(optimizer.get(), grads);

  for (int64_t row = 0; row < 10; ++row) {
    if (row == 4) continue;
    for (int64_t d = 0; d < 3; ++d) {
      EXPECT_EQ(block.Row(row)[size_t(d)], before[size_t(row * 3 + d)]);
    }
  }
  EXPECT_NE(block.Row(4)[0], before[12]);
}

TEST(OptimizerTest, AdamFirstStepSizeIsLearningRate) {
  // With bias correction, Adam's first update is ±lr regardless of
  // gradient magnitude (up to epsilon).
  ParameterBlock block("x", 1, 2);
  AdamOptions options;
  options.learning_rate = 0.1;
  auto optimizer = MakeAdam({&block}, options);
  GradientBuffer grads({&block});
  grads.GradFor(0, 0)[0] = 100.0f;
  grads.GradFor(0, 0)[1] = 0.001f;
  Step(optimizer.get(), grads);
  EXPECT_NEAR(block.Row(0)[0], -0.1f, 1e-4);
  EXPECT_NEAR(block.Row(0)[1], -0.1f, 1e-3);
}

TEST(OptimizerTest, AdagradShrinksEffectiveStep) {
  ParameterBlock block("x", 1, 1);
  AdagradOptions options;
  options.learning_rate = 1.0;
  auto optimizer = MakeAdagrad({&block}, options);
  GradientBuffer grads({&block});

  grads.GradFor(0, 0)[0] = 1.0f;
  Step(optimizer.get(), grads);
  const float first_step = -block.Row(0)[0];

  const float before = block.Row(0)[0];
  grads.Clear();
  grads.GradFor(0, 0)[0] = 1.0f;
  Step(optimizer.get(), grads);
  const float second_step = before - block.Row(0)[0];
  EXPECT_LT(second_step, first_step);
}

TEST(OptimizerTest, ResetClearsState) {
  ParameterBlock block("x", 1, 1);
  AdamOptions options;
  options.learning_rate = 0.1;
  auto optimizer = MakeAdam({&block}, options);
  GradientBuffer grads({&block});
  grads.GradFor(0, 0)[0] = 1.0f;
  Step(optimizer.get(), grads);
  const float after_first = block.Row(0)[0];

  optimizer->Reset();
  block.Zero();
  grads.Clear();
  grads.GradFor(0, 0)[0] = 1.0f;
  Step(optimizer.get(), grads);
  EXPECT_FLOAT_EQ(block.Row(0)[0], after_first);
}

TEST(OptimizerTest, FactoryByName) {
  ParameterBlock block("x", 1, 1);
  for (const char* name : {"sgd", "adagrad", "adam"}) {
    auto optimizer = MakeOptimizer(name, {&block}, 0.1);
    ASSERT_TRUE(optimizer.ok()) << name;
    EXPECT_EQ((*optimizer)->name(), name);
  }
  EXPECT_FALSE(MakeOptimizer("rmsprop", {&block}, 0.1).ok());
}

TEST(OptimizerTest, LearningRateAccessors) {
  ParameterBlock block("x", 1, 1);
  for (const char* name : {"sgd", "adagrad", "adam"}) {
    auto optimizer = MakeOptimizer(name, {&block}, 0.25);
    ASSERT_TRUE(optimizer.ok()) << name;
    EXPECT_EQ((*optimizer)->learning_rate(), 0.25) << name;
    (*optimizer)->set_learning_rate(0.125);
    EXPECT_EQ((*optimizer)->learning_rate(), 0.125) << name;
  }
}

// Save the optimizer state mid-run, reload it into a fresh optimizer,
// and finish the run: the parameters must be bit-identical to an
// uninterrupted run. This is the optimizer half of the exact-resume
// contract.
TEST(OptimizerTest, StateRoundTripContinuesBitIdentically) {
  constexpr int64_t kRows = 16;
  constexpr int32_t kDim = 4;
  constexpr int kTotalSteps = 12;
  constexpr int kSplitStep = 5;
  const std::string path = testing::TempDir() + "/opt_state.bin";

  auto run_steps = [&](Optimizer* optimizer, GradientBuffer* grads,
                       Rng* rng, int steps) {
    for (int s = 0; s < steps; ++s) {
      grads->Clear();
      for (int64_t row = 0; row < kRows; ++row) {
        if (rng->NextBool(0.25)) continue;
        auto g = grads->GradFor(0, row);
        for (size_t d = 0; d < size_t(kDim); ++d) {
          g[d] = rng->NextUniform(-1.0f, 1.0f);
        }
      }
      Step(optimizer, *grads);
    }
  };

  for (const char* name : {"sgd", "adagrad", "adam"}) {
    ParameterBlock ref_block("x", kRows, kDim);
    ParameterBlock resumed_block("x", kRows, kDim);
    Rng init(5);
    ref_block.InitUniform(&init, -0.5f, 0.5f);
    std::copy(ref_block.Flat().begin(), ref_block.Flat().end(),
              resumed_block.Flat().begin());
    GradientBuffer ref_grads({&ref_block});
    GradientBuffer resumed_grads({&resumed_block});

    // Reference: uninterrupted run.
    auto ref_opt = MakeOptimizer(name, {&ref_block}, 0.05).value();
    Rng ref_rng(77);
    run_steps(ref_opt.get(), &ref_grads, &ref_rng, kTotalSteps);

    // Interrupted: run to the split, persist, reload into a FRESH
    // optimizer, finish with the identical gradient stream.
    auto first_opt = MakeOptimizer(name, {&resumed_block}, 0.05).value();
    Rng resumed_rng(77);
    run_steps(first_opt.get(), &resumed_grads, &resumed_rng, kSplitStep);
    {
      BinaryWriter writer;
      ASSERT_TRUE(writer.Open(path).ok());
      ASSERT_TRUE(first_opt->SaveState(&writer).ok());
      ASSERT_TRUE(writer.Close().ok());
    }
    auto second_opt = MakeOptimizer(name, {&resumed_block}, 0.999).value();
    {
      BinaryReader reader;
      ASSERT_TRUE(reader.Open(path).ok());
      ASSERT_TRUE(second_opt->LoadState(&reader).ok());
    }
    // LoadState restores the saved learning rate too.
    EXPECT_EQ(second_opt->learning_rate(), 0.05) << name;
    run_steps(second_opt.get(), &resumed_grads, &resumed_rng,
              kTotalSteps - kSplitStep);

    const auto ref_flat = ref_block.Flat();
    const auto resumed_flat = resumed_block.Flat();
    ASSERT_EQ(ref_flat.size(), resumed_flat.size());
    for (size_t i = 0; i < ref_flat.size(); ++i) {
      ASSERT_EQ(ref_flat[i], resumed_flat[i]) << name << " element " << i;
    }
  }
  std::remove(path.c_str());
}

TEST(OptimizerTest, LoadStateRejectsWrongOptimizerKind) {
  ParameterBlock block("x", 2, 2);
  const std::string path = testing::TempDir() + "/opt_kind.bin";
  auto adam = MakeOptimizer("adam", {&block}, 0.1).value();
  {
    BinaryWriter writer;
    ASSERT_TRUE(writer.Open(path).ok());
    ASSERT_TRUE(adam->SaveState(&writer).ok());
    ASSERT_TRUE(writer.Close().ok());
  }
  auto sgd = MakeOptimizer("sgd", {&block}, 0.1).value();
  BinaryReader reader;
  ASSERT_TRUE(reader.Open(path).ok());
  const Status status = sgd->LoadState(&reader);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(ConstraintsTest, L2RegularizerLossAndGradient) {
  ParameterBlock block("x", 2, 2);
  block.Row(0)[0] = 3.0f;
  block.Row(0)[1] = 4.0f;
  GradientBuffer grads({&block});
  L2Regularizer reg(0.5);
  const std::vector<std::pair<size_t, int64_t>> rows = {{0, 0}};
  const double loss = reg.Accumulate(&grads, rows);
  // n_D = 2, loss = 0.5/2 * 25 = 6.25; grad = 2*0.5/2 * theta.
  EXPECT_NEAR(loss, 6.25, 1e-6);
  EXPECT_NEAR(grads.GradFor(0, 0)[0], 1.5f, 1e-6);
  EXPECT_NEAR(grads.GradFor(0, 0)[1], 2.0f, 1e-6);
}

TEST(ConstraintsTest, L2RegularizerZeroLambdaIsNoop) {
  ParameterBlock block("x", 1, 2);
  block.Row(0)[0] = 3.0f;
  GradientBuffer grads({&block});
  L2Regularizer reg(0.0);
  const std::vector<std::pair<size_t, int64_t>> rows = {{0, 0}};
  EXPECT_EQ(reg.Accumulate(&grads, rows), 0.0);
  EXPECT_EQ(grads.NumTouchedRows(), 0u);
}

}  // namespace
}  // namespace kge
