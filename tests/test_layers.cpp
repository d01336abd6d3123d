// Unit tests for Conv2d, Linear, pooling and normalization layers:
// known-value forwards plus numerical gradient checks on inputs and params.

#include <gtest/gtest.h>

#include "snn/conv.h"
#include "snn/linear.h"
#include "snn/norm.h"
#include "snn/pool.h"
#include "test_helpers.h"

namespace dtsnn::snn {
namespace {

using test::grad_check_input;
using test::grad_check_params;

// ------------------------------------------------------------------ Conv2d

TEST(Conv2d, KnownValueForward) {
  util::Rng rng(1);
  Conv2d conv(1, 1, 3, 1, 1, /*bias=*/false, rng);
  conv.weight().value.fill(1.0f);  // 3x3 box filter
  Tensor x = Tensor::ones({1, 1, 3, 3});
  conv.set_time(1, 1);
  Tensor y = conv.forward(x, false);
  ASSERT_EQ(y.shape(), (Shape{1, 1, 3, 3}));
  EXPECT_FLOAT_EQ(y.at(0, 0, 1, 1), 9.0f);  // center sees all 9 ones
  EXPECT_FLOAT_EQ(y.at(0, 0, 0, 0), 4.0f);  // corner sees 4
  EXPECT_FLOAT_EQ(y.at(0, 0, 0, 1), 6.0f);  // edge sees 6
}

TEST(Conv2d, BiasAddsPerChannel) {
  util::Rng rng(2);
  Conv2d conv(1, 2, 1, 1, 0, /*bias=*/true, rng);
  conv.weight().value.fill(0.0f);
  conv.bias().value[0] = 1.5f;
  conv.bias().value[1] = -2.0f;
  Tensor x = Tensor::ones({1, 1, 2, 2});
  Tensor y = conv.forward(x, false);
  EXPECT_FLOAT_EQ(y.at(0, 0, 0, 0), 1.5f);
  EXPECT_FLOAT_EQ(y.at(0, 1, 1, 1), -2.0f);
}

TEST(Conv2d, StrideReducesOutput) {
  util::Rng rng(3);
  Conv2d conv(2, 4, 3, 2, 1, false, rng);
  Tensor x = Tensor::randn({3, 2, 8, 8}, rng);
  Tensor y = conv.forward(x, false);
  EXPECT_EQ(y.shape(), (Shape{3, 4, 4, 4}));
  EXPECT_EQ(conv.infer_shape({2, 8, 8}), (Shape{4, 4, 4}));
}

TEST(Conv2d, RejectsBadInput) {
  util::Rng rng(4);
  Conv2d conv(3, 4, 3, 1, 1, false, rng);
  EXPECT_THROW(conv.forward(Tensor({1, 2, 8, 8}), false), std::invalid_argument);
  EXPECT_THROW(conv.infer_shape({2, 8, 8}), std::invalid_argument);
}

TEST(Conv2d, RejectsKernelLargerThanPaddedInput) {
  // A 3x3 kernel does not fit an unpadded 2x2 input: the output extent would
  // underflow, so every entry point must refuse it before computing it.
  util::Rng rng(4);
  Conv2d conv(1, 4, 3, /*stride=*/2, /*pad=*/0, false, rng);
  EXPECT_THROW(conv.infer_shape({1, 2, 2}), std::invalid_argument);
  for (const bool train : {false, true}) {
    conv.set_time(1, 1);
    EXPECT_THROW(conv.forward(Tensor({1, 1, 2, 2}), train), std::invalid_argument)
        << "train " << train;
  }
  // Padding that makes the kernel fit is accepted.
  Conv2d padded(1, 4, 3, /*stride=*/2, /*pad=*/1, false, rng);
  EXPECT_EQ(padded.infer_shape({1, 2, 2}), (Shape{4, 1, 1}));
}

TEST(Conv2d, InputGradientMatchesNumeric) {
  util::Rng rng(5);
  Conv2d conv(2, 3, 3, 1, 1, true, rng);
  Tensor x = Tensor::randn({2, 2, 5, 5}, rng);
  const auto r = grad_check_input(conv, x, 1);
  EXPECT_LT(r.max_rel_err, 5e-3) << "abs " << r.max_abs_err;
}

TEST(Conv2d, ParamGradientMatchesNumeric) {
  util::Rng rng(6);
  Conv2d conv(2, 3, 3, 2, 1, true, rng);
  Tensor x = Tensor::randn({2, 2, 6, 6}, rng);
  const auto r = grad_check_params(conv, x, 1);
  EXPECT_LT(r.max_rel_err, 5e-3) << "abs " << r.max_abs_err;
}

TEST(Conv2d, BackwardRequiresTrainingForward) {
  util::Rng rng(7);
  Conv2d conv(1, 1, 3, 1, 1, false, rng);
  Tensor x = Tensor::ones({1, 1, 4, 4});
  conv.forward(x, /*train=*/false);
#ifndef NDEBUG
  EXPECT_DEATH((void)conv.backward(Tensor({1, 1, 4, 4})), "");
#endif
}

// ------------------------------------------------------------------ Linear

TEST(Linear, KnownValueForward) {
  util::Rng rng(8);
  Linear lin(2, 2, true, rng);
  lin.weight().value = Tensor({2, 2}, std::vector<float>{1, 2, 3, 4});
  lin.bias().value = Tensor({2}, std::vector<float>{0.5f, -0.5f});
  Tensor x({1, 2}, std::vector<float>{1, 1});
  Tensor y = lin.forward(x, false);
  EXPECT_FLOAT_EQ(y.at(0, 0), 3.5f);   // 1+2+0.5
  EXPECT_FLOAT_EQ(y.at(0, 1), 6.5f);   // 3+4-0.5
}

TEST(Linear, InputGradientMatchesNumeric) {
  util::Rng rng(9);
  Linear lin(6, 4, true, rng);
  Tensor x = Tensor::randn({3, 6}, rng);
  const auto r = grad_check_input(lin, x, 1);
  EXPECT_LT(r.max_rel_err, 5e-3);
}

TEST(Linear, ParamGradientMatchesNumeric) {
  util::Rng rng(10);
  Linear lin(5, 3, true, rng);
  Tensor x = Tensor::randn({4, 5}, rng);
  const auto r = grad_check_params(lin, x, 1);
  EXPECT_LT(r.max_rel_err, 5e-3);
}

TEST(Linear, RejectsBadShapes) {
  util::Rng rng(11);
  Linear lin(4, 2, false, rng);
  EXPECT_THROW(lin.forward(Tensor({2, 3}), false), std::invalid_argument);
  EXPECT_THROW(lin.infer_shape({3}), std::invalid_argument);
  EXPECT_EQ(lin.infer_shape({4}), (Shape{2}));
  EXPECT_EQ(lin.infer_shape({2, 2}), (Shape{2}));  // flattened features
}

TEST(Flatten, RoundTrip) {
  Flatten flat;
  Tensor x = Tensor::ones({2, 3, 4, 4});
  Tensor y = flat.forward(x, true);
  EXPECT_EQ(y.shape(), (Shape{2, 48}));
  Tensor g = flat.backward(Tensor::ones({2, 48}));
  EXPECT_EQ(g.shape(), x.shape());
  EXPECT_EQ(flat.infer_shape({3, 4, 4}), (Shape{48}));
}

// ---------------------------------------------------------------- Pooling

TEST(AvgPool2d, Averages) {
  AvgPool2d pool(2);
  Tensor x({1, 1, 2, 2}, std::vector<float>{1, 2, 3, 4});
  Tensor y = pool.forward(x, false);
  ASSERT_EQ(y.shape(), (Shape{1, 1, 1, 1}));
  EXPECT_FLOAT_EQ(y[0], 2.5f);
}

TEST(AvgPool2d, BackwardSpreadsEvenly) {
  AvgPool2d pool(2);
  Tensor x = Tensor::ones({1, 1, 4, 4});
  pool.forward(x, true);
  Tensor g({1, 1, 2, 2}, std::vector<float>{4, 8, 12, 16});
  Tensor dx = pool.backward(g);
  EXPECT_FLOAT_EQ(dx.at(0, 0, 0, 0), 1.0f);
  EXPECT_FLOAT_EQ(dx.at(0, 0, 0, 2), 2.0f);
  EXPECT_FLOAT_EQ(dx.at(0, 0, 3, 3), 4.0f);
}

TEST(AvgPool2d, GradCheck) {
  util::Rng rng(12);
  AvgPool2d pool(2);
  Tensor x = Tensor::randn({2, 3, 4, 4}, rng);
  const auto r = grad_check_input(pool, x, 1);
  EXPECT_LT(r.max_rel_err, 1e-3);
}

TEST(AvgPool2d, RejectsIndivisible) {
  AvgPool2d pool(3);
  EXPECT_THROW(pool.forward(Tensor({1, 1, 4, 4}), false), std::invalid_argument);
  EXPECT_THROW(pool.infer_shape({1, 4, 4}), std::invalid_argument);
}

TEST(MaxPool2d, PicksMaximum) {
  MaxPool2d pool(2);
  Tensor x({1, 1, 2, 2}, std::vector<float>{1, 5, 3, 2});
  Tensor y = pool.forward(x, false);
  EXPECT_FLOAT_EQ(y[0], 5.0f);
}

TEST(MaxPool2d, BackwardRoutesToArgmax) {
  MaxPool2d pool(2);
  Tensor x({1, 1, 2, 2}, std::vector<float>{1, 5, 3, 2});
  pool.forward(x, true);
  Tensor dx = pool.backward(Tensor::ones({1, 1, 1, 1}));
  EXPECT_FLOAT_EQ(dx[0], 0.0f);
  EXPECT_FLOAT_EQ(dx[1], 1.0f);
}

// ------------------------------------------------------------ BatchNorm2d

TEST(BatchNorm2d, NormalizesTrainingBatch) {
  BatchNorm2d bn(2);
  util::Rng rng(13);
  Tensor x = Tensor::randn({8, 2, 4, 4}, rng, 3.0f, 2.0f);
  bn.set_time(1, 8);
  Tensor y = bn.forward(x, true);
  // Per-channel output should be ~N(0,1).
  for (std::size_t c = 0; c < 2; ++c) {
    double sum = 0.0, sq = 0.0;
    std::size_t n = 0;
    for (std::size_t img = 0; img < 8; ++img) {
      for (std::size_t p = 0; p < 16; ++p) {
        const float v = y.at(img, c, p / 4, p % 4);
        sum += v;
        sq += static_cast<double>(v) * v;
        ++n;
      }
    }
    const double mean = sum / n;
    EXPECT_NEAR(mean, 0.0, 1e-4);
    EXPECT_NEAR(sq / n - mean * mean, 1.0, 1e-3);
  }
}

TEST(BatchNorm2d, VthScaleInitializesGamma) {
  BatchNorm2d bn(3, /*vth_scale=*/2.0f);
  for (std::size_t c = 0; c < 3; ++c) EXPECT_FLOAT_EQ(bn.gamma().value[c], 2.0f);
}

TEST(BatchNorm2d, EvalUsesRunningStats) {
  BatchNorm2d bn(1, 1.0f, /*momentum=*/1.0f);  // running stats = last batch
  util::Rng rng(14);
  Tensor x = Tensor::randn({16, 1, 2, 2}, rng, 5.0f, 3.0f);
  bn.forward(x, true);
  // Eval on a constant input equal to the running mean -> output ~beta = 0.
  Tensor probe({1, 1, 2, 2}, bn.running_mean()[0]);
  Tensor y = bn.forward(probe, false);
  EXPECT_NEAR(y[0], 0.0f, 1e-4);
}

TEST(BatchNorm2d, InputGradientMatchesNumeric) {
  util::Rng rng(15);
  BatchNorm2d bn(2);
  Tensor x = Tensor::randn({4, 2, 3, 3}, rng);
  const auto r = grad_check_input(bn, x, 1, 5e-3);
  EXPECT_LT(r.max_rel_err, 2e-2) << "abs " << r.max_abs_err;
}

TEST(BatchNorm2d, ParamGradientMatchesNumeric) {
  util::Rng rng(16);
  BatchNorm2d bn(3);
  Tensor x = Tensor::randn({4, 3, 2, 2}, rng);
  const auto r = grad_check_params(bn, x, 1, 5e-3);
  EXPECT_LT(r.max_rel_err, 1e-2) << "abs " << r.max_abs_err;
}

TEST(BatchNorm2d, TdbnStatsSpanTimesteps) {
  // With time-major layout the normalization must mix timesteps: feeding a
  // batch where t=0 rows and t=1 rows have different means should produce a
  // pooled mean, not per-timestep ones.
  BatchNorm2d bn(1, 1.0f, 1.0f);
  Tensor x({4, 1, 1, 1});
  x[0] = x[1] = 0.0f;  // t=0, two samples
  x[2] = x[3] = 2.0f;  // t=1, two samples
  bn.set_time(2, 2);
  bn.forward(x, true);
  EXPECT_NEAR(bn.running_mean()[0], 1.0f, 1e-6);  // pooled over T*B
}

TEST(BatchNorm2d, RejectsWrongChannels) {
  BatchNorm2d bn(4);
  EXPECT_THROW(bn.forward(Tensor({1, 3, 2, 2}), true), std::invalid_argument);
}

}  // namespace
}  // namespace dtsnn::snn
