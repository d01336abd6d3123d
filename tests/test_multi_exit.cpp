// Tests for the multi-exit (spatio-temporal early exit) extension: builder
// structure, forward/backward plumbing, loss weighting, the joint exit
// policy semantics, and end-to-end composition with DT-SNN.

#include <gtest/gtest.h>

#include "core/evaluator.h"
#include "core/spatiotemporal.h"
#include "snn/multi_exit.h"

namespace dtsnn {
namespace {

snn::ModelConfig tiny_config() {
  snn::ModelConfig mc;
  mc.num_classes = 4;
  mc.input_shape = {3, 8, 8};
  mc.seed = 9;
  return mc;
}

snn::MultiExitNetwork tiny_net() {
  // Two segments: conv16 + pool | conv32 + pool -> 2 exits.
  return snn::make_multi_exit_vgg({16, -1, 32, -1}, tiny_config());
}

TEST(MultiExit, BuilderCreatesOneHeadPerPoolStage) {
  auto net = tiny_net();
  EXPECT_EQ(net.num_exits(), 2u);
  EXPECT_EQ(net.num_classes(), 4u);
}

TEST(MultiExit, TrailingConvsFormFinalSegment) {
  auto net = snn::make_multi_exit_vgg({16, -1, 32}, tiny_config());
  EXPECT_EQ(net.num_exits(), 2u);  // pool stage + trailing conv stage
}

TEST(MultiExit, CostFractionsAscendToOne) {
  auto net = tiny_net();
  const auto& fracs = net.cost_fractions();
  ASSERT_EQ(fracs.size(), 2u);
  EXPECT_GT(fracs[0], 0.0);
  EXPECT_LT(fracs[0], fracs[1]);
  EXPECT_NEAR(fracs[1], 1.0, 1e-9);
}

TEST(MultiExit, ForwardShapes) {
  auto net = tiny_net();
  snn::Tensor x = snn::Tensor::ones({2 * 3, 3, 8, 8});  // T=2, B=3
  auto logits = net.forward(x, 2, false);
  ASSERT_EQ(logits.size(), 2u);
  for (const auto& l : logits) EXPECT_EQ(l.shape(), (snn::Shape{6, 4}));
}

TEST(MultiExit, BackwardRunsAndAccumulatesGrads) {
  auto net = tiny_net();
  util::Rng rng(10);
  snn::Tensor x = snn::Tensor::randn({2, 3, 8, 8}, rng);
  auto logits = net.forward(x, 1, true);
  std::vector<snn::Tensor> grads;
  for (auto& l : logits) grads.push_back(snn::Tensor::ones(l.shape()));
  net.backward(grads);
  double grad_norm = 0.0;
  for (snn::Param* p : net.params()) grad_norm += std::abs(p->grad.sum());
  EXPECT_GT(grad_norm, 0.0);
}

TEST(MultiExit, BackwardValidatesGradCount) {
  auto net = tiny_net();
  snn::Tensor x = snn::Tensor::ones({1, 3, 8, 8});
  net.forward(x, 1, true);
  EXPECT_THROW(net.backward({}), std::invalid_argument);
}

TEST(MultiExitLoss, WeightsDeeperExitsMore) {
  util::Rng rng(11);
  // Same logits at both exits; gradient on the deep exit must be larger.
  snn::Tensor logits = snn::Tensor::randn({2, 4}, rng);  // T=1, B=2
  const std::vector<int> labels{0, 1};
  auto r = snn::multi_exit_loss({logits, logits}, labels, 1);
  ASSERT_EQ(r.grads.size(), 2u);
  double g0 = 0.0, g1 = 0.0;
  for (std::size_t i = 0; i < logits.numel(); ++i) {
    g0 += std::abs(r.grads[0][i]);
    g1 += std::abs(r.grads[1][i]);
  }
  EXPECT_GT(g1, g0);
  EXPECT_NEAR(g1 / g0, 2.0, 1e-4);  // weights 1/3 vs 2/3
}

TEST(MultiExitLoss, RejectsEmpty) {
  const std::vector<int> labels{0};
  EXPECT_THROW(snn::multi_exit_loss({}, labels, 1), std::invalid_argument);
}

// ----------------------------------------------------- spatio-temporal eval

/// Two exits, two timesteps, two samples.
/// s0: shallow head confident-correct already at t=1.
/// s1: only the deep head at t=2 is confident (and correct).
core::MultiExitOutputs fake_outputs() {
  core::MultiExitOutputs out;
  out.exits = 2;
  out.timesteps = 2;
  out.samples = 2;
  out.classes = 2;
  out.labels = {0, 1};
  out.cost_fractions = {0.4, 1.0};
  out.cum_logits = {snn::Tensor({4, 2}), snn::Tensor({4, 2})};
  auto set = [&](std::size_t e, std::size_t t, std::size_t i, float a, float b) {
    out.cum_logits[e].at(t * 2 + i, 0) = a;
    out.cum_logits[e].at(t * 2 + i, 1) = b;
  };
  // exit 0 (shallow):
  set(0, 0, 0, 9, 0);   set(0, 1, 0, 9, 0);    // s0 confident class 0
  set(0, 0, 1, 0.1f, 0); set(0, 1, 1, 0.1f, 0); // s1 never confident here
  // exit 1 (deep):
  set(1, 0, 0, 9, 0);   set(1, 1, 0, 9, 0);
  set(1, 0, 1, 0, 0.2f); set(1, 1, 1, 0, 9);    // s1 confident at t=2
  return out;
}

TEST(SpatioTemporal, JointPolicyUsesBothDimensions) {
  const auto out = fake_outputs();
  const auto r = core::evaluate_spatiotemporal(out, {.theta = 0.2});
  EXPECT_NEAR(r.accuracy, 1.0, 1e-12);
  // s0 exits at (t=1, exit 0): cost 0.4; s1 at (t=2, deep): cost 1 + 1 = 2.
  EXPECT_NEAR(r.avg_cost, (0.4 + 2.0) / 2.0, 1e-9);
  EXPECT_EQ(r.depth_histogram.count(0), 1u);
  EXPECT_EQ(r.depth_histogram.count(1), 1u);
}

TEST(SpatioTemporal, TimeOnlyReducesToDtsnn) {
  const auto out = fake_outputs();
  const auto r =
      core::evaluate_spatiotemporal(out, {.theta = 0.2, .use_depth = false});
  // Deep head only: s0 exits at t=1 (cost 1), s1 at t=2 (cost 2).
  EXPECT_NEAR(r.avg_cost, 1.5, 1e-9);
  EXPECT_EQ(r.depth_histogram.count(1), 2u);
  EXPECT_NEAR(r.accuracy, 1.0, 1e-12);
}

TEST(SpatioTemporal, DepthOnlyKeepsFullTime) {
  const auto out = fake_outputs();
  const auto r =
      core::evaluate_spatiotemporal(out, {.theta = 0.2, .use_time = false});
  // Exits only evaluated at t = T: s0 can still stop at the shallow head
  // (cost 1 + 0.4), s1 falls through to the deep head (cost 2).
  EXPECT_NEAR(r.avg_cost, (1.4 + 2.0) / 2.0, 1e-9);
  EXPECT_NEAR(r.avg_exit_time, 2.0, 1e-12);
}

TEST(SpatioTemporal, StaticPolicyCostsFullBudget) {
  const auto out = fake_outputs();
  const auto r = core::evaluate_spatiotemporal(
      out, {.theta = 0.2, .use_time = false, .use_depth = false});
  EXPECT_NEAR(r.avg_cost, 2.0, 1e-9);  // (T-1) + 1.0
}

TEST(SpatioTemporal, JointNeverCostsMoreThanEitherAlone) {
  const auto out = fake_outputs();
  for (const double theta : {0.05, 0.2, 0.5}) {
    const auto joint = core::evaluate_spatiotemporal(out, {.theta = theta});
    const auto time_only =
        core::evaluate_spatiotemporal(out, {.theta = theta, .use_depth = false});
    const auto depth_only =
        core::evaluate_spatiotemporal(out, {.theta = theta, .use_time = false});
    EXPECT_LE(joint.avg_cost, time_only.avg_cost + 1e-9);
    EXPECT_LE(joint.avg_cost, depth_only.avg_cost + 1e-9);
  }
}

TEST(SpatioTemporal, CollectRejectsDegenerateChunkingAndStreamsRaggedChunks) {
  auto net = tiny_net();
  data::ArrayDataset ds({3, 8, 8}, 1, 4);
  for (int i = 0; i < 5; ++i) {
    ds.add_sample(std::vector<float>(3 * 8 * 8, 0.2f * static_cast<float>(i)), i % 4,
                  0.0);
  }
  EXPECT_THROW(core::collect_multi_exit_outputs(net, ds, 2, /*batch_size=*/0),
               std::invalid_argument);
  EXPECT_THROW(core::collect_multi_exit_outputs(net, ds, /*timesteps=*/0),
               std::invalid_argument);

  // Chunks of 2 (2 + 2 + ragged 1) record the same rows as one chunk of 5.
  const auto whole = core::collect_multi_exit_outputs(net, ds, 2, /*batch_size=*/5);
  const auto chunked = core::collect_multi_exit_outputs(net, ds, 2, /*batch_size=*/2);
  EXPECT_EQ(chunked.labels, (std::vector<int>{0, 1, 2, 3, 0}));
  EXPECT_EQ(chunked.labels, whole.labels);
  for (std::size_t e = 0; e < whole.exits; ++e) {
    ASSERT_EQ(chunked.cum_logits[e].numel(), whole.cum_logits[e].numel());
    for (std::size_t j = 0; j < whole.cum_logits[e].numel(); ++j) {
      EXPECT_NEAR(chunked.cum_logits[e][j], whole.cum_logits[e][j], 1e-5)
          << "exit " << e << " value " << j;
    }
  }
}

TEST(SpatioTemporal, EndToEndTrainsAndComposes) {
  // Train a tiny multi-exit net and verify the joint policy reaches the
  // static deep-head accuracy at lower cost (the paper's complementarity
  // claim, Section III-A(c)).
  auto bundle = core::make_bundle("sync10", 0.12);
  snn::ModelConfig mc;
  mc.num_classes = bundle.train->num_classes();
  mc.input_shape = bundle.train->frame_shape();
  mc.seed = 21;
  auto net = snn::make_multi_exit_vgg({16, -1, 32, -1}, mc);

  data::ShuffledBatchSource source(*bundle.train, 32, 99);
  snn::TrainOptions options;
  options.epochs = 8;
  options.timesteps = 4;
  auto stats = snn::train_multi_exit(net, source, options);
  EXPECT_GT(stats.final_accuracy(), 0.4);

  auto outputs = core::collect_multi_exit_outputs(net, *bundle.test, 4);
  const auto static_r = core::evaluate_spatiotemporal(
      outputs, {.theta = 0.0, .use_time = false, .use_depth = false});
  // A mid-range threshold must buy back cost without giving up much
  // accuracy (exact numbers vary with the micro model's calibration).
  const auto joint = core::evaluate_spatiotemporal(outputs, {.theta = 0.45});
  EXPECT_LT(joint.avg_cost, static_r.avg_cost);
  EXPECT_GT(joint.accuracy, static_r.accuracy - 0.08);
}

}  // namespace
}  // namespace dtsnn
