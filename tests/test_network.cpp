// Tests for network containers, the model zoo, checkpointing, the
// end-to-end equivalence of multi-step and sequential (stepped) inference,
// and of the fused eval spiking block and leaf-by-leaf stepping.

#include <filesystem>
#include <functional>
#include <span>

#include <gtest/gtest.h>

#include "fused_step_support.h"
#include "snn/conv.h"
#include "snn/linear.h"
#include "snn/models.h"
#include "snn/norm.h"
#include "snn/serialize.h"
#include "util/rng.h"
#include "util/thread.h"

namespace dtsnn::snn {
namespace {

ModelConfig tiny_config() {
  ModelConfig mc;
  mc.num_classes = 4;
  mc.input_shape = {3, 8, 8};
  mc.seed = 5;
  return mc;
}

TEST(Sequential, ChainsShapes) {
  util::Rng rng(51);
  Sequential seq;
  seq.append(std::make_unique<Conv2d>(3, 8, 3, 1, 1, false, rng));
  seq.append(std::make_unique<BatchNorm2d>(8));
  seq.append(std::make_unique<Lif>(LifConfig{}));
  EXPECT_EQ(seq.infer_shape({3, 8, 8}), (Shape{8, 8, 8}));
  EXPECT_EQ(seq.params().size(), 3u);  // conv weight + bn gamma/beta
}

TEST(Sequential, VisitReachesLeaves) {
  util::Rng rng(52);
  Sequential inner;
  inner.append(std::make_unique<Conv2d>(3, 4, 3, 1, 1, false, rng));
  Sequential outer;
  outer.append(std::make_unique<Lif>(LifConfig{}));
  auto inner_ptr = std::make_unique<Sequential>(std::move(inner));
  outer.append(std::move(inner_ptr));
  int count = 0;
  outer.visit([&count](Layer&) { ++count; });
  EXPECT_EQ(count, 2);  // Lif + nested Conv (container itself not visited)
}

TEST(ModelZoo, PresetsBuildAndInfer) {
  for (const auto& preset : model_presets()) {
    ModelConfig mc = tiny_config();
    SpikingNetwork net = make_model(preset, mc);
    EXPECT_GT(net.parameter_count(), 0u) << preset;
    Tensor x = Tensor::ones({2 * 2, 3, 8, 8});  // T=2, B=2
    Tensor logits = net.forward(x, 2, false);
    EXPECT_EQ(logits.shape(), (Shape{4, 4})) << preset;
  }
}

TEST(ModelZoo, UnknownPresetThrows) {
  EXPECT_THROW(make_model("nope", tiny_config()), std::invalid_argument);
}

TEST(ModelZoo, SeedsGiveIdenticalInit) {
  ModelConfig mc = tiny_config();
  SpikingNetwork a = make_model("vgg_micro", mc);
  SpikingNetwork b = make_model("vgg_micro", mc);
  auto pa = a.params(), pb = b.params();
  ASSERT_EQ(pa.size(), pb.size());
  for (std::size_t i = 0; i < pa.size(); ++i) {
    EXPECT_TRUE(pa[i]->value.allclose(pb[i]->value));
  }
}

TEST(ModelZoo, DifferentSeedsDiffer) {
  ModelConfig a = tiny_config(), b = tiny_config();
  b.seed = 99;
  SpikingNetwork na = make_model("vgg_micro", a);
  SpikingNetwork nb = make_model("vgg_micro", b);
  EXPECT_FALSE(na.params()[0]->value.allclose(nb.params()[0]->value));
}

TEST(ModelZoo, ResnetHasResidualBlocks) {
  SpikingNetwork net = make_model("resnet_micro", tiny_config());
  int lif_count = 0;
  net.visit([&lif_count](Layer& l) {
    if (l.name() == "Lif") ++lif_count;
  });
  // stem LIF + per-block (inner LIF + output LIF) * 2 blocks = 5.
  EXPECT_EQ(lif_count, 5);
}

TEST(ResidualBlock, ProjectionWhenShapeChanges) {
  SpikingNetwork net = make_model("resnet_micro", tiny_config());
  int projections = 0;
  // Count 1x1 convs (projections).
  net.visit([&projections](Layer& l) {
    if (auto* conv = dynamic_cast<Conv2d*>(&l)) {
      if (conv->kernel() == 1) ++projections;
    }
  });
  EXPECT_EQ(projections, 1);  // only the 8->16 stride-2 stage needs one
}

/// A hand-built block whose main path changes the channel count but has no
/// projection shortcut: the residual sum must be rejected, stepped or not,
/// before Tensor::add_ (which only asserts) reads out of bounds.
TEST(ResidualBlock, MismatchedBranchShapesThrow) {
  util::Rng rng(60);
  Sequential main_path;
  main_path.append(std::make_unique<Conv2d>(3, 8, 3, 1, 1, false, rng));
  main_path.append(std::make_unique<BatchNorm2d>(8));
  ResidualBlock block(std::move(main_path), Sequential(), LifConfig{});
  const Tensor x = Tensor::randn({2, 3, 8, 8}, rng);
  block.set_time(1, 2);
  EXPECT_THROW(block.forward(x, false), std::invalid_argument);
  block.begin_steps(2);
  EXPECT_THROW(block.step(x), std::invalid_argument);
}

TEST(SpikingNetwork, SpikeRatesReported) {
  SpikingNetwork net = make_model("vgg_micro", tiny_config());
  util::Rng rng(53);
  Tensor x = Tensor::randn({2, 3, 8, 8}, rng);
  net.forward(x, 1, false);
  const auto rates = net.lif_spike_rates();
  EXPECT_EQ(rates.size(), 2u);  // two conv blocks
  for (const double r : rates) {
    EXPECT_GE(r, 0.0);
    EXPECT_LE(r, 1.0);
  }
}

TEST(SpikingNetwork, RejectsIndivisibleBatch) {
  SpikingNetwork net = make_model("vgg_micro", tiny_config());
  EXPECT_THROW(net.forward(Tensor({3, 3, 8, 8}), 2, false), std::invalid_argument);
}

TEST(SpikingNetwork, StepMatchesMultistepVgg) {
  SpikingNetwork net = make_model("vgg_micro", tiny_config());
  util::Rng rng(54);
  const std::size_t timesteps = 3;
  // Direct encoding: same frame every timestep.
  Tensor frame = Tensor::randn({1, 3, 8, 8}, rng);
  Tensor x({timesteps, 3, 8, 8});
  for (std::size_t t = 0; t < timesteps; ++t) {
    std::copy(frame.data(), frame.data() + frame.numel(), x.data() + t * frame.numel());
  }
  Tensor multi = net.forward(x, timesteps, false);

  net.begin_inference(1);
  for (std::size_t t = 0; t < timesteps; ++t) {
    Tensor y = net.step(frame);
    for (std::size_t c = 0; c < 4; ++c) {
      EXPECT_NEAR(y[c], multi.at(t, c), 1e-4) << "t=" << t << " c=" << c;
    }
  }
}

TEST(SpikingNetwork, StepMatchesMultistepResnet) {
  SpikingNetwork net = make_model("resnet_micro", tiny_config());
  util::Rng rng(55);
  const std::size_t timesteps = 4;
  Tensor frame = Tensor::randn({1, 3, 8, 8}, rng);
  Tensor x({timesteps, 3, 8, 8});
  for (std::size_t t = 0; t < timesteps; ++t) {
    std::copy(frame.data(), frame.data() + frame.numel(), x.data() + t * frame.numel());
  }
  Tensor multi = net.forward(x, timesteps, false);
  net.begin_inference(1);
  for (std::size_t t = 0; t < timesteps; ++t) {
    Tensor y = net.step(frame);
    for (std::size_t c = 0; c < 4; ++c) {
      EXPECT_NEAR(y[c], multi.at(t, c), 1e-4) << "t=" << t;
    }
  }
}

// ----------------------------------------------------- state compaction

/// Rows `keep` of a [B, C, H, W] tensor, in the given order.
Tensor gather_batch_rows(const Tensor& x, std::span<const std::size_t> keep) {
  Shape shape = x.shape();
  shape[0] = keep.size();
  Tensor out(shape);
  for (std::size_t j = 0; j < keep.size(); ++j) {
    const auto row = x.row(keep[j]);
    std::copy(row.begin(), row.end(), out.data() + j * x.row_size());
  }
  return out;
}

/// Network-level compact_inference_state over a *permuted* subset must be
/// exact: the compacted network's subsequent steps equal running the kept
/// samples alone from scratch. Exercised on both model families so the
/// gather recurses through Sequential, ResidualBlock and every Lif.
TEST(SpikingNetwork, CompactedStateEqualsRerunningKeptSamples) {
  for (const std::string preset : {"vgg_micro", "resnet_micro"}) {
    SpikingNetwork full = make_model(preset, tiny_config());
    SpikingNetwork solo = make_model(preset, tiny_config());
    copy_network_state(full, solo);

    util::Rng rng(58);
    const std::size_t batch = 4;
    const std::vector<std::size_t> keep{2, 0, 3};  // permuted subset
    std::vector<Tensor> frames;
    for (std::size_t t = 0; t < 4; ++t) {
      frames.push_back(Tensor::randn({batch, 3, 8, 8}, rng, 0.0f, 1.0f));
    }

    full.begin_inference(batch);
    full.step(frames[0]);
    full.step(frames[1]);
    full.compact_inference_state(keep);

    solo.begin_inference(keep.size());
    solo.step(gather_batch_rows(frames[0], keep));
    solo.step(gather_batch_rows(frames[1], keep));

    for (std::size_t t = 2; t < 4; ++t) {
      const Tensor x = gather_batch_rows(frames[t], keep);
      const Tensor a = full.step(x);
      const Tensor b = solo.step(x);
      ASSERT_EQ(a.shape(), b.shape()) << preset << " t=" << t;
      for (std::size_t i = 0; i < a.numel(); ++i) {
        ASSERT_EQ(a[i], b[i]) << preset << " t=" << t << " i=" << i;
      }
    }
  }
}

/// Sequential::step runs each Conv2d -> BatchNorm2d -> Lif run as one fused
/// step (conv pixels + the registry's spike epilogue). Over every preset and
/// a hand-built biased block, under hard and soft reset, with random BN
/// statistics and compactions admitting fresh rows mid-sequence, its logits
/// and membranes must equal stepping each leaf alone bit for bit, with the
/// same GEMM accounting.
TEST(FusedStep, BitwiseEqualToLeafByLeaf) {
  for (const bool hard_reset : {true, false}) {
    ModelConfig mc = tiny_config();
    mc.lif.hard_reset = hard_reset;
    for (const std::string preset : {"vgg_micro", "vgg_mini", "resnet_micro", "resnet_mini"}) {
      SCOPED_TRACE(preset + (hard_reset ? " hard" : " soft"));
      SpikingNetwork net = make_model(preset, mc);
      util::GemmContext context;
      fused_test::expect_fused_equals_leaf_by_leaf(net, context, 61);
    }

    SCOPED_TRACE(std::string("hand-built biased block") + (hard_reset ? " hard" : " soft"));
    util::Rng rng(62);
    Sequential body;
    body.append(std::make_unique<Conv2d>(3, 6, 3, 1, 1, /*bias=*/true, rng));
    body.append(std::make_unique<BatchNorm2d>(6));
    body.append(std::make_unique<Lif>(mc.lif));
    body.append(std::make_unique<Conv2d>(6, 5, 3, 2, 1, /*bias=*/true, rng));
    body.append(std::make_unique<BatchNorm2d>(5));
    body.append(std::make_unique<Lif>(mc.lif));
    // A conv with no BN/LIF after it steps unfused and keeps real outputs.
    body.append(std::make_unique<Conv2d>(5, 4, 3, 1, 1, /*bias=*/true, rng));
    SpikingNetwork net(std::move(body), 4, {3, 8, 8});
    util::GemmContext context;
    fused_test::expect_fused_equals_leaf_by_leaf(net, context, 63);
  }
}

/// Two row windows of one network stepped at once, each by its own thread
/// with no OpenMP region, give bitwise the outputs of stepping them one
/// after the other: a window step and a window compaction write only the
/// window's rows of the state and no layer member. Each window compacts in
/// place between steps (survivors in order, then fresh rows). Both model
/// families, so ResidualBlock steps by window too.
TEST(SpikingNetwork, ConcurrentWindowsEqualSerialWindows) {
  constexpr std::size_t kFresh = Layer::kFreshRow;
  struct Window {
    std::size_t offset;
    std::size_t rows;
    std::vector<std::vector<std::size_t>> keeps;  ///< before steps 1, 2, ...
  };
  const std::vector<Window> windows = {{0, 3, {{0, 2, kFresh}, {1, kFresh, kFresh}}},
                                       {3, 2, {{1, kFresh}, {0, 1}}}};
  for (const std::string preset : {"vgg_micro", "resnet_micro"}) {
    SCOPED_TRACE(preset);
    SpikingNetwork net = make_model(preset, tiny_config());
    util::Rng rng(64);
    fused_test::randomize_batch_norms(net, rng);
    std::vector<std::vector<Tensor>> frames(windows.size());
    for (std::size_t w = 0; w < windows.size(); ++w) {
      for (std::size_t t = 0; t <= windows[w].keeps.size(); ++t) {
        Shape shape = net.sample_shape();
        shape.insert(shape.begin(), windows[w].rows);
        frames[w].push_back(Tensor::randn(shape, rng, 0.5f, 1.0f));
      }
    }

    using Outputs = std::vector<std::vector<float>>;  // per step
    const auto step_window = [&](std::size_t w, Outputs& out) {
      const Window& win = windows[w];
      for (std::size_t t = 0; t < frames[w].size(); ++t) {
        if (t > 0) net.compact_window({win.offset, win.rows}, win.keeps[t - 1]);
        const float* y =
            net.step_window({win.offset, win.rows}, frames[w][t].data());
        out.emplace_back(y, y + win.rows * net.num_classes());
      }
    };
    std::vector<Outputs> serial(windows.size()), concurrent(windows.size());
    net.begin_inference(5);
    for (std::size_t w = 0; w < windows.size(); ++w) step_window(w, serial[w]);
    net.begin_inference(5);
    {
      util::Thread first(step_window, 0, std::ref(concurrent[0]));
      util::Thread second(step_window, 1, std::ref(concurrent[1]));
    }
    for (std::size_t w = 0; w < windows.size(); ++w) {
      ASSERT_EQ(serial[w].size(), concurrent[w].size());
      for (std::size_t t = 0; t < serial[w].size(); ++t) {
        ASSERT_EQ(serial[w][t], concurrent[w][t]) << "window " << w << " t=" << t;
      }
    }
  }
}

TEST(SpikingNetwork, CompactionShrinksToSingleSample) {
  SpikingNetwork net = make_model("vgg_micro", tiny_config());
  util::Rng rng(59);
  const Tensor frame = Tensor::randn({3, 3, 8, 8}, rng);
  net.begin_inference(3);
  net.step(frame);
  const std::vector<std::size_t> keep{1};
  net.compact_inference_state(keep);
  const Tensor y = net.step(gather_batch_rows(frame, keep));
  EXPECT_EQ(y.dim(0), 1u);
}

TEST(Checkpoint, SaveLoadRoundTrip) {
  const std::string path = testing::TempDir() + "/dtsnn_ckpt_test.bin";
  SpikingNetwork a = make_model("vgg_micro", tiny_config());
  // Perturb away from init so the round trip is meaningful.
  util::Rng rng(56);
  for (Param* p : a.params()) {
    for (std::size_t i = 0; i < p->value.numel(); ++i) {
      p->value[i] += static_cast<float>(rng.gaussian(0.0, 0.01));
    }
  }
  save_checkpoint(a, path);

  ModelConfig mc = tiny_config();
  mc.seed = 777;  // different init; load must overwrite
  SpikingNetwork b = make_model("vgg_micro", mc);
  load_checkpoint(b, path);

  auto pa = a.params(), pb = b.params();
  for (std::size_t i = 0; i < pa.size(); ++i) {
    EXPECT_TRUE(pa[i]->value.allclose(pb[i]->value)) << i;
  }
  // Outputs must agree exactly.
  Tensor x = Tensor::randn({2, 3, 8, 8}, rng);
  EXPECT_TRUE(a.forward(x, 1, false).allclose(b.forward(x, 1, false)));
  std::filesystem::remove(path);
}

TEST(Checkpoint, LoadRejectsWrongArchitecture) {
  const std::string path = testing::TempDir() + "/dtsnn_ckpt_mismatch.bin";
  SpikingNetwork a = make_model("vgg_micro", tiny_config());
  save_checkpoint(a, path);
  SpikingNetwork b = make_model("resnet_micro", tiny_config());
  EXPECT_THROW(load_checkpoint(b, path), std::runtime_error);
  std::filesystem::remove(path);
}

TEST(Checkpoint, LoadRejectsMissingFile) {
  SpikingNetwork a = make_model("vgg_micro", tiny_config());
  EXPECT_THROW(load_checkpoint(a, "/nonexistent/x.bin"), std::runtime_error);
}

TEST(Checkpoint, PreservesBatchNormRunningStats) {
  const std::string path = testing::TempDir() + "/dtsnn_ckpt_bn.bin";
  SpikingNetwork a = make_model("vgg_micro", tiny_config());
  util::Rng rng(57);
  Tensor x = Tensor::randn({4, 3, 8, 8}, rng, 2.0f, 1.5f);
  a.forward(x, 1, true);  // updates running stats
  save_checkpoint(a, path);

  SpikingNetwork b = make_model("vgg_micro", tiny_config());
  load_checkpoint(b, path);
  // Eval outputs depend on running stats; they must match.
  Tensor probe = Tensor::randn({2, 3, 8, 8}, rng);
  EXPECT_TRUE(a.forward(probe, 1, false).allclose(b.forward(probe, 1, false)));
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace dtsnn::snn
