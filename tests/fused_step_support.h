// Shared check for the fused eval spiking block (test_network,
// test_quantized): SpikingNetwork::step runs every Conv2d -> BatchNorm2d ->
// Lif run as one fused step (snn/network.h), and it must give bitwise the
// logits and membranes, and the same GEMM accounting, as stepping every leaf
// on its own.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "snn/network.h"
#include "snn/norm.h"
#include "util/gemm.h"
#include "util/rng.h"

namespace dtsnn::snn::fused_test {

/// One eval step through `layer` with every leaf stepped on its own, the
/// unfused path: containers are unrolled here instead of running
/// Sequential::step, which fuses.
inline Tensor step_leaf_by_leaf(Layer& layer, const Tensor& x) {
  if (auto* seq = dynamic_cast<Sequential*>(&layer)) {
    Tensor a = x;
    for (std::size_t i = 0; i < seq->size(); ++i) a = step_leaf_by_leaf(seq->layer(i), a);
    return a;
  }
  if (auto* res = dynamic_cast<ResidualBlock*>(&layer)) {
    Tensor m = step_leaf_by_leaf(res->main_path(), x);
    m.add_(res->has_projection() ? step_leaf_by_leaf(res->shortcut(), x) : x);
    return res->output_lif().step(m);
  }
  return layer.step(x);
}

/// Random eval statistics and affine parameters for every BatchNorm2d, so
/// each term of the epilogue's affine matters.
inline void randomize_batch_norms(SpikingNetwork& net, util::Rng& rng) {
  net.visit([&rng](Layer& layer) {
    auto* bn = dynamic_cast<BatchNorm2d*>(&layer);
    if (bn == nullptr) return;
    for (std::size_t c = 0; c < bn->channels(); ++c) {
      bn->running_mean()[c] = static_cast<float>(rng.gaussian(0.0, 0.5));
      bn->running_var()[c] = static_cast<float>(rng.uniform(0.25, 2.0));
      bn->gamma().value[c] = static_cast<float>(rng.uniform(0.5, 2.0));
      bn->beta().value[c] = static_cast<float>(rng.gaussian(0.0, 0.3));
    }
  });
}

struct SteppedRun {
  std::vector<Tensor> logits;
  std::vector<Tensor> membranes;  ///< every Lif's, after the last step
  util::GemmStats stats;
};

/// The compaction before each step t >= 1: a permuted gather admitting a
/// kFreshRow row, then one at the same batch size (so every Lif gathers into
/// its reused spare membrane), then one that grows the batch (so the convs'
/// retained pixel scratch grows).
inline std::vector<std::vector<std::size_t>> compactions() {
  constexpr std::size_t kFresh = Layer::kFreshRow;
  return {{2, kFresh, 0, 3}, {3, 1, kFresh, 0}, {0, kFresh, 2, 1, kFresh}};
}

/// Steps `frames` through `net` from a fresh sequence, fused (net.step) or
/// leaf by leaf, compacting with compactions()[t - 1] before step t.
inline SteppedRun run_steps(SpikingNetwork& net, const std::vector<Tensor>& frames,
                            bool fused) {
  const auto gathers = compactions();
  net.gemm_context().reset_stats();
  net.begin_inference(frames.front().dim(0));
  SteppedRun run;
  for (std::size_t t = 0; t < frames.size(); ++t) {
    if (t > 0) net.compact_inference_state(gathers[t - 1]);
    run.logits.push_back(fused ? net.step(frames[t]) : step_leaf_by_leaf(net.body(), frames[t]));
  }
  run.stats = net.gemm_context().stats();
  net.visit([&run](Layer& layer) {
    if (const auto* lif = dynamic_cast<const Lif*>(&layer)) {
      run.membranes.push_back(lif->membrane());
    }
  });
  return run;
}

/// Bitwise equality of two tensors, element by element.
inline void expect_bitwise_equal(const Tensor& a, const Tensor& b, const std::string& what) {
  ASSERT_EQ(a.shape(), b.shape()) << what;
  for (std::size_t i = 0; i < a.numel(); ++i) ASSERT_EQ(a[i], b[i]) << what << " i=" << i;
}

/// Four timesteps of `net` under `context`, fused and leaf by leaf, with
/// the compactions() between them: every logit and every Lif's final
/// membrane must be bitwise equal, and both runs must record the same GEMM
/// calls, flops and nonzeros. The frames are dense, so recorded nonzeros
/// beyond them show that hidden layers fired.
inline void expect_fused_equals_leaf_by_leaf(SpikingNetwork& net,
                                             util::GemmContext& context,
                                             std::uint64_t seed) {
  util::Rng rng(seed);
  randomize_batch_norms(net, rng);
  const auto gathers = compactions();
  std::vector<Tensor> frames;
  double frame_elements = 0.0;
  for (std::size_t t = 0; t <= gathers.size(); ++t) {
    Shape shape = net.sample_shape();
    shape.insert(shape.begin(), t == 0 ? std::size_t{4} : gathers[t - 1].size());
    frames.push_back(Tensor::randn(shape, rng, 0.5f, 1.0f));
    frame_elements += static_cast<double>(frames.back().numel());
  }

  net.set_gemm_context(&context);
  const SteppedRun fused = run_steps(net, frames, /*fused=*/true);
  const SteppedRun leaves = run_steps(net, frames, /*fused=*/false);
  net.set_gemm_context(nullptr);

  for (std::size_t t = 0; t < frames.size(); ++t) {
    expect_bitwise_equal(fused.logits[t], leaves.logits[t], "logits t=" + std::to_string(t));
  }
  ASSERT_EQ(fused.membranes.size(), leaves.membranes.size());
  for (std::size_t l = 0; l < fused.membranes.size(); ++l) {
    expect_bitwise_equal(fused.membranes[l], leaves.membranes[l],
                         "membrane of Lif " + std::to_string(l));
  }
  EXPECT_EQ(fused.stats.calls(), leaves.stats.calls());
  EXPECT_EQ(fused.stats.flops(), leaves.stats.flops());
  EXPECT_EQ(fused.stats.nonzeros(), leaves.stats.nonzeros());
  EXPECT_GT(fused.stats.nonzeros(), frame_elements);
}

}  // namespace dtsnn::snn::fused_test
