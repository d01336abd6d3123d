// Unit tests for LIF dynamics (Eq. 2-3), surrogate gradients (Eq. 4) and the
// reverse-time BPTT recurrence. The firing nonlinearity is non-differentiable
// so the backward pass is checked against hand-computed surrogate recurrences
// rather than finite differences.

#include <span>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "snn/lif.h"
#include "snn/surrogate.h"
#include "util/rng.h"

namespace dtsnn::snn {
namespace {

// --------------------------------------------------------------- dynamics

TEST(Lif, FiresAboveThreshold) {
  Lif lif({.vth = 1.0f, .tau = 0.5f});
  lif.set_time(1, 1);
  Tensor x({1, 2}, std::vector<float>{1.5f, 0.5f});
  Tensor s = lif.forward(x, false);
  EXPECT_FLOAT_EQ(s[0], 1.0f);
  EXPECT_FLOAT_EQ(s[1], 0.0f);
}

TEST(Lif, ThresholdIsStrict) {
  Lif lif({.vth = 1.0f});
  lif.set_time(1, 1);
  Tensor x({1, 1}, std::vector<float>{1.0f});  // u == vth: no spike (Eq. 3 is >)
  EXPECT_FLOAT_EQ(lif.forward(x, false)[0], 0.0f);
}

TEST(Lif, MembraneAccumulatesWithLeak) {
  // tau=0.5, input 0.6 each step: u = 0.6, 0.9, 1.05 -> fires at t=2.
  Lif lif({.vth = 1.0f, .tau = 0.5f});
  lif.set_time(3, 1);
  Tensor x({3, 1}, std::vector<float>{0.6f, 0.6f, 0.6f});
  Tensor s = lif.forward(x, false);
  EXPECT_FLOAT_EQ(s[0], 0.0f);
  EXPECT_FLOAT_EQ(s[1], 0.0f);
  EXPECT_FLOAT_EQ(s[2], 1.0f);
}

TEST(Lif, HardResetZeroesMembrane) {
  // After a spike the membrane restarts from 0: same charging pattern repeats.
  Lif lif({.vth = 1.0f, .tau = 1.0f});  // no leak for exact arithmetic
  lif.set_time(4, 1);
  Tensor x({4, 1}, std::vector<float>{0.6f, 0.6f, 0.6f, 0.6f});
  Tensor s = lif.forward(x, false);
  // u: 0.6 (no), 1.2 (fire, reset 0), 0.6 (no), 1.2 (fire)
  EXPECT_FLOAT_EQ(s[0], 0.0f);
  EXPECT_FLOAT_EQ(s[1], 1.0f);
  EXPECT_FLOAT_EQ(s[2], 0.0f);
  EXPECT_FLOAT_EQ(s[3], 1.0f);
}

TEST(Lif, SoftResetSubtractsThreshold) {
  Lif lif({.vth = 1.0f, .tau = 1.0f, .hard_reset = false});
  lif.set_time(3, 1);
  Tensor x({3, 1}, std::vector<float>{1.5f, 0.3f, 0.3f});
  Tensor s = lif.forward(x, false);
  // u: 1.5 fire -> 0.5; 0.8 no; 1.1 fire.
  EXPECT_FLOAT_EQ(s[0], 1.0f);
  EXPECT_FLOAT_EQ(s[1], 0.0f);
  EXPECT_FLOAT_EQ(s[2], 1.0f);
}

TEST(Lif, OutputsAreBinary) {
  util::Rng rng(31);
  Lif lif{LifConfig{}};
  lif.set_time(4, 8);
  Tensor x = Tensor::randn({32, 3, 4, 4}, rng, 0.5f, 1.0f);
  Tensor s = lif.forward(x, false);
  for (std::size_t i = 0; i < s.numel(); ++i) {
    EXPECT_TRUE(s[i] == 0.0f || s[i] == 1.0f);
  }
}

TEST(Lif, SpikeRateTracked) {
  Lif lif{LifConfig{}};
  lif.set_time(1, 1);
  Tensor x({1, 4}, std::vector<float>{2.0f, 2.0f, 0.0f, 0.0f});
  lif.forward(x, false);
  EXPECT_NEAR(lif.last_spike_rate(), 0.5, 1e-12);
}

TEST(Lif, RejectsIndivisibleLeadingDim) {
  Lif lif{LifConfig{}};
  lif.set_time(3, 2);
  EXPECT_THROW(lif.forward(Tensor({4, 2}), false), std::invalid_argument);
}

// --------------------------------------------------- multistep vs stepping

TEST(Lif, StepMatchesMultistep) {
  // A 6-element step, and a [2, 8, 17, 17] one large enough that several
  // OpenMP threads each own a chunk of the element-wise update; under hard
  // and soft reset alike the stepped spikes must equal the multistep ones.
  const std::vector<Shape> step_shapes{{2, 3}, {2, 8, 17, 17}};
  for (const Shape& step_shape : step_shapes) {
    for (const bool hard_reset : {true, false}) {
      util::Rng rng(32);
      const std::size_t timesteps = 5;
      const std::size_t batch = step_shape[0];
      Shape multi_shape = step_shape;
      multi_shape[0] = timesteps * batch;
      Tensor x = Tensor::randn(multi_shape, rng, 0.4f, 0.8f);
      const std::size_t slab = x.numel() / timesteps;

      const LifConfig config{.hard_reset = hard_reset};
      Lif multi{config};
      multi.set_time(timesteps, batch);
      Tensor s_multi = multi.forward(x, false);

      Lif stepper{config};
      stepper.begin_steps();
      for (std::size_t t = 0; t < timesteps; ++t) {
        Tensor xt(step_shape);
        std::copy(x.data() + t * slab, x.data() + (t + 1) * slab, xt.data());
        Tensor st = stepper.step(xt);
        for (std::size_t i = 0; i < slab; ++i) {
          ASSERT_EQ(st[i], s_multi[t * slab + i])
              << "numel " << slab << " hard_reset " << hard_reset << " t=" << t
              << " i=" << i;
        }
      }
    }
  }
}

/// begin_steps() resets the state: a sequence starts each row at zero the
/// first time it reserves it. The membrane never shrinks, so the rows a
/// smaller sequence grows into later still hold the previous sequence's
/// values until then, and must not leak into it.
TEST(Lif, BeginStepsResetsState) {
  Lif lif({.vth = 1.0f, .tau = 1.0f});
  const Tensor x3 = Tensor::full({3, 1}, 0.7f);
  lif.begin_steps();
  lif.step(x3);       // u = 0.7 in every row
  lif.begin_steps();  // reset
  Tensor x({1, 1}, std::vector<float>{0.7f});
  Tensor s = lif.step(x);  // u = 0.7 again, still below threshold
  EXPECT_FLOAT_EQ(s[0], 0.0f);
  const Tensor grown = lif.step(x3);  // row 0 reaches 1.4; rows 1-2 start at 0
  EXPECT_FLOAT_EQ(grown[0], 1.0f);
  EXPECT_FLOAT_EQ(grown[1], 0.0f);
  EXPECT_FLOAT_EQ(grown[2], 0.0f);
}

TEST(Lif, StepRejectsShapeChange) {
  Lif lif{LifConfig{}};
  lif.begin_steps();
  lif.step(Tensor({1, 3}));
  EXPECT_THROW(lif.step(Tensor({1, 4})), std::invalid_argument);
}

// ------------------------------------------------------------- surrogates

TEST(Surrogate, TriangleMatchesEq4) {
  const SurrogateSpec spec{SurrogateKind::kTriangle, 1.0f};
  const float vth = 1.0f;
  EXPECT_FLOAT_EQ(surrogate_grad(spec, 1.0f, vth), 1.0f);   // peak = Vth at u = Vth
  EXPECT_FLOAT_EQ(surrogate_grad(spec, 0.5f, vth), 0.5f);
  EXPECT_FLOAT_EQ(surrogate_grad(spec, 1.5f, vth), 0.5f);
  EXPECT_FLOAT_EQ(surrogate_grad(spec, 0.0f, vth), 0.0f);   // support ends
  EXPECT_FLOAT_EQ(surrogate_grad(spec, 2.5f, vth), 0.0f);
}

TEST(Surrogate, TriangleScalesWithVth) {
  const SurrogateSpec spec{SurrogateKind::kTriangle, 1.0f};
  EXPECT_FLOAT_EQ(surrogate_grad(spec, 0.5f, 0.5f), 0.5f);  // peak = Vth
}

TEST(Surrogate, RectangleBoxcar) {
  const SurrogateSpec spec{SurrogateKind::kRectangle, 0.5f};
  EXPECT_FLOAT_EQ(surrogate_grad(spec, 1.0f, 1.0f), 1.0f);   // 1/(2*0.5)
  EXPECT_FLOAT_EQ(surrogate_grad(spec, 1.4f, 1.0f), 1.0f);
  EXPECT_FLOAT_EQ(surrogate_grad(spec, 1.6f, 1.0f), 0.0f);
}

TEST(Surrogate, DspikeSymmetricPeakAtThreshold) {
  const SurrogateSpec spec{SurrogateKind::kDspike, 3.0f};
  const float peak = surrogate_grad(spec, 1.0f, 1.0f);
  EXPECT_GT(peak, surrogate_grad(spec, 1.3f, 1.0f));
  EXPECT_FLOAT_EQ(surrogate_grad(spec, 1.3f, 1.0f), surrogate_grad(spec, 0.7f, 1.0f));
  EXPECT_FLOAT_EQ(surrogate_grad(spec, 2.5f, 1.0f), 0.0f);  // finite support
}

TEST(Surrogate, AtanDecaysFromPeak) {
  const SurrogateSpec spec{SurrogateKind::kAtan, 2.0f};
  EXPECT_GT(surrogate_grad(spec, 1.0f, 1.0f), surrogate_grad(spec, 2.0f, 1.0f));
  EXPECT_GT(surrogate_grad(spec, 2.0f, 1.0f), 0.0f);  // infinite support
}

TEST(Surrogate, StringRoundTrip) {
  for (const auto kind : {SurrogateKind::kTriangle, SurrogateKind::kDspike,
                          SurrogateKind::kRectangle, SurrogateKind::kAtan}) {
    EXPECT_EQ(surrogate_from_string(to_string(kind)), kind);
  }
  EXPECT_THROW(surrogate_from_string("bogus"), std::invalid_argument);
}

// ------------------------------------------------------------------- BPTT

TEST(LifBackward, SingleStepMatchesSurrogate) {
  // One timestep: dx = g * f'(u_pre), u_pre = x.
  Lif lif({.vth = 1.0f, .tau = 0.5f});
  lif.set_time(1, 1);
  Tensor x({1, 3}, std::vector<float>{0.5f, 1.0f, 1.5f});
  lif.forward(x, true);
  Tensor g({1, 3}, std::vector<float>{1.0f, 1.0f, 1.0f});
  Tensor dx = lif.backward(g);
  const SurrogateSpec spec{SurrogateKind::kTriangle, 1.0f};
  EXPECT_FLOAT_EQ(dx[0], surrogate_grad(spec, 0.5f, 1.0f));
  EXPECT_FLOAT_EQ(dx[1], surrogate_grad(spec, 1.0f, 1.0f));
  EXPECT_FLOAT_EQ(dx[2], surrogate_grad(spec, 1.5f, 1.0f));
}

TEST(LifBackward, TwoStepRecurrenceHandComputed) {
  // tau=0.5, vth=1, detach reset, hard reset. Input x0=0.6 (no spike,
  // u_post=0.6), x1=0.8 (u_pre=1.1, spike).
  // Backward with g = (g0, g1):
  //   t=1: du_pre1 = g1 * f'(1.1); dx1 = du_pre1; carry = 0.5 * du_pre1
  //   t=0: du_pre0 = carry * (1 - s0) + g0 * f'(0.6); dx0 = du_pre0.
  Lif lif({.vth = 1.0f, .tau = 0.5f});
  lif.set_time(2, 1);
  Tensor x({2, 1}, std::vector<float>{0.6f, 0.8f});
  Tensor s = lif.forward(x, true);
  ASSERT_FLOAT_EQ(s[0], 0.0f);
  ASSERT_FLOAT_EQ(s[1], 1.0f);

  Tensor g({2, 1}, std::vector<float>{2.0f, 3.0f});
  Tensor dx = lif.backward(g);
  const SurrogateSpec spec{SurrogateKind::kTriangle, 1.0f};
  const float fp1 = surrogate_grad(spec, 1.1f, 1.0f);
  const float fp0 = surrogate_grad(spec, 0.6f, 1.0f);
  const float expected_dx1 = 3.0f * fp1;
  const float expected_dx0 = 0.5f * expected_dx1 * 1.0f + 2.0f * fp0;
  EXPECT_NEAR(dx[1], expected_dx1, 1e-6);
  EXPECT_NEAR(dx[0], expected_dx0, 1e-6);
}

TEST(LifBackward, ResetBlocksCarryWhenSpiked) {
  // If the neuron spiked at t=0, the (detached) hard reset kills the carry
  // path from t=1 into t=0's input gradient except via the surrogate.
  Lif lif({.vth = 1.0f, .tau = 0.5f});
  lif.set_time(2, 1);
  Tensor x({2, 1}, std::vector<float>{5.0f, 0.2f});  // spike at t=0, far from vth
  lif.forward(x, true);
  Tensor g({2, 1}, std::vector<float>{0.0f, 1.0f});  // only t=1 receives gradient
  Tensor dx = lif.backward(g);
  // f'(5.0) = 0 (outside triangle) and (1 - s0) = 0 -> dx0 must be exactly 0.
  EXPECT_FLOAT_EQ(dx[0], 0.0f);
}

TEST(LifBackward, NonDetachedResetAddsTerm) {
  Lif detach({.vth = 1.0f, .tau = 0.5f, .hard_reset = true, .detach_reset = true});
  Lif full({.vth = 1.0f, .tau = 0.5f, .hard_reset = true, .detach_reset = false});
  Tensor x({2, 1}, std::vector<float>{1.2f, 0.4f});  // spike at t=0 inside support
  Tensor g({2, 1}, std::vector<float>{0.0f, 1.0f});

  detach.set_time(2, 1);
  detach.forward(x, true);
  Tensor dx_detach = detach.backward(g);

  full.set_time(2, 1);
  full.forward(x, true);
  Tensor dx_full = full.backward(g);
  EXPECT_NE(dx_detach[0], dx_full[0]);
}

TEST(LifBackward, LeakScalesTemporalCredit) {
  // No spikes anywhere: dx0 = tau * dx1 when only t=1 gets gradient.
  for (const float tau : {0.25f, 0.5f, 0.9f}) {
    Lif lif({.vth = 10.0f, .tau = tau});
    lif.set_time(2, 1);
    Tensor x({2, 1}, std::vector<float>{0.1f, 0.1f});
    lif.forward(x, true);
    Tensor g({2, 1}, std::vector<float>{0.0f, 1.0f});
    Tensor dx = lif.backward(g);
    // u stays far below vth=10 so f' = 0 ... use vth=1-range instead: make
    // u near threshold so surrogate non-zero.
    // With f'(u1) = fp: dx1 = fp, dx0 = tau * fp (no spikes).
    const SurrogateSpec spec{SurrogateKind::kTriangle, 1.0f};
    const float u0 = 0.1f;
    const float u1 = tau * u0 + 0.1f;
    const float fp1 = surrogate_grad(spec, u1, 10.0f);
    EXPECT_FLOAT_EQ(dx[1], fp1);
    EXPECT_FLOAT_EQ(dx[0], tau * dx[1]);
  }
}

TEST(LifBackward, ZeroUpstreamGivesZero) {
  util::Rng rng(33);
  Lif lif{LifConfig{}};
  lif.set_time(3, 2);
  Tensor x = Tensor::randn({6, 4}, rng);
  lif.forward(x, true);
  Tensor dx = lif.backward(Tensor({6, 4}));
  for (std::size_t i = 0; i < dx.numel(); ++i) EXPECT_FLOAT_EQ(dx[i], 0.0f);
}

// ----------------------------------------------------- state compaction

/// Rows `keep` of a [B, F] tensor, in the given order.
Tensor gather_rows(const Tensor& x, std::span<const std::size_t> keep) {
  Shape shape = x.shape();
  shape[0] = keep.size();
  Tensor out(shape);
  for (std::size_t j = 0; j < keep.size(); ++j) {
    const auto row = x.row(keep[j]);
    std::copy(row.begin(), row.end(), out.data() + j * x.row_size());
  }
  return out;
}

/// compact_window to an in-place subset mid-sequence must equal running the
/// kept samples alone from scratch: the membrane is per-sample state, so
/// moving its rows is exact, not approximate.
TEST(Lif, CompactWindowEqualsRerunningKeptSamples) {
  util::Rng rng(97);
  const LifConfig cfg{.vth = 0.6f, .tau = 0.7f};
  const std::size_t batch = 5;
  const std::vector<std::size_t> keep{0, 3, 4};  // survivors, in order

  std::vector<Tensor> inputs;
  for (std::size_t t = 0; t < 4; ++t) {
    inputs.push_back(Tensor::randn({batch, 6}, rng, 0.4f, 0.8f));
  }

  Lif full(cfg);
  full.begin_steps();
  full.step(inputs[0]);
  full.step(inputs[1]);
  full.compact_window({0, batch}, keep);

  Lif solo(cfg);
  solo.begin_steps();
  solo.step(gather_rows(inputs[0], keep));
  solo.step(gather_rows(inputs[1], keep));

  for (std::size_t t = 2; t < 4; ++t) {
    const Tensor x = gather_rows(inputs[t], keep);
    const Tensor a = full.step(x);
    const Tensor b = solo.step(x);
    ASSERT_EQ(a.shape(), b.shape()) << t;
    for (std::size_t i = 0; i < a.numel(); ++i) ASSERT_EQ(a[i], b[i]) << t;
  }
}

/// kFreshRow entries in the keep become zero-membrane rows — admitting a
/// new sample into a freed slot equals starting it in a fresh engine.
TEST(Lif, CompactWindowFreshRowEqualsFreshStart) {
  util::Rng rng(98);
  const LifConfig cfg{.vth = 0.5f, .tau = 0.6f};
  const Tensor x0 = Tensor::randn({2, 4}, rng, 0.4f, 0.7f);
  const Tensor x1 = Tensor::randn({2, 4}, rng, 0.4f, 0.7f);

  Lif pool(cfg);
  pool.begin_steps();
  pool.step(x0);
  // Keep row 1, admit a fresh sample into slot 1.
  const std::vector<std::size_t> keep{1, Layer::kFreshRow};
  pool.compact_window({0, 2}, keep);
  const Tensor a = pool.step(x1);

  Lif solo(cfg);
  solo.begin_steps();
  // The fresh slot sees x1's row 1 as its first input ever.
  const Tensor b =
      solo.step(Tensor({1, 4}, std::vector<float>(x1.row(1).begin(), x1.row(1).end())));
  for (std::size_t i = 0; i < 4; ++i) ASSERT_EQ(a.at(1, i), b[i]) << i;
}

/// An out-of-range index throws std::out_of_range, and a keep that cannot
/// move rows in place (a permutation) or outgrows the reserved rows throws
/// std::invalid_argument, each before any row moves.
TEST(Lif, CompactWindowValidatesKeepBeforeAnyRowMoves) {
  util::Rng rng(99);
  Lif lif{LifConfig{.vth = 10.0f, .tau = 0.9f}};  // never fires: rows stay nonzero
  lif.begin_steps();
  lif.step(Tensor::randn({3, 2}, rng, 1.0f, 0.5f));
  const Tensor before = lif.membrane();
  const auto expect_untouched = [&](const char* what) {
    ASSERT_EQ(lif.membrane().shape(), before.shape()) << what;
    for (std::size_t i = 0; i < before.numel(); ++i) {
      EXPECT_EQ(lif.membrane()[i], before[i]) << what << " i=" << i;
    }
  };
  const std::vector<std::size_t> out_of_range{Layer::kFreshRow, 0, 3};
  EXPECT_THROW(lif.compact_window({0, 3}, out_of_range), std::out_of_range);
  expect_untouched("out of range");
  const std::vector<std::size_t> permuted{2, 0, 1};
  EXPECT_THROW(lif.compact_window({0, 3}, permuted), std::invalid_argument);
  expect_untouched("permuted");
  const std::vector<std::size_t> too_many{0, 1, 2, Layer::kFreshRow};
  EXPECT_THROW(lif.compact_window({0, 3}, too_many), std::invalid_argument);
  expect_untouched("outgrows the reserved rows");
  EXPECT_NE(before[0], 0.0f);
}

TEST(Lif, CompactWindowBeforeFirstStepIsHarmless) {
  Lif lif{LifConfig{}};
  lif.begin_steps();
  const std::vector<std::size_t> keep{1, 2};
  lif.compact_window({0, 4}, keep);  // no membrane reserved yet: nothing moves
  const Tensor y = lif.step(Tensor::ones({2, 3}));
  EXPECT_EQ(y.dim(0), 2u);
}

}  // namespace
}  // namespace dtsnn::snn
