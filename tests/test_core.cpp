// Tests for the DT-SNN core: entropy (Eq. 7), exit rule semantics (Eq. 8),
// recorded replay vs sequential engine agreement, recording, and threshold
// calibration.

#include <cmath>
#include <stdexcept>
#include <utility>

#include <gtest/gtest.h>

#include "core/calibration.h"
#include "core/engine.h"
#include "core/entropy.h"
#include "core/evaluator.h"
#include "core/exit_policy.h"
#include "core/inference.h"
#include "test_helpers.h"
#include "util/math.h"

namespace dtsnn::core {
namespace {

// ----------------------------------------------------------------- entropy

TEST(Entropy, UniformIsOne) {
  const std::vector<float> p(8, 0.125f);
  EXPECT_NEAR(normalized_entropy(p), 1.0, 1e-6);
}

TEST(Entropy, OneHotIsZero) {
  std::vector<float> p(5, 0.0f);
  p[2] = 1.0f;
  EXPECT_NEAR(normalized_entropy(p), 0.0, 1e-12);
}

TEST(Entropy, MonotoneInConcentration) {
  // Sharper distributions have lower entropy.
  double prev = 1.1;
  for (const float conf : {0.3f, 0.5f, 0.7f, 0.9f, 0.99f}) {
    std::vector<float> p(4, (1.0f - conf) / 3.0f);
    p[0] = conf;
    const double h = normalized_entropy(p);
    EXPECT_LT(h, prev);
    prev = h;
  }
}

TEST(Entropy, NormalizationIndependentOfK) {
  // Uniform distributions have entropy exactly 1 regardless of class count.
  for (const std::size_t k : {2u, 10u, 100u}) {
    std::vector<float> p(k, 1.0f / static_cast<float>(k));
    EXPECT_NEAR(normalized_entropy(p), 1.0, 1e-6) << k;
  }
}

TEST(Entropy, OfLogitsMatchesManualSoftmax) {
  const std::vector<float> logits{1.0f, 2.0f, 0.5f};
  const auto probs = util::softmax(logits);
  EXPECT_NEAR(entropy_of_logits(logits), normalized_entropy(probs), 1e-12);
}

TEST(Entropy, DegenerateDistributionsAreZero) {
  // k < 2 would divide by log(k) <= 0; the guard must hold in release builds
  // (the old assert compiled out under NDEBUG).
  const std::vector<float> one{1.0f};
  EXPECT_EQ(normalized_entropy(one), 0.0);
  EXPECT_EQ(normalized_entropy({}), 0.0);
  const auto rows = entropies_of_logit_rows(one, 1);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0], 0.0);
  EXPECT_TRUE(entropies_of_logit_rows({}, 0).empty());
}

TEST(Entropy, RowsHelper) {
  const std::vector<float> logits{0, 0, 10, 0};  // 2 rows of K=2
  const auto h = entropies_of_logit_rows(logits, 2);
  ASSERT_EQ(h.size(), 2u);
  EXPECT_NEAR(h[0], 1.0, 1e-9);
  EXPECT_LT(h[1], 0.01);
}

// ------------------------------------------------------------ exit policies

TEST(ExitPolicy, EntropyThresholdSemantics) {
  const std::vector<float> confident{10.0f, 0.0f, 0.0f};
  const std::vector<float> uncertain{0.1f, 0.0f, 0.05f};
  EntropyExitPolicy tight(0.05);
  EXPECT_TRUE(tight.should_exit(confident));
  EXPECT_FALSE(tight.should_exit(uncertain));
}

TEST(ExitPolicy, ThetaZeroNeverExits) {
  EntropyExitPolicy never(0.0);
  const std::vector<float> confident{100.0f, 0.0f};
  EXPECT_FALSE(never.should_exit(confident));  // entropy >= 0 is never < 0
}

TEST(ExitPolicy, ThetaAboveOneAlwaysExits) {
  EntropyExitPolicy always(1.01);
  const std::vector<float> uniform{1.0f, 1.0f, 1.0f};
  EXPECT_TRUE(always.should_exit(uniform));
}

TEST(ExitPolicy, MaxProbAndMargin) {
  const std::vector<float> confident{5.0f, 0.0f};
  MaxProbExitPolicy mp(0.9);
  EXPECT_TRUE(mp.should_exit(confident));
  EXPECT_FALSE(MaxProbExitPolicy(0.999).should_exit(confident));
  MarginExitPolicy mg(0.5);
  EXPECT_TRUE(mg.should_exit(confident));
  EXPECT_FALSE(MarginExitPolicy(0.999).should_exit(confident));
}

// --------------------------------------------------- synthetic TimestepOutputs

/// Hand-built outputs: 3 samples, T=3, K=2.
///  s0: confident-correct from t=1.
///  s1: uncertain until t=2, then confident-correct.
///  s2: never confident; correct only at t=3.
TimestepOutputs fake_outputs() {
  TimestepOutputs out;
  out.timesteps = 3;
  out.samples = 3;
  out.classes = 2;
  out.labels = {0, 1, 0};
  out.cum_logits = snn::Tensor({9, 2});
  auto set = [&](std::size_t t, std::size_t i, float a, float b) {
    out.cum_logits.at(t * 3 + i, 0) = a;
    out.cum_logits.at(t * 3 + i, 1) = b;
  };
  set(0, 0, 8, 0);  set(1, 0, 8, 0);  set(2, 0, 8, 0);
  set(0, 1, 0.1f, 0.0f);  set(1, 1, 0, 8);  set(2, 1, 0, 8);
  set(0, 2, 0.0f, 0.1f);  set(1, 2, 0.1f, 0.0f);  set(2, 2, 0.2f, 0.0f);
  return out;
}

/// The recorded replay of `policy` over fake_outputs, scored against the
/// recording's own labels.
DtsnnResult fake_eval(const TimestepOutputs& out, const ExitPolicy& policy) {
  return evaluate_recorded(out, policy);
}

/// Throws from should_exit on one sample's rows (identified by its first
/// logit), to check that a policy failure inside the parallel replay
/// surfaces as the exception instead of terminating the process.
class ThrowingPolicy final : public ExitPolicy {
 public:
  explicit ThrowingPolicy(float poison) : poison_(poison) {}
  [[nodiscard]] bool should_exit(std::span<const float> cum_logits) const override {
    if (cum_logits[0] == poison_) throw std::runtime_error("policy failed");
    return false;
  }
  [[nodiscard]] std::string name() const override { return "throwing"; }

 private:
  float poison_;
};

TEST(Engine, StaticAccuracyPerTimestep) {
  const auto out = fake_outputs();
  // t=1: s0 correct, s1 predicts 0 (label 1) wrong, s2 predicts 1 wrong -> 1/3.
  EXPECT_NEAR(static_accuracy(out, 1), 1.0 / 3.0, 1e-12);
  // t=2: s0 ok, s1 ok, s2 predicts 0 ok -> 3/3.
  EXPECT_NEAR(static_accuracy(out, 2), 1.0, 1e-12);
  const auto acc = accuracy_per_timestep(out);
  ASSERT_EQ(acc.size(), 3u);
  EXPECT_NEAR(acc[2], 1.0, 1e-12);
  EXPECT_THROW(static_accuracy(out, 0), std::invalid_argument);
  EXPECT_THROW(static_accuracy(out, 4), std::invalid_argument);
}

TEST(Engine, DtsnnExitRuleEq8) {
  const auto out = fake_outputs();
  EntropyExitPolicy policy(0.2);
  const auto r = fake_eval(out, policy);
  // s0 exits at t=1 (entropy tiny), s1 at t=2, s2 falls back to T=3.
  EXPECT_EQ(r.exit_timestep[0], 1u);
  EXPECT_EQ(r.exit_timestep[1], 2u);
  EXPECT_EQ(r.exit_timestep[2], 3u);
  EXPECT_NEAR(r.avg_timesteps, 2.0, 1e-12);
  EXPECT_NEAR(r.accuracy, 1.0, 1e-12);  // all three correct at their exits
  EXPECT_EQ(r.timestep_histogram.count(0), 1u);
  EXPECT_EQ(r.timestep_histogram.count(2), 1u);
}

TEST(Engine, RecordedReplayPropagatesPolicyException) {
  const auto out = fake_outputs();
  // Rows starting with 0.1 (sample 1 at t=1, sample 2 at t=2) throw.
  EXPECT_THROW(fake_eval(out, ThrowingPolicy(0.1f)), std::runtime_error);
  // A policy that never throws still replays (the forced exit at T).
  EXPECT_NEAR(fake_eval(out, ThrowingPolicy(-1.0f)).avg_timesteps, 3.0, 1e-12);

  TimestepOutputs empty;
  EXPECT_THROW(evaluate_recorded(empty, EntropyExitPolicy(0.5)), std::invalid_argument);
}

TEST(Engine, ConservativeThetaUsesFullTimesteps) {
  const auto out = fake_outputs();
  const auto r = fake_eval(out, EntropyExitPolicy(0.0));
  EXPECT_NEAR(r.avg_timesteps, 3.0, 1e-12);
}

TEST(Engine, AggressiveThetaUsesOneTimestep) {
  const auto out = fake_outputs();
  const auto r = fake_eval(out, EntropyExitPolicy(1.01));
  EXPECT_NEAR(r.avg_timesteps, 1.0, 1e-12);
  // Accuracy equals t=1 static accuracy.
  EXPECT_NEAR(r.accuracy, static_accuracy(out, 1), 1e-12);
}

TEST(Engine, AvgTimestepsMonotoneInTheta) {
  const auto out = fake_outputs();
  double prev = 1e9;
  for (const double theta : {0.01, 0.1, 0.3, 0.6, 0.9, 1.0}) {
    const auto r = fake_eval(out, EntropyExitPolicy(theta));
    EXPECT_LE(r.avg_timesteps, prev + 1e-12) << theta;
    prev = r.avg_timesteps;
  }
}

// ------------------------------------------------------------- calibration

TEST(Calibration, PicksLargestAdmissibleTheta) {
  const auto out = fake_outputs();
  // Target: full accuracy (1.0). Both theta=0.2 and theta=0.5 achieve it
  // (the uncertain samples' entropies sit near 1.0, the confident ones near
  // 0); theta=1.01 forces everything to exit at t=1 and loses accuracy. The
  // calibrator must keep the largest admissible threshold, 0.5.
  const auto c = calibrate_theta(out, 1.0, 0.0, {0.05, 0.2, 0.5, 1.01});
  EXPECT_TRUE(c.met_target);
  EXPECT_NEAR(c.theta, 0.5, 1e-12);
  EXPECT_NEAR(c.result.accuracy, 1.0, 1e-12);
}

TEST(Calibration, FallsBackWhenUnreachable) {
  const auto out = fake_outputs();
  const auto c = calibrate_theta(out, 2.0 /* impossible */, 0.0, {0.1, 0.5});
  EXPECT_FALSE(c.met_target);
  EXPECT_NEAR(c.theta, 0.1, 1e-12);
}

TEST(Calibration, RejectsEmptyGrid) {
  const auto out = fake_outputs();
  EXPECT_THROW(calibrate_theta(out, 1.0, 0.0, {}), std::invalid_argument);
}

TEST(Calibration, SweepAligned) {
  const auto out = fake_outputs();
  const std::vector<double> grid{0.05, 0.2, 1.01};
  const auto sweep = theta_sweep(out, grid);
  ASSERT_EQ(sweep.size(), 3u);
  EXPECT_EQ(sweep[0].theta, 0.05);
  EXPECT_GE(sweep[0].result.avg_timesteps, sweep[2].result.avg_timesteps);
}

TEST(Calibration, DefaultGridCoversUnitInterval) {
  const auto grid = default_theta_grid();
  EXPECT_GT(grid.size(), 10u);
  EXPECT_LT(grid.front(), 0.01);
  EXPECT_GE(grid.back(), 1.0);
  EXPECT_TRUE(std::is_sorted(grid.begin(), grid.end()));
}

TEST(Engine, EntropyTableReplayMatchesPolicy) {
  const auto out = fake_outputs();
  const auto table = entropy_table(out);
  ASSERT_EQ(table.size(), out.timesteps * out.samples);
  for (const double theta : {0.0, 0.05, 0.2, 0.5, 0.9, 1.01}) {
    const auto via_policy = fake_eval(out, EntropyExitPolicy(theta));
    const auto via_table = evaluate_dtsnn_with_table(out, table, theta);
    // Both run the same replay loop, so the results are exactly equal.
    EXPECT_EQ(via_policy.exit_timestep, via_table.exit_timestep) << theta;
    EXPECT_EQ(via_policy.correct, via_table.correct) << theta;
    EXPECT_EQ(via_policy.accuracy, via_table.accuracy) << theta;
    EXPECT_EQ(via_policy.avg_timesteps, via_table.avg_timesteps) << theta;
    ASSERT_EQ(via_policy.timestep_histogram.num_bins(),
              via_table.timestep_histogram.num_bins());
    for (std::size_t t = 0; t < out.timesteps; ++t) {
      EXPECT_EQ(via_policy.timestep_histogram.count(t),
                via_table.timestep_histogram.count(t))
          << theta << " bin " << t;
    }
  }
  EXPECT_THROW(evaluate_dtsnn_with_table(out, std::span<const double>(table).first(2), 0.5),
               std::invalid_argument);
}

// ------------------------------------------- recorded replay vs sequential engine

TEST(Engine, SequentialMatchesPosthoc) {
  // Train a micro model briefly, then verify the sequential engine's exit
  // decisions and predictions equal the recorded replay on every sample.
  ExperimentSpec spec;
  spec.model = "vgg_micro";
  spec.dataset = "sync10";
  spec.epochs = 3;
  spec.timesteps = 3;
  spec.data_scale = 0.06;
  Experiment e = run_experiment(spec);

  const auto outputs = test_outputs(e, 3, /*limit=*/40);
  EntropyExitPolicy policy(0.3);
  const auto posthoc = evaluate_recorded(outputs, policy);

  SequentialEngine engine(e.net, policy, 3);
  const auto preds = engine.run(*e.bundle.test, InferenceRequest::first_n(outputs.samples));
  for (std::size_t i = 0; i < outputs.samples; ++i) {
    const auto& pred = preds[i];
    EXPECT_EQ(pred.exit_timestep, posthoc.exit_timestep[i]) << "sample " << i;
    const auto logits = outputs.at(pred.exit_timestep - 1, i);
    EXPECT_EQ(pred.predicted_class, util::argmax(logits)) << "sample " << i;
  }
}

/// Regression: both paths claim to implement Eq. 8 identically. The recorded
/// replay (evaluate_recorded) and the stepped SequentialEngine must agree
/// on the exit timestep and the predicted class for every sample of a small
/// synthetic dataset, across thresholds.
TEST(Engine, PosthocAndSequentialAgreeOnEverySample) {
  ExperimentSpec spec;
  spec.model = "vgg_micro";
  spec.dataset = "sync10";
  spec.epochs = 2;
  spec.timesteps = 3;
  spec.data_scale = 0.06;
  Experiment e = run_experiment(spec);

  const auto& ds = *e.bundle.test;
  const auto outputs = test_outputs(e, spec.timesteps);
  ASSERT_EQ(outputs.samples, ds.size());

  for (const double theta : {0.15, 0.5}) {
    EntropyExitPolicy policy(theta);
    const auto posthoc = evaluate_recorded(outputs, policy);
    SequentialEngine engine(e.net, policy, spec.timesteps);
    const auto preds = engine.run(ds, InferenceRequest::first_n(ds.size()));
    for (std::size_t i = 0; i < ds.size(); ++i) {
      const auto& pred = preds[i];
      EXPECT_EQ(pred.exit_timestep, posthoc.exit_timestep[i])
          << "theta " << theta << " sample " << i;
      const std::size_t posthoc_class = util::argmax(outputs.at(pred.exit_timestep - 1, i));
      EXPECT_EQ(pred.predicted_class, posthoc_class)
          << "theta " << theta << " sample " << i;
    }
  }
}

TEST(Engine, ParallelCollectMatchesSerial) {
  ExperimentSpec spec;
  spec.model = "vgg_micro";
  spec.dataset = "sync10";
  spec.epochs = 1;
  spec.timesteps = 3;
  spec.data_scale = 0.06;
  Experiment e = run_experiment(spec);
  const data::Dataset& ds = *e.bundle.test;

  // Small chunks with a ragged final one, and at least 3 of them, so every
  // thread count below gets work and the tail chunk is short.
  constexpr std::size_t kBatch = 7;
  ASSERT_NE(ds.size() % kBatch, 0u);
  ASSERT_GE(ds.size() / kBatch, 3u);
  const auto serial = collect_outputs(e.net, ds, spec.timesteps, kBatch);

  std::size_t factory_calls = 0;
  const NetworkFactory base = replica_factory(e);
  const NetworkFactory counting = [&] {
    ++factory_calls;
    return base();
  };
#ifdef _OPENMP
  constexpr bool kOpenMp = true;
#else
  constexpr bool kOpenMp = false;
#endif
  // Forced thread counts exercise the replica path even on one core; chunk
  // boundaries do not move, so every recording is bitwise identical. A
  // thread count without a factory never spawns replicas.
  struct Case {
    bool with_factory;
    std::size_t threads;
  };
  for (const Case c : {Case{true, 1}, Case{true, 2}, Case{true, 3}, Case{false, 3}}) {
    factory_calls = 0;
    const auto parallel =
        collect_outputs(e.net, ds, spec.timesteps, kBatch, /*limit=*/0,
                        c.with_factory ? counting : NetworkFactory{}, c.threads);
    const std::size_t expected_calls = c.with_factory && kOpenMp ? c.threads - 1 : 0;
    EXPECT_EQ(factory_calls, expected_calls) << c.threads << " threads";
    ASSERT_EQ(parallel.samples, serial.samples);
    ASSERT_EQ(parallel.labels, serial.labels);
    ASSERT_EQ(parallel.cum_logits.numel(), serial.cum_logits.numel());
    for (std::size_t j = 0; j < serial.cum_logits.numel(); ++j) {
      ASSERT_EQ(parallel.cum_logits.data()[j], serial.cum_logits.data()[j])
          << c.threads << " threads, value " << j;
    }
  }

  // The replay behind threshold sweeps and calibration runs its samples in
  // parallel and aggregates serially: its decisions, and the calibrated
  // theta, do not depend on the thread count either.
  const auto grid = default_theta_grid();
  const double target = static_accuracy(serial, serial.timesteps);
  const auto replay_at = [&](int threads) {
    const test::OmpThreads scoped(threads);
    return std::pair{theta_sweep(serial, grid), calibrate_theta(serial, target)};
  };
  const auto [sweep_1t, calib_1t] = replay_at(1);
  const auto [sweep_3t, calib_3t] = replay_at(3);
  ASSERT_EQ(sweep_1t.size(), grid.size());
  ASSERT_EQ(sweep_3t.size(), grid.size());
  for (std::size_t i = 0; i < grid.size(); ++i) {
    ASSERT_EQ(sweep_3t[i].result.exit_timestep, sweep_1t[i].result.exit_timestep)
        << "theta " << grid[i];
    ASSERT_EQ(sweep_3t[i].result.accuracy, sweep_1t[i].result.accuracy) << grid[i];
    ASSERT_EQ(sweep_3t[i].result.avg_timesteps, sweep_1t[i].result.avg_timesteps)
        << grid[i];
  }
  ASSERT_EQ(calib_3t.theta, calib_1t.theta);
  ASSERT_EQ(calib_3t.result.exit_timestep, calib_1t.result.exit_timestep);

  EXPECT_THROW(collect_outputs(e.net, ds, spec.timesteps, 0), std::invalid_argument);
  EXPECT_THROW(collect_outputs(e.net, ds, spec.timesteps, 0, 0, counting, 2),
               std::invalid_argument);
  EXPECT_THROW(collect_outputs(e.net, ds, /*timesteps=*/0), std::invalid_argument);
  EXPECT_THROW(collect_outputs(e.net, ds, /*timesteps=*/0, kBatch, 0, counting, 2),
               std::invalid_argument);
  EXPECT_EQ(factory_calls, 0u);
}

/// Satellite regression: when the timestep budget runs out without the exit
/// rule firing, the forced-exit prediction must carry the entropy of the
/// cumulative-mean logits at the final timestep — the same value an entropy
/// table lookup at t = T gives — never a stale or zero value.
TEST(Engine, ForcedExitCarriesLastEntropy) {
  ExperimentSpec spec;
  spec.model = "vgg_micro";
  spec.dataset = "sync10";
  spec.epochs = 1;
  spec.timesteps = 3;
  spec.data_scale = 0.06;
  Experiment e = run_experiment(spec);

  const auto outputs = test_outputs(e, spec.timesteps, /*limit=*/12);
  const NeverExitPolicy never;
  SequentialEngine engine(e.net, never, spec.timesteps);
  const auto preds = engine.run(*e.bundle.test, InferenceRequest::first_n(outputs.samples));
  for (std::size_t i = 0; i < outputs.samples; ++i) {
    const auto& pred = preds[i];
    ASSERT_EQ(pred.exit_timestep, spec.timesteps) << "sample " << i;
    const double expected = entropy_of_logits(outputs.at(spec.timesteps - 1, i));
    // The step path and the recording path accumulate identically, so the
    // forced-exit entropy must match the recorded final-timestep entropy
    // exactly (and in particular must not be 0 or left over from t=1).
    EXPECT_EQ(pred.final_entropy, expected) << "sample " << i;
    EXPECT_GT(pred.final_entropy, 0.0) << "sample " << i;
  }
}

TEST(Engine, ZeroTimestepBudgetIsRejected) {
  ExperimentSpec spec;
  spec.model = "vgg_micro";
  spec.dataset = "sync10";
  spec.epochs = 0;
  spec.timesteps = 2;
  spec.data_scale = 0.06;
  Experiment e = run_experiment(spec);
  const EntropyExitPolicy policy(0.3);
  EXPECT_THROW(SequentialEngine(e.net, policy, 0), std::invalid_argument);
  EXPECT_THROW(BatchedSequentialEngine(e.net, policy, 0), std::invalid_argument);
  EXPECT_THROW(BatchedSequentialEngine(e.net, policy, 2, 0), std::invalid_argument);
}

TEST(Evaluator, BundleDispatch) {
  auto dvs = make_bundle("syndvs", 0.05);
  EXPECT_EQ(dvs.train->native_frames(), 10u);
  auto vision = make_bundle("sync10", 0.05);
  // Static vision presets pre-encode 8 distractor-flicker frames per sample
  // (README, "Substitutions for the paper's setting", item 1).
  EXPECT_EQ(vision.train->native_frames(), 8u);
  EXPECT_EQ(preset_timesteps("syndvs"), 10u);
  EXPECT_EQ(preset_timesteps("sync10"), 4u);
}

TEST(Evaluator, CacheKeyDistinguishesSpecs) {
  ExperimentSpec a, b;
  b.loss = LossKind::kMeanLogit;
  EXPECT_NE(a.cache_key(), b.cache_key());
  ExperimentSpec c;
  c.seed = 2;
  EXPECT_NE(a.cache_key(), c.cache_key());
  EXPECT_EQ(a.cache_key(), ExperimentSpec{}.cache_key());
}

}  // namespace
}  // namespace dtsnn::core
