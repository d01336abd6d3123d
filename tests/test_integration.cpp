// End-to-end integration tests reproducing the paper's qualitative claims on
// fast micro-scale configurations:
//  * training reduces loss and reaches usable accuracy;
//  * accuracy is non-decreasing in T after Eq. 10 training (Fig. 2 shape);
//  * Eq. 10 beats Eq. 9 at T=1 (Fig. 7 shape);
//  * DT-SNN reaches static full-T accuracy with fewer average timesteps and
//    lower mean energy/EDP (Table II / Fig. 4 shape);
//  * entropy correlates with correctness (the premise of Eq. 8);
//  * device variation degrades but does not destroy accuracy (Fig. 6B shape).

#include <filesystem>

#include <gtest/gtest.h>

#include "core/calibration.h"
#include "core/entropy.h"
#include "core/evaluator.h"
#include "imc/energy_model.h"
#include "imc/xbar_functional.h"
#include "util/math.h"

namespace dtsnn::core {
namespace {

/// Shared tiny experiment (trained once for the whole suite).
class IntegrationFixture : public testing::Test {
 protected:
  /// Where the suite's trained weights are cached.
  static std::string cache_dir() { return testing::TempDir() + "/dtsnn_integration_cache"; }

  static void SetUpTestSuite() {
    ExperimentSpec spec;
    spec.model = "vgg_micro";
    spec.dataset = "sync10";
    spec.epochs = 10;
    spec.timesteps = 4;
    spec.batch_size = 32;
    spec.data_scale = 0.25;
    spec.seed = 3;
    // ctest runs each TEST_F in its own process; cache the trained weights
    // so the suite trains once and later processes just load.
    experiment_ = new Experiment(train_or_load(spec, cache_dir()));
    outputs_ = new TimestepOutputs(test_outputs(*experiment_));
  }
  static void TearDownTestSuite() {
    delete outputs_;
    delete experiment_;
    outputs_ = nullptr;
    experiment_ = nullptr;
  }

  static Experiment* experiment_;
  static TimestepOutputs* outputs_;
};

Experiment* IntegrationFixture::experiment_ = nullptr;
TimestepOutputs* IntegrationFixture::outputs_ = nullptr;

TEST_F(IntegrationFixture, TrainingConverges) {
  if (experiment_->loaded_from_cache) {
    // A cached run has no fresh training curve; the accuracy-based tests
    // below still cover the trained model's quality.
    GTEST_SKIP() << "checkpoint loaded from cache; no training stats";
  }
  const auto& stats = experiment_->train_stats;
  ASSERT_FALSE(stats.epoch_loss.empty());
  EXPECT_LT(stats.final_loss(), stats.epoch_loss.front());
  EXPECT_GT(stats.final_accuracy(), 0.5);
}

TEST_F(IntegrationFixture, TestAccuracyWellAboveChance) {
  EXPECT_GT(static_accuracy(*outputs_, 4), 0.5);  // chance = 0.1
}

TEST_F(IntegrationFixture, AccuracyGrowsWithTimesteps) {
  const auto acc = accuracy_per_timestep(*outputs_);
  // Fig. 2 shape: more timesteps help; final T must not be worse than T=1
  // and the curve should be (weakly) increasing overall.
  EXPECT_GE(acc[3] + 0.02, acc[0]);
  EXPECT_GE(acc[1] + 0.05, acc[0]);
}

TEST_F(IntegrationFixture, EntropyCorrelatesWithCorrectness) {
  // Average entropy of correct predictions must be lower than of wrong ones
  // at the final timestep (Guo et al. calibration premise used by Eq. 8).
  const auto& out = *outputs_;
  double h_correct = 0.0, h_wrong = 0.0;
  std::size_t n_correct = 0, n_wrong = 0;
  for (std::size_t i = 0; i < out.samples; ++i) {
    const auto logits = out.at(out.timesteps - 1, i);
    const double h = entropy_of_logits(logits);
    if (util::argmax(logits) == static_cast<std::size_t>(out.labels[i])) {
      h_correct += h;
      ++n_correct;
    } else {
      h_wrong += h;
      ++n_wrong;
    }
  }
  ASSERT_GT(n_correct, 0u);
  ASSERT_GT(n_wrong, 0u);
  EXPECT_LT(h_correct / n_correct, h_wrong / n_wrong);
}

TEST_F(IntegrationFixture, DtsnnMatchesStaticAccuracyWithFewerTimesteps) {
  const double static_acc = static_accuracy(*outputs_, 4);
  const auto calib = calibrate_theta(*outputs_, static_acc, /*tolerance=*/0.005);
  EXPECT_TRUE(calib.met_target);
  EXPECT_LT(calib.result.avg_timesteps, 4.0);
  EXPECT_GE(calib.result.accuracy, static_acc - 0.005 - 1e-9);
}

TEST_F(IntegrationFixture, DtsnnReducesEnergyAndEdp) {
  const double static_acc = static_accuracy(*outputs_, 4);
  const auto calib = calibrate_theta(*outputs_, static_acc, 0.005);

  const auto spec = imc::spec_from_network(experiment_->net, "vgg_micro");
  const imc::EnergyModel model(imc::map_network(spec, imc::ImcConfig{}));
  const double static_energy = model.energy_pj(4);
  const double static_edp = model.edp(4);
  const double dt_energy = model.mean_energy_pj(calib.result.exit_timestep);
  const double dt_edp = model.mean_edp(calib.result.exit_timestep);
  EXPECT_LT(dt_energy, static_energy);
  EXPECT_LT(dt_edp, static_edp);
}

TEST_F(IntegrationFixture, ThetaSweepTracesTradeoffCurve) {
  const auto sweep = theta_sweep(*outputs_, {0.05, 0.2, 0.5, 0.9});
  // Larger theta -> fewer timesteps (weakly monotone).
  for (std::size_t i = 1; i < sweep.size(); ++i) {
    EXPECT_LE(sweep[i].result.avg_timesteps, sweep[i - 1].result.avg_timesteps + 1e-9);
  }
}

TEST_F(IntegrationFixture, ExitHistogramMassAtEarlyTimesteps) {
  // Fig. 5 pies: with an iso-accuracy threshold most inputs exit early.
  const double static_acc = static_accuracy(*outputs_, 4);
  const auto calib = calibrate_theta(*outputs_, static_acc, 0.01);
  EXPECT_GT(calib.result.timestep_histogram.fraction(0), 0.3);
}

TEST_F(IntegrationFixture, DeviceVariationDegradesGracefully) {
  // Copy weights through the device pipeline and re-evaluate (Fig. 6B).
  // A second copy of the suite's network: the weights SetUpTestSuite cached.
  Experiment noisy = train_or_load(experiment_->spec, cache_dir());
  imc::ImcConfig cfg;                        // sigma/mu = 20%
  imc::apply_device_variation(noisy.net, cfg, 99);
  const auto noisy_out = test_outputs(noisy);
  const double clean = static_accuracy(*outputs_, 4);
  const double perturbed = static_accuracy(noisy_out, 4);
  EXPECT_LT(perturbed, clean + 0.05);     // does not magically improve
  EXPECT_GT(perturbed, 0.3);              // and does not collapse to chance
}

TEST(Integration, Eq10BeatsEq9AtTimestepOne) {
  ExperimentSpec base;
  base.model = "vgg_micro";
  base.dataset = "sync10";
  base.epochs = 8;
  base.timesteps = 4;
  base.data_scale = 0.15;
  base.seed = 11;

  ExperimentSpec eq9 = base;
  eq9.loss = LossKind::kMeanLogit;
  ExperimentSpec eq10 = base;
  eq10.loss = LossKind::kPerTimestep;

  Experiment e9 = run_experiment(eq9);
  Experiment e10 = run_experiment(eq10);
  const auto out9 = test_outputs(e9);
  const auto out10 = test_outputs(e10);
  // Fig. 7: per-timestep supervision lifts early-timestep accuracy.
  EXPECT_GT(static_accuracy(out10, 1) + 0.02, static_accuracy(out9, 1));
}

TEST(Integration, DvsPipelineTrainsAndExitsEarly) {
  ExperimentSpec spec;
  spec.model = "vgg_micro";
  spec.dataset = "syndvs";
  spec.epochs = 6;
  spec.timesteps = 10;
  spec.data_scale = 0.12;
  spec.seed = 17;
  Experiment e = run_experiment(spec);
  auto out = test_outputs(e);
  const double acc10 = static_accuracy(out, 10);
  EXPECT_GT(acc10, 0.3);  // 10 classes, chance 0.1
  const auto calib = calibrate_theta(out, acc10, 0.01);
  EXPECT_LT(calib.result.avg_timesteps, 10.0);
}

TEST(Integration, TrainOrLoadRoundTrip) {
  const std::string cache = testing::TempDir() + "/dtsnn_cache_it";
  std::filesystem::remove_all(cache);  // a previous run's cache would skip training
  ExperimentSpec spec;
  spec.model = "vgg_micro";
  spec.dataset = "sync10";
  spec.epochs = 2;
  spec.timesteps = 2;
  spec.data_scale = 0.05;
  spec.seed = 23;
  Experiment first = train_or_load(spec, cache);
  EXPECT_FALSE(first.loaded_from_cache);
  Experiment second = train_or_load(spec, cache);
  EXPECT_TRUE(second.loaded_from_cache);
  // Identical outputs from cached weights.
  auto o1 = test_outputs(first, 2, 16);
  auto o2 = test_outputs(second, 2, 16);
  EXPECT_TRUE(o1.cum_logits.allclose(o2.cum_logits));
}

}  // namespace
}  // namespace dtsnn::core
