// High-level experiment harness shared by tests, examples and benches.
//
// Bundles the full pipeline: build dataset preset -> build model preset ->
// train with the chosen loss -> record per-timestep outputs on the test set
// (test_outputs) -> static/dynamic evaluation of the recording
// (static_accuracy / evaluate_recorded, core/engine.h). A checkpoint cache
// keyed by the experiment configuration makes repeated bench invocations
// cheap.

#pragma once

#include <optional>
#include <string>

#include "core/calibration.h"
#include "core/engine.h"
#include "data/dvs.h"
#include "data/synthetic.h"
#include "snn/models.h"
#include "snn/trainer.h"

namespace dtsnn::core {

/// Dataset presets: "sync10", "sync100", "syntin" (static) and "syndvs"
/// (event stream, native T=10).
data::SyntheticBundle make_bundle(const std::string& preset, double size_scale = 1.0);

/// Paper timestep budget for a dataset preset (4 for static, 10 for DVS).
std::size_t preset_timesteps(const std::string& dataset_preset);

enum class LossKind { kMeanLogit /*Eq. 9*/, kPerTimestep /*Eq. 10*/ };

struct ExperimentSpec {
  std::string model = "vgg_mini";
  std::string dataset = "sync10";
  std::size_t timesteps = 4;
  std::size_t epochs = 12;
  std::size_t batch_size = 64;
  LossKind loss = LossKind::kPerTimestep;
  snn::SgdConfig sgd{};
  double data_scale = 1.0;  ///< scales dataset sample counts
  std::uint64_t seed = 1;
  snn::SurrogateKind surrogate = snn::SurrogateKind::kTriangle;
  float bn_vth_scale = 1.0f;

  /// Stable identifier used as the checkpoint cache key.
  [[nodiscard]] std::string cache_key() const;
};

struct Experiment {
  ExperimentSpec spec;
  data::SyntheticBundle bundle;
  snn::SpikingNetwork net;
  snn::TrainStats train_stats;
  bool loaded_from_cache = false;
};

/// Train from scratch (always).
Experiment run_experiment(const ExperimentSpec& spec);

/// Train unless a cached checkpoint for this spec exists in `cache_dir`
/// (empty disables caching). The dataset is rebuilt either way (generation
/// is deterministic and fast).
Experiment train_or_load(const ExperimentSpec& spec, const std::string& cache_dir);

/// Convenience: record test-set outputs of an experiment's network with
/// collect_outputs. Dataset batches run on OpenMP worker threads (each with
/// its own network replica) when available; `num_threads` 0 uses all cores,
/// 1 runs on the experiment's network alone. Replay the recording with
/// evaluate_recorded (core/engine.h).
TimestepOutputs test_outputs(Experiment& e, std::size_t timesteps = 0,
                             std::size_t limit = 0, std::size_t num_threads = 0);

/// Factory producing untrained, architecturally identical replicas of the
/// experiment's network (for collect_outputs worker threads). The
/// returned callable borrows `e`; it must not outlive the experiment.
NetworkFactory replica_factory(const Experiment& e);

}  // namespace dtsnn::core
