#include "core/evaluator.h"

#include <filesystem>
#include <stdexcept>

#include "snn/serialize.h"
#include "util/logging.h"

namespace dtsnn::core {

data::SyntheticBundle make_bundle(const std::string& preset, double size_scale) {
  if (preset == "syndvs") {
    return data::make_synthetic_dvs(data::dvs_preset(size_scale));
  }
  return data::make_synthetic_vision(data::synthetic_preset(preset, size_scale));
}

std::size_t preset_timesteps(const std::string& dataset_preset) {
  return dataset_preset == "syndvs" ? 10 : 4;
}

std::string ExperimentSpec::cache_key() const {
  // dp2: data-pipeline generation. Bump whenever the training data order
  // changes for a fixed spec (dp2 = pure-function reshuffle + ragged final
  // batch) so stale checkpoints trained under the old pipeline are retrained
  // instead of silently reused.
  return util::format("%s_%s_T%zu_e%zu_b%zu_%s_lr%g_wd%g_s%llu_sur%s_bn%g_ds%g_dp2",
                      model.c_str(), dataset.c_str(), timesteps, epochs, batch_size,
                      loss == LossKind::kPerTimestep ? "eq10" : "eq9",
                      static_cast<double>(sgd.lr), static_cast<double>(sgd.weight_decay),
                      static_cast<unsigned long long>(seed),
                      snn::to_string(surrogate).c_str(),
                      static_cast<double>(bn_vth_scale), data_scale);
}

namespace {

snn::SpikingNetwork build_net(const ExperimentSpec& spec, const data::Dataset& train) {
  snn::ModelConfig mc;
  mc.num_classes = train.num_classes();
  mc.input_shape = train.frame_shape();
  mc.seed = spec.seed;
  mc.lif.surrogate.kind = spec.surrogate;
  mc.bn_vth_scale = spec.bn_vth_scale;
  return snn::make_model(spec.model, mc);
}

std::unique_ptr<snn::Loss> build_loss(LossKind kind) {
  if (kind == LossKind::kPerTimestep) {
    return std::make_unique<snn::PerTimestepCrossEntropy>();
  }
  return std::make_unique<snn::MeanLogitCrossEntropy>();
}

}  // namespace

Experiment run_experiment(const ExperimentSpec& spec) {
  data::SyntheticBundle bundle = make_bundle(spec.dataset, spec.data_scale);
  snn::SpikingNetwork net = build_net(spec, *bundle.train);

  const auto loss = build_loss(spec.loss);
  data::ShuffledBatchSource source(*bundle.train, spec.batch_size, spec.seed ^ 0xbeef);
  snn::TrainOptions options;
  options.epochs = spec.epochs;
  options.timesteps = spec.timesteps;
  options.sgd = spec.sgd;

  DTSNN_LOG_INFO("training %s on %s (T=%zu, %zu epochs, loss=%s)", spec.model.c_str(),
                 spec.dataset.c_str(), spec.timesteps, spec.epochs, loss->name().c_str());
  snn::TrainStats stats = snn::train(net, *loss, source, options);
  DTSNN_LOG_INFO("  final train acc %.2f%%", 100.0 * stats.final_accuracy());

  return Experiment{spec, std::move(bundle), std::move(net), std::move(stats), false};
}

Experiment train_or_load(const ExperimentSpec& spec, const std::string& cache_dir) {
  if (cache_dir.empty()) return run_experiment(spec);

  std::filesystem::create_directories(cache_dir);
  const std::string path = cache_dir + "/" + spec.cache_key() + ".ckpt";
  if (std::filesystem::exists(path)) {
    data::SyntheticBundle bundle = make_bundle(spec.dataset, spec.data_scale);
    snn::SpikingNetwork net = build_net(spec, *bundle.train);
    snn::load_checkpoint(net, path);
    DTSNN_LOG_INFO("loaded cached checkpoint %s", path.c_str());
    return Experiment{spec, std::move(bundle), std::move(net), {}, true};
  }
  Experiment e = run_experiment(spec);
  snn::save_checkpoint(e.net, path);
  return e;
}

NetworkFactory replica_factory(const Experiment& e) {
  return [&e] { return build_net(e.spec, *e.bundle.train); };
}

TimestepOutputs test_outputs(Experiment& e, std::size_t timesteps, std::size_t limit,
                             std::size_t num_threads) {
  const std::size_t t = timesteps ? timesteps : e.spec.timesteps;
  return collect_outputs(e.net, *e.bundle.test, t, /*batch_size=*/256, limit,
                         replica_factory(e), num_threads);
}

}  // namespace dtsnn::core
