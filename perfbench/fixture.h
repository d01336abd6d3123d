// The frozen model every benchmark workload shares.
//
// vgg_mini on sync10, T = 4, per-timestep loss: the table3_throughput spec at
// full data scale. It is trained once by make_fixture (see README.md) and
// its checkpoint is committed next to this file, so no run retrains and a
// training-code change cannot silently move a workload.

#pragma once

#include <filesystem>
#include <stdexcept>
#include <string>

#include "core/evaluator.h"
#include "snn/serialize.h"

namespace dtsnn::perfbench {

inline core::ExperimentSpec fixture_spec() {
  core::ExperimentSpec spec;
  spec.model = "vgg_mini";
  spec.dataset = "sync10";
  spec.timesteps = 4;
  spec.epochs = 14;
  spec.loss = core::LossKind::kPerTimestep;
  return spec;
}

/// The sync10 test split the checkpoint is evaluated on. The train split is
/// cut to one sample: the test split draws from its own forked generator,
/// so it is identical to the full bundle's (make_fixture checks this).
inline data::SyntheticBundle fixture_bundle() {
  data::SyntheticSpec data_spec = data::synthetic_preset("sync10");
  data_spec.train_samples = 1;
  return data::make_synthetic_vision(data_spec);
}

/// Build the fixture experiment from the committed checkpoint. Throws when
/// the file is missing or does not load into vgg_mini; never trains.
inline core::Experiment load_fixture(const std::filesystem::path& checkpoint) {
  if (!std::filesystem::is_regular_file(checkpoint)) {
    throw std::runtime_error("perfbench: fixture checkpoint not found: " +
                             checkpoint.string());
  }
  const core::ExperimentSpec spec = fixture_spec();
  data::SyntheticBundle bundle = fixture_bundle();
  snn::ModelConfig mc;
  mc.num_classes = bundle.test->num_classes();
  mc.input_shape = bundle.test->frame_shape();
  mc.seed = spec.seed;
  mc.lif.surrogate.kind = spec.surrogate;
  mc.bn_vth_scale = spec.bn_vth_scale;
  snn::SpikingNetwork net = snn::make_model(spec.model, mc);
  snn::load_checkpoint(net, checkpoint.string());
  return core::Experiment{spec, std::move(bundle), std::move(net), {}, true};
}

}  // namespace dtsnn::perfbench
