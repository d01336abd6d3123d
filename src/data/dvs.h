// Synthetic event-stream (DVS-like) dataset.
//
// Substitute for CIFAR10-DVS (see README, "Substitutions for the paper's
// setting"): each sample is a sequence of T sparse binary event frames
// with ON/OFF polarity channels. Events are drawn where a drifting class
// prototype has strong positive (ON) or negative (OFF) local change,
// mimicking how a dynamic vision sensor converts a moving stimulus into
// polarity events. Per-sample difficulty controls the event rate of the
// signal versus background noise events.

#pragma once

#include "data/dataset.h"
#include "data/synthetic.h"

namespace dtsnn::data {

struct DvsSpec {
  std::string name = "syndvs";
  std::size_t classes = 10;
  std::size_t height = 16;
  std::size_t width = 16;
  std::size_t timesteps = 10;  ///< native event frames per sample (paper: T=10)
  std::size_t train_samples = 3072;
  std::size_t test_samples = 768;
  std::size_t prototype_cells = 4;
  /// Peak per-pixel event probability of the signal at difficulty 0.
  double signal_rate = 0.65;
  /// Signal rate multiplier at difficulty 1 (harder = fewer signal events).
  double signal_drop = 0.75;
  /// Background noise event probability at difficulty 1.
  double noise_rate = 0.15;
  double difficulty_skew = 2.0;
  std::uint64_t seed = 23;
};

/// Generate train+test event-stream splits sharing class prototypes.
/// Frames have 2 channels (ON / OFF polarity).
SyntheticBundle make_synthetic_dvs(const DvsSpec& spec);

/// Preset matching the paper's CIFAR10-DVS role; `size_scale` scales counts.
DvsSpec dvs_preset(double size_scale = 1.0);

}  // namespace dtsnn::data
