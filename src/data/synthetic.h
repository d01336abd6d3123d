// Synthetic class-prototype vision datasets.
//
// Substitute for CIFAR-10 / CIFAR-100 / TinyImageNet (none of which are
// available offline — see README, "Substitutions for the paper's
// setting"). Each class has a smooth random prototype; a sample blends its
// class prototype with clutter from other classes and pixel noise, with
// the blend controlled by a per-sample *difficulty* drawn from a
// right-skewed distribution (most samples easy, a tail of hard ones). This
// reproduces the property DT-SNN exploits: the bulk of inputs are
// classifiable after one timestep while a minority need deeper temporal
// integration.

#pragma once

#include <string>

#include "data/dataset.h"

namespace dtsnn::data {

struct SyntheticSpec {
  std::string name = "sync10";
  std::size_t classes = 10;
  std::size_t channels = 3;
  std::size_t height = 16;
  std::size_t width = 16;
  std::size_t train_samples = 4096;
  std::size_t test_samples = 1024;
  /// Coarse grid size of the prototype's low-frequency pattern.
  std::size_t prototype_cells = 4;
  /// Strength of cross-class clutter at difficulty 1.
  double clutter = 0.9;
  /// Static (per-sample) pixel noise stddev at difficulty 1.
  double noise = 0.5;
  /// Per-timestep i.i.d. sensor-noise stddev (difficulty-scaled; small —
  /// it is spatially white, so spatial pooling already removes most of it).
  double temporal_noise = 0.4;
  /// Per-timestep *structured* clutter: each encoded frame adds a random
  /// other-class prototype with this amplitude (difficulty-scaled). Being
  /// spatially low-frequency, it survives spatial pooling and can only be
  /// averaged away over timesteps — the mechanism that makes hard inputs
  /// need more timesteps and powers the input-dependence of DT-SNN.
  double temporal_clutter = 0.9;
  /// Number of distinct encoded frames generated per sample (timesteps
  /// beyond this reuse the last frame).
  std::size_t frames = 8;
  /// Signal contrast range: contrast = 1 - contrast_drop * difficulty.
  double contrast_drop = 0.6;
  /// Difficulty ~ Beta-like skew: pow(U, difficulty_skew); >1 favors easy.
  double difficulty_skew = 2.2;
  std::uint64_t seed = 7;
};

struct SyntheticBundle {
  std::string name;
  std::unique_ptr<ArrayDataset> train;
  std::unique_ptr<ArrayDataset> test;
};

/// Generate train+test splits sharing the same class prototypes.
SyntheticBundle make_synthetic_vision(const SyntheticSpec& spec);

/// Named presets mirroring the paper's static-image benchmarks:
///   "sync10"  — 10 classes, 3x16x16   (stands in for CIFAR-10)
///   "sync100" — 20 classes, 3x16x16, more clutter (stands in for CIFAR-100;
///               class count reduced for CPU-scale training, see README)
///   "syntin"  — 20 classes, 3x20x20, hardest (stands in for TinyImageNet)
/// `size_scale` scales train/test sample counts (benches use <1 for speed).
SyntheticSpec synthetic_preset(const std::string& name, double size_scale = 1.0);

}  // namespace dtsnn::data
