// Post-training quantization calibration and the shared tolerance gate.
//
// A quantized network runs its dequantized weights through the float path
// (snn/quantize.h), so it is bitwise identical to a float network carrying
// those dequantized weights, but not to the float network it was quantized
// from. Versus that float oracle the contract is a measured one: decisions
// may flip, but the flip rate and accuracy delta must stay inside
// configured bounds per dataset preset. calibrate_quantized() is the
// one-stop entry: it streams a bounded sample of the dataset through the
// batched engine twice — once on the float network, once after quantizing
// its weights (snn::quantize_network_weights) — comparing exit decisions
// sample by sample. The measurement passes stream samples through the
// engine's LivePool, which encodes one frame per sample and timestep, so
// calibration never materializes the dataset.
//
// compare_decisions() is the shared gate helper: every quantized-tier test
// and bench goes through it (or an explicit EXPECT_NEAR bound) instead of
// comparing floats bitwise against the float oracle — enforced by the
// quant-bitwise-oracle rule in scripts/check_invariants.py.

#pragma once

#include <cstddef>
#include <span>

#include "core/exit_policy.h"
#include "core/inference.h"
#include "data/dataset.h"
#include "snn/network.h"
#include "util/quant.h"

namespace dtsnn::core {

/// How a quantized run's decisions differ from the float oracle's, sample by
/// sample (same request order on both sides).
struct DecisionDiff {
  std::size_t samples = 0;
  std::size_t prediction_flips = 0;  ///< predicted_class differs
  std::size_t exit_flips = 0;        ///< exit_timestep differs
  double prediction_flip_rate = 0.0;
  double exit_flip_rate = 0.0;
};

/// The shared tolerance-gate helper: pair up oracle and candidate results by
/// request position and count decision flips. Throws std::invalid_argument
/// when the two runs cover different samples.
DecisionDiff compare_decisions(std::span<const InferenceResult> oracle,
                               std::span<const InferenceResult> candidate);

struct QuantCalibrationConfig {
  util::QuantSpec spec;
  /// Samples streamed through the measurement pass; 0 = the whole dataset.
  std::size_t max_samples = 256;
  /// Live-pool size of the batched measurement engine.
  std::size_t batch_size = 32;
  /// Gates evaluated into QuantCalibrationReport::within_tolerance.
  double flip_rate_tolerance = 0.01;
  double accuracy_delta_tolerance = 0.02;
};

struct QuantCalibrationReport {
  int bits = 0;
  std::size_t group_size = 0;
  std::size_t layers_quantized = 0;
  std::size_t samples = 0;
  DecisionDiff diff;
  double accuracy_float = 0.0;
  double accuracy_quant = 0.0;
  double accuracy_delta = 0.0;  ///< quant - float (signed)
  std::size_t float_weight_bytes = 0;
  std::size_t quant_weight_bytes = 0;  ///< packed integer codes
  std::size_t scale_bytes = 0;
  /// float_weight_bytes / quant_weight_bytes: how much smaller the stored
  /// weight codes are than the float weights (the checkpoint section; scales
  /// are reported separately). Inference runs the dequantized floats, so
  /// this is not a per-spike weight-traffic reduction.
  double footprint_ratio = 0.0;
  bool within_tolerance = false;
};

/// Quantize `net`'s weights under config.spec and measure the tolerance gate
/// versus the float network. Quantized weights already installed are cleared
/// first, so the oracle pass always runs the float weights. Both passes run
/// on the network's own GEMM context (every backend is bitwise identical).
/// On return the network carries calibrated quantized weights (they
/// checkpoint via snn::serialize). Throws QuantizationError(kBadSpec) when
/// the network has no quantizable layers.
QuantCalibrationReport calibrate_quantized(snn::SpikingNetwork& net,
                                           const data::Dataset& dataset,
                                           const ExitPolicy& policy,
                                           std::size_t max_timesteps,
                                           const QuantCalibrationConfig& config);

}  // namespace dtsnn::core
