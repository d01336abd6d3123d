// Joint spatio-temporal early exit: DT-SNN's timestep dimension composed
// with layer-wise (BranchyNet-style) auxiliary exits.
//
// The scan order mirrors the hardware's natural schedule: within timestep t
// the activations flow depth-wise past each auxiliary head; inference stops
// at the first (depth, time) point whose cumulative-prediction entropy drops
// below theta. If no point fires, the deepest head at the final timestep
// decides. Cost is reported in full-timestep equivalents:
//     cost(exit i at timestep t) = (t - 1) + cost_fraction(i),
// where cost_fraction is the MAC share of the backbone up to head i.

#pragma once

#include "core/exit_policy.h"
#include "data/dataset.h"
#include "snn/multi_exit.h"
#include "util/stats.h"

namespace dtsnn::core {

struct MultiExitOutputs {
  std::size_t exits = 0;
  std::size_t timesteps = 0;
  std::size_t samples = 0;
  std::size_t classes = 0;
  /// Per exit: [T*N, K] cumulative-mean logits.
  std::vector<snn::Tensor> cum_logits;
  std::vector<int> labels;
  std::vector<double> cost_fractions;  ///< per exit, ascending to 1.0

  [[nodiscard]] std::span<const float> at(std::size_t exit, std::size_t t,
                                          std::size_t i) const;
};

/// Run the network over the dataset recording every head at every timestep,
/// in chunks of `batch_size` samples. Throws std::invalid_argument for
/// batch_size == 0 or timesteps == 0.
MultiExitOutputs collect_multi_exit_outputs(snn::MultiExitNetwork& net,
                                            const data::Dataset& dataset,
                                            std::size_t timesteps,
                                            std::size_t batch_size = 256,
                                            std::size_t limit = 0);

struct SpatioTemporalPolicy {
  double theta = 0.2;
  bool use_time = true;   ///< allow exits at t < T (DT-SNN dimension)
  bool use_depth = true;  ///< allow exits at auxiliary heads (EE dimension)
};

struct SpatioTemporalResult {
  double accuracy = 0.0;
  /// Mean inference cost in full-timestep equivalents.
  double avg_cost = 0.0;
  double avg_exit_time = 0.0;   ///< 1-based mean exit timestep
  double avg_exit_depth = 0.0;  ///< 0-based mean exit head index
  util::Histogram time_histogram{1};
  util::Histogram depth_histogram{1};
};

SpatioTemporalResult evaluate_spatiotemporal(const MultiExitOutputs& outputs,
                                             const SpatioTemporalPolicy& policy);

}  // namespace dtsnn::core
