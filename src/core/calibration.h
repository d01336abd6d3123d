// Threshold calibration and sweeps.
//
// The paper selects the entropy threshold theta so that DT-SNN matches the
// static full-T accuracy ("under a similar accuracy level", Table II). The
// calibrator replays recorded outputs over a theta grid — against one
// entropy table, through evaluate_dtsnn_with_table (core/engine.h) — and
// returns the most aggressive threshold (largest theta => earliest exits)
// whose accuracy stays within `tolerance` of the target.

#pragma once

#include <vector>

#include "core/engine.h"

namespace dtsnn::core {

struct SweepPoint {
  double theta = 0.0;
  DtsnnResult result;
};

/// Evaluate the entropy exit rule at each theta (any order; results align).
std::vector<SweepPoint> theta_sweep(const TimestepOutputs& outputs,
                                    const std::vector<double>& thetas);

/// Default geometric + linear grid covering (0, 1).
std::vector<double> default_theta_grid();

struct CalibrationResult {
  double theta = 0.0;
  DtsnnResult result;
  double target_accuracy = 0.0;
  bool met_target = false;  ///< false => returned the most conservative grid point
};

/// Largest theta whose accuracy >= target_accuracy - tolerance. Throws
/// std::invalid_argument for an empty grid.
CalibrationResult calibrate_theta(const TimestepOutputs& outputs, double target_accuracy,
                                  double tolerance = 0.0,
                                  const std::vector<double>& grid = default_theta_grid());

}  // namespace dtsnn::core
